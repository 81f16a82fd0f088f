"""End-to-end tests of the command line front end."""

import json
import math
import warnings
from pathlib import Path

import pytest

from surfspec import eigen, verify
from surfspec.cli import (
    CHECKS,
    ConfigError,
    build_objects,
    load_config,
    main,
    run,
    validate_config,
)
from surfspec.eigen import EigenError
from surfspec.verify import recompute_pass


def base_config(tmp_path):
    return {
        "spec_version": 1,
        "metric": {"family": "euclidean"},
        "distance_function": "x",
        "domain": {
            "shape": "rectangle",
            "extents": [0.0, math.pi, 0.0, math.pi],
            "resolution": 8,
        },
        "checks": ["inequality"],
        "check_params": {"inequality": {"levels": 2}},
        "output": {"report": str(tmp_path / "report.json")},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def helicoid_config(tmp_path):
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "warped",
        "params": {
            "phi": "sqrt(r^2 + c^2)",
            "constants": {"c": 1.0},
            "r_range": [-1.5, 1.5],
        },
    }
    cfg["distance_function"] = "r"
    cfg["domain"] = {
        "shape": "periodic_band",
        "extents": [-1.5, 1.5],
        "resolution": 8,
    }
    cfg["checks"] = ["curvature"]
    return cfg


# ---------------------------------------------------------------------------
# config validation (exit code 2, messages name the field)


def test_missing_metric_block(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["metric"]
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "'metric' is a required property" in capsys.readouterr().err


def test_nested_field_named(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["domain"]["resolution"] = 1
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "domain/resolution" in capsys.readouterr().err


def test_unknown_check_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["checks"] = ["inequality", "bogus"]
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "checks" in capsys.readouterr().err


def test_nonpositive_warp_names_sample(tmp_path, capsys):
    cfg = helicoid_config(tmp_path)
    cfg["metric"]["params"] = {"phi": "r", "r_range": [0.0, 1.0]}
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "metric" in err and "phi(0" in err


def test_dense_threshold_key_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["solver"] = {"dense_threshold": 2000}
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "config field 'solver'" in capsys.readouterr().err


def test_overflowing_metric_names_validity(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "general",
        "params": {"g11": "exp(2*y)", "g12": "0", "g22": "exp(2*y)",
                   "vars": ["x", "y"]},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "metric/params/validity" in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("distance_function", "2^10000*x"),
        ("metric", {"family": "general",
                    "params": {"g11": "1", "g12": "0", "g22": "2^10000"}}),
    ],
)
def test_overflowing_constant_names_field(tmp_path, capsys, field, value):
    cfg = base_config(tmp_path)
    cfg[field] = value
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "overflows" in err


def test_distance_function_required_by_lemma(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["distance_function"]
    cfg["checks"] = ["lemma"]
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "distance_function" in capsys.readouterr().err


def test_extent_count_mismatch(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["domain"] = {"shape": "disk", "extents": [0.0, 1.0], "resolution": 4}
    cfg["checks"] = ["hodge-dims"]
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "domain/extents" in capsys.readouterr().err


def test_unreadable_config(capsys):
    assert main(["run", "/nonexistent/config.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_expression_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["distance_function"] = "x +"
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "distance_function" in capsys.readouterr().err


def test_unknown_distance_variable_rejected(tmp_path):
    cfg = validate_config(base_config(tmp_path))
    cfg["distance_function"] = "z"
    with pytest.raises(ConfigError, match="distance_function"):
        build_objects(cfg)


def test_resolved_config_revalidates(tmp_path):
    resolved = validate_config(base_config(tmp_path))
    again = validate_config(resolved)
    assert again == resolved


# ---------------------------------------------------------------------------
# run command


def test_flat_square_run_passes(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["checks"] = ["inequality", "hodge-dims", "curvature", "oracle"]
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["spec_version"] == 1
    assert [c["check"] for c in report["checks"]] == [
        "inequality", "hodge-dimension", "curvature", "oracle",
    ]
    margin = report["checks"][0]["quantities"]["extrapolated_margin"]
    assert margin == pytest.approx(1.0, abs=0.05)
    assert report["config"]["solver"]["seed"] == 42
    for check in report["checks"]:
        assert recompute_pass(check) == check["passed"]


def test_readme_flagship_config_passes(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cfg = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert cfg["domain"]["resolution"] == 32 and len(cfg["checks"]) == 7
    cfg["output"]["report"] = str(tmp_path / "report.json")
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    assert capsys.readouterr().out.count("PASS") == 7


def test_helicoid_curvature_run_fails(tmp_path):
    cfg = helicoid_config(tmp_path)
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    q = report["checks"][0]["quantities"]["curvature"]
    assert q["min_margin"] < 0
    assert abs(q["min_point"][0]) == pytest.approx(1.5)


def test_reports_byte_identical_excluding_metadata(tmp_path):
    cfg = base_config(tmp_path)
    cfg["checks"] = ["inequality", "union", "oracle"]
    cfg["check_params"]["union"] = {"count": 6}

    def dumped(obj):
        return json.dumps(obj, indent=2, sort_keys=True)

    def stripped(report):
        return dumped({k: v for k, v in report.items() if k != "metadata"})

    first, code = run(cfg)
    assert code == 0
    assert "generated_at" in first["metadata"]
    assert "wall_time" not in stripped(first)

    # each check run alone, in reverse order, gives the payload it had
    # in the multi-check run, which shared one level cache
    for name, shared in reversed(list(zip(cfg["checks"], first["checks"]))):
        alone, _ = run({**cfg, "checks": [name]})
        assert dumped(alone["checks"]) == dumped([shared])


def test_neumann_block_reports_byte_identical_alone(tmp_path, monkeypatch):
    # levels 1-2 sparse, so both checks' Neumann solves are nested
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "warped",
        "params": {"phi": "exp(r)", "r_range": [-1.0, 0.0]},
    }
    cfg["distance_function"] = "r"
    cfg["domain"] = {
        "shape": "periodic_band", "extents": [-1.0, 0.0], "resolution": 6,
    }
    cfg["checks"] = ["inequality", "convergence"]
    cfg["check_params"] = {
        "inequality": {"levels": 3},
        "convergence": {"bc": "neumann", "levels": 3},
    }

    def dumped(obj):
        return json.dumps(obj, indent=2, sort_keys=True)

    shared, code = run(cfg)
    assert code == 0
    # convergence reads the inequality's Neumann block when they share a
    # cache and solves that block itself when alone: the same numbers
    for name, payload in reversed(list(zip(cfg["checks"], shared["checks"]))):
        alone, _ = run({**cfg, "checks": [name]})
        assert dumped(alone["checks"]) == dumped([payload])


def test_run_shares_levels_across_checks(tmp_path, monkeypatch):
    calls = dict.fromkeys(
        ("solve_smallest", "assemble_scalar", "refine", "triangulate"), 0
    )
    for name in calls:
        original = getattr(verify, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "warped",
        "params": {"phi": "exp(r)", "r_range": [-1.0, 0.0]},
    }
    cfg["distance_function"] = "r"
    cfg["domain"] = {
        "shape": "periodic_band", "extents": [-1.0, 0.0], "resolution": 8,
    }
    cfg["checks"] = ["inequality", "lemma", "convergence"]
    cfg["check_params"] = {"convergence": {"bc": "neumann", "levels": 3}}
    run(cfg)
    # levels 0-2: Dirichlet k=1 and Neumann k=4 for the inequality; the
    # lemma reuses the Dirichlet ground states and convergence (Neumann k=2)
    # reads the first two pairs of the inequality's Neumann block
    assert calls == {
        "solve_smallest": 6, "assemble_scalar": 3, "refine": 2, "triangulate": 1,
    }


def test_registry_report_names_have_recompute_rules():
    assert {c.report for c in CHECKS.values()} == set(verify._RECOMPUTE)


def test_run_csv_tables_round_trip(tmp_path):
    cfg = base_config(tmp_path)
    cfg["checks"] = ["union"]
    cfg["check_params"] = {"union": {"count": 5}}
    code = main([
        "run", write_config(tmp_path, cfg), "--csv-dir", str(tmp_path / "t"),
    ])
    assert code == 0
    lines = (tmp_path / "t" / "spectrum_union.csv").read_text().splitlines()
    assert lines[0] == "index,oneform,scalar_union"
    assert len(lines) == 6
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            assert repr(float(cell)) == cell


# ---------------------------------------------------------------------------
# single-purpose subcommands


def test_verify_subcommand_flat_square(tmp_path, capsys):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    code = main(["verify", path, "--report", str(tmp_path / "v.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "extrapolated margin" in out
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["checks"][0]["check"] == "inequality"


def test_verify_subcommand_refuses_helicoid(tmp_path, capsys):
    cfg = helicoid_config(tmp_path)
    code = main(["verify", write_config(tmp_path, cfg)])
    assert code == 1
    assert "refused" in capsys.readouterr().out


def test_spectrum_csv(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["domain"]["resolution"] = 32
    csv_path = tmp_path / "spec.csv"
    code = main([
        "spectrum", write_config(tmp_path, cfg),
        "--bc", "neumann", "-k", "4", "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,value,multiplicity,residual"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    # mu_2 of the flat pi x pi square, within one percent
    assert float(rows[1][1]) == pytest.approx(1.0, rel=0.01)
    assert int(rows[1][2]) == 2
    for r in rows:
        assert repr(float(r[1])) == r[1]
        assert repr(float(r[3])) == r[3]
        assert float(r[3]) < 1e-9


@pytest.mark.parametrize("count", ["0", "-3"])
def test_spectrum_count_below_one_names_flag(tmp_path, capsys, count):
    path = write_config(tmp_path, base_config(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        main(["spectrum", path, "--bc", "neumann", "-k", count])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--count" in err and f"must be at least 1, got {count}" in err
    # the level cache checks k against [1, dim] before its Neumann block rule
    cfg = validate_config(load_config(path))
    metric, domain, _, options = build_objects(cfg)
    cache = verify.LevelCache(domain, metric, options)
    dim = cache.pencil(0, "neumann").stiffness.shape[0]
    for k in (0, -1, dim + 1):
        with pytest.raises(EigenError, match=f"requested {k} eigenpairs"):
            cache.spectrum(0, "neumann", k)


@pytest.mark.parametrize(
    "bc,limit", [("dirichlet", 49), ("neumann", 81), ("oneform", 129)]
)
def test_spectrum_count_above_level_zero_names_flag(tmp_path, capsys, bc, limit):
    path = write_config(tmp_path, base_config(tmp_path))  # 9 x 9 vertices
    assert main(["spectrum", path, "--bc", bc, "-k", str(limit + 1)]) == 2
    err = capsys.readouterr().err
    assert f"-k/--count: requested {limit + 1} {bc}" in err
    assert f"level 0 has {limit}" in err


def test_spectrum_oneform(tmp_path, capsys):
    cfg = base_config(tmp_path)
    code = main(["spectrum", write_config(tmp_path, cfg), "--bc", "oneform"])
    assert code == 0
    assert "mult" in capsys.readouterr().out


def test_curvature_subcommand(tmp_path, capsys):
    cfg = helicoid_config(tmp_path)
    cfg["domain"]["extents"] = [-0.9, 0.9]
    cfg["metric"]["params"]["r_range"] = [-0.9, 0.9]
    code = main(["curvature-check", write_config(tmp_path, cfg)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_curvature_subcommand_samples_from_config(tmp_path):
    cfg = helicoid_config(tmp_path)
    cfg["domain"]["extents"] = [-0.9, 0.9]
    cfg["metric"]["params"]["r_range"] = [-0.9, 0.9]
    cfg["check_params"] = {"curvature": {"samples": 512}}
    path = write_config(tmp_path, cfg)
    for flags, samples in (([], 512), (["--samples", "16"], 16)):
        report_path = tmp_path / "curvature.json"
        code = main(["curvature-check", path, "--report", str(report_path)] + flags)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["check_params"]["curvature"]["samples"] == samples
        grid = report["checks"][0]["quantities"]["curvature"]["grid"]
        assert (grid["nu"], grid["nv"]) == (samples, samples)


def test_convergence_subcommand_csv(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["domain"]["resolution"] = 4
    csv_path = tmp_path / "conv.csv"
    code = main([
        "convergence", write_config(tmp_path, cfg), "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "level,h,value"
    assert len(lines) == 4
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize(
    "command,name,flags,params",
    [
        ("verify", "inequality", [], {}),
        ("curvature-check", "curvature", ["--samples", "16"], {"samples": 16}),
        ("convergence", "convergence", ["--bc", "neumann", "--levels", "3"],
         {"bc": "neumann", "levels": 3}),
    ],
)
def test_check_subcommand_report_is_run_of_that_check(
    tmp_path, command, name, flags, params
):
    # the config lists three other checks; the subcommand runs only its own
    cfg = base_config(tmp_path)
    cfg["checks"] = ["hodge-dims", "oracle", "union"]
    report_path = tmp_path / "single.json"
    main([command, write_config(tmp_path, cfg), "--report", str(report_path)] + flags)
    single = json.loads(report_path.read_text())
    assert single["config"]["checks"] == [name]

    cfg["check_params"].setdefault(name, {}).update(params)
    expected, _ = run({**cfg, "checks": [name]})

    def stripped(report):
        rest = {k: v for k, v in report.items() if k != "metadata"}
        return json.dumps(rest, indent=2, sort_keys=True)

    assert stripped(single) == stripped(expected)


@pytest.mark.parametrize(
    "command,flags,field",
    [
        ("curvature-check", ["--samples", "0"], "check_params/curvature/samples"),
        ("curvature-check", ["--samples", "1"], "check_params/curvature/samples"),
        ("verify", ["--levels", "1"], "check_params/inequality/levels"),
        ("convergence", ["--levels", "0"], "check_params/convergence/levels"),
    ],
)
def test_flag_below_schema_minimum_rejected(tmp_path, capsys, command, flags, field):
    cfg = base_config(tmp_path)
    cfg["checks"] = ["inequality", "curvature", "convergence"]
    code = main([command, write_config(tmp_path, cfg)] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "minimum" in err


def test_oracle_lines(capsys):
    assert main(["oracle", "--max-index", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("1,2,2,4,5,5,5,5")
    assert out[1].startswith("0,1,1,1,2,2,4,4,4")


def test_oracle_csv(tmp_path):
    csv_path = tmp_path / "oracle.csv"
    assert main(["oracle", "--max-index", "2", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,kind,value"
    assert "1,dirichlet,1" in lines
    assert "1,neumann,0" in lines


def test_oracle_invalid_index(capsys):
    assert main(["oracle", "--max-index", "0"]) == 2
    assert "max_index" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# loader helpers


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
