"""End-to-end tests of the command line front end."""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from surfspec import assembly, cli, eigen, verify
from surfspec.cli import (
    CHECKS,
    CONFIG_SCHEMA,
    ConfigError,
    build_objects,
    load_config,
    main,
    run,
    validate_config,
)
from surfspec.eigen import EigenError
from surfspec.expr import MAX_DEPTH
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
        ("distance_function", "1e400*x+x"),
        ("metric", {"family": "general",
                    "params": {"g11": "1", "g12": "0", "g22": "1e400"}}),
    ],
)
def test_overflowing_constant_names_field(tmp_path, capsys, field, value):
    cfg = base_config(tmp_path)
    cfg[field] = value
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "overflows" in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("distance_function", "exp(1000)*x"),
        ("metric", {"family": "general",
                    "params": {"g11": "1", "g12": "0", "g22": "exp(1000)"}}),
    ],
)
def test_overflowing_constant_call_names_field(tmp_path, capsys, field, value):
    cfg = base_config(tmp_path)
    cfg[field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "overflows" in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("distance_function", "x + 0*sin(cosh(700)^2.5)"),
        ("metric", {"family": "warped",
                    "params": {"phi": "exp(r) + 0*sin(cosh(700)^2.5)",
                               "r_range": [-1.0, 0.0]}}),
    ],
)
def test_closed_power_that_overflows_names_field(tmp_path, capsys, field, value):
    cfg = base_config(tmp_path)
    cfg[field] = value
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "overflows" in err


@pytest.mark.parametrize("shape", ["parentheses", "chain"])
@pytest.mark.parametrize("field", ["distance_function", "metric"])
def test_depth_bound_names_field(tmp_path, capsys, field, shape):
    def config(n):
        def deep(text):
            return "(" * n + text + ")" * n if shape == "parentheses" else text + "+0" * n

        cfg = base_config(tmp_path)
        cfg["checks"] = ["curvature", "inequality", "lemma"]
        if field == "distance_function":
            cfg[field] = deep("x")
        else:
            cfg[field] = {"family": "general", "params": {
                "g11": deep("1"), "g12": "0", "g22": "1", "vars": ["x", "y"]}}
        return write_config(tmp_path, cfg, f"depth{n}.json")

    # at the bound the checks run, and exit as the shallow spelling does
    assert main(["run", config(MAX_DEPTH)]) == main(["run", config(0)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["run", config(MAX_DEPTH + 1)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and f"deeper than {MAX_DEPTH}" in err


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


@pytest.mark.parametrize(
    "domain,message",
    [
        ({"shape": "rectangle", "extents": [1.0, 0.0, 0.0, 1.0]}, "degenerate"),
        ({"shape": "annulus", "extents": [0.0, 0.0, 2.0, 1.0]}, "radii"),
    ],
)
def test_degenerate_domain_names_field(tmp_path, capsys, domain, message):
    # refused when the domain is built, also by a check that meshes nothing
    cfg = base_config(tmp_path)
    cfg["domain"] = {**domain, "resolution": 4}
    cfg["checks"] = ["curvature"]
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config field 'domain/extents'" in err and message in err


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("solver", {"tolerance": math.inf}, "solver/tolerance"),
        ("domain", {"shape": "rectangle", "extents": [0.0, math.inf, 0.0, 1.0],
                    "resolution": 4}, "domain/extents/1"),
        ("domain", {"shape": "rectangle", "extents": [0.0, 1.0, math.nan, 1.0],
                    "resolution": 4}, "domain/extents/2"),
    ],
)
def test_non_finite_number_names_field(tmp_path, capsys, key, value, field):
    # json.dumps writes Infinity and NaN, which Python's json reads back
    cfg = base_config(tmp_path)
    cfg[key] = value
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "not a finite number" in err


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("solver", {"tolerance": 10**400}, "solver/tolerance"),
        ("domain", {"shape": "rectangle", "extents": [0, 10**400, 0, 1],
                    "resolution": 4}, "domain/extents/1"),
    ],
)
def test_integer_beyond_float_range_names_field(tmp_path, capsys, key, value, field):
    cfg = base_config(tmp_path)
    cfg[key] = value
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': an integer of 401 digits" in err


@pytest.mark.parametrize(
    "extents,resolution,field",
    [
        ([0.0, 1e300, 0.0, 1.0], 4, "domain/extents"),
        ([0.0, math.pi, 0.0, math.pi], 100_000, "domain/resolution"),
    ],
)
def test_oversized_mesh_names_field(tmp_path, capsys, extents, resolution, field):
    # refused by the predicted vertex count; no array is allocated
    cfg = base_config(tmp_path)
    cfg["domain"] = {"shape": "rectangle", "extents": extents,
                     "resolution": resolution}
    code = main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and "vertices" in err


def test_overflowing_extents_name_field(tmp_path, capsys):
    # a square mesh of few vertices, whose squared lengths would overflow
    cfg = base_config(tmp_path)
    cfg["domain"]["extents"] = [0.0, 1e300, 0.0, 1e300]
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'domain/extents'" in err and "magnitude limit" in err


@pytest.mark.parametrize("checks", [["curvature"], ["lemma"]])
def test_distance_function_domain_error_names_field(tmp_path, capsys, checks):
    # f = |x| has no derivative at x = 0, on the boundary of the unit square
    cfg = base_config(tmp_path)
    cfg["distance_function"] = "sqrt(x^2)"
    cfg["domain"]["extents"] = [0.0, 1.0, 0.0, 1.0]
    cfg["checks"] = checks
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'distance_function': f = sqrt(x^2)" in err
    assert "division by zero" in err


def test_metric_domain_error_is_not_attributed_to_f(tmp_path, capsys):
    # the metric's derivatives fail at x = 0, a sample point; f = x is defined
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "general",
        "params": {"g11": "1", "g12": "0", "g22": "1 + sqrt(x^2)",
                   "vars": ["x", "y"], "validity": [-1.0, 1.0, 0.0, 1.0]},
    }
    cfg["domain"]["extents"] = [-1.0, 1.0, 0.0, 1.0]
    cfg["checks"] = ["curvature"]
    cfg["check_params"] = {"curvature": {"samples": 65}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'metric': division by zero" in err


def test_metric_not_positive_at_a_quadrature_point_names_field_and_point(
    tmp_path, capsys
):
    # g22 < 0 only on 0.30 < x < 0.31: the 33 x 33 samples taken when the
    # metric is built miss it (their smallest g22 is 3.2e-5), the midpoint
    # rule points at x = 0.3046875 of the resolution-64 mesh do not; the
    # first of them is the midpoint of a bottom edge
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "general",
        "params": {"g11": "1", "g12": "0", "g22": "(x-0.30)*(x-0.31)+1e-6",
                   "vars": ["x", "y"], "validity": [0.0, 1.0, 0.0, 1.0]},
    }
    cfg["domain"] = {
        "shape": "rectangle", "extents": [0.0, 1.0, 0.0, 1.0], "resolution": 64,
    }
    cfg["checks"] = ["union"]
    cfg["check_params"] = {"union": {"count": 2}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: config field 'metric': metric not positive definite at the "
        "quadrature point (0.304688, 0)\n"
    )


@pytest.mark.parametrize(
    "where,value",
    [
        (("check_params", "inequality", "levels"), 3.0),
        (("check_params", "lemma", "level"), 1e300),
        (("check_params", "union", "level"), 1e300),
        (("check_params", "union", "count"), 1e300),
        (("domain", "resolution"), 8.0),
    ],
)
def test_integral_float_refused_for_integer_field(tmp_path, capsys, where, value):
    cfg = base_config(tmp_path)
    node = cfg
    for key in where[:-1]:
        node = node.setdefault(key, {})
    node[where[-1]] = value
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{'/'.join(where)}'" in err
    assert "is not of type 'integer'" in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("a refused size was allocated")


@pytest.mark.parametrize(
    "check,param,value",
    [
        ("inequality", "levels", 20),
        ("convergence", "levels", 20),
        ("lemma", "level", 12),
        ("union", "level", 10**300),
        ("curvature", "samples", 4097),
        ("oracle", "max_index", 500),
    ],
)
def test_oversized_check_parameter_refused_before_allocating(
    tmp_path, capsys, monkeypatch, check, param, value
):
    # every builder of the sizes at stake fails if called: refinement, the
    # level-0 mesh, the sample grid and the oracle's sorted lists
    monkeypatch.setattr(verify, "refine", _must_not_run)
    monkeypatch.setattr(verify, "triangulate", _must_not_run)
    monkeypatch.setattr(verify.GridSpec, "points", _must_not_run)
    monkeypatch.setattr(verify, "sorted", _must_not_run, raising=False)
    cfg = base_config(tmp_path)
    cfg["checks"] = [check]
    cfg["check_params"] = {check: {param: value}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field 'check_params/{check}/{param}'" in err
    assert "limit" in err


def test_union_count_above_the_dirichlet_dimension_names_field(tmp_path, capsys):
    cfg = base_config(tmp_path)  # 7 x 7 interior vertices at level 0
    cfg["checks"] = ["union"]
    cfg["check_params"] = {"union": {"count": 50}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'check_params/union/count'" in err and "49" in err


def test_oracle_subcommand_refuses_oversized_index(capsys, monkeypatch):
    monkeypatch.setattr(verify, "sorted", _must_not_run, raising=False)
    assert main(["oracle", "--max-index", "500"]) == 2
    assert "--max-index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params,message",
    [
        ({"phi": [1], "r_range": [-1.0, 0.0]}, "parameter 'phi'"),
        ({"phi": "exp(r)", "r_range": [0.0, -1.0]}, "parameter 'r_range'"),
        ({"phi": "exp(r)", "r_range": [-1.0, "0"]}, "parameter 'r_range'"),
        ({"phi": "exp(r)", "r_range": [-1.0, 0.0], "theta_period": "6"},
         "parameter 'theta_period'"),
        ({"phi": "exp(r)", "r_range": [-1.0, 0.0], "theta_period": 1e300},
         "parameter 'theta_period'"),
        ({"phi": "c*exp(r)", "r_range": [-1.0, 0.0], "constants": [1]},
         "parameter 'constants'"),
        ({"phi": "c*exp(r)", "r_range": [-1.0, 0.0], "constants": {"c": True}},
         "constant 'c'"),
    ],
)
def test_bad_warped_parameter_names_it(tmp_path, capsys, params, message):
    cfg = helicoid_config(tmp_path)
    cfg["metric"] = {"family": "warped", "params": params}
    cfg["domain"]["extents"] = [-1.0, 0.0]
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'metric'" in err and message in err


@pytest.mark.parametrize(
    "params,message",
    [
        ({"g11": {}}, "parameter 'g11'"),
        ({"vars": "xy"}, "parameter 'vars'"),
        ({"vars": ["x", "x"]}, "parameter 'vars'"),
        ({"validity": [0.0, 1.0, 1.0]}, "parameter 'validity'"),
        ({"validity": [0.0, 1.0, 2.0, 1.0]}, "parameter 'validity'"),
        ({"g11": "1e300"}, "not finite"),  # its square, det^2, overflows
        ({"constants": {"a": 1e300}}, "power overflows"),
        ({"constants": {"a": 0.5, "x": 2.0}}, "named like chart variables"),
    ],
)
def test_bad_general_parameter_names_it(tmp_path, capsys, params, message):
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "general",
        "params": {"g11": "1", "g12": "0", "g22": "1+a^2", "constants": {"a": 0.5},
                   "vars": ["x", "y"], "validity": [-10.0, 10.0, -10.0, 10.0],
                   **params},
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'metric'" in err and message in err


def test_domain_outside_validity_names_extents(tmp_path, capsys):
    # y = 0 is outside the half-plane's validity bound y = 1e-6, even though
    # that bound is within 1e-12 of the largest bound's magnitude 1e6
    cfg = base_config(tmp_path)
    cfg["metric"] = {"family": "hyperbolic_half_plane"}
    cfg["distance_function"] = "-log(y)"
    cfg["domain"]["extents"] = [0.0, 1.0, 0.0, 1.0]
    cfg["checks"] = ["hodge-dims"]
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'domain/extents'" in err and "validity region" in err


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


def test_config_schema_is_a_valid_schema():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def _subschemas(schema):
    yield schema
    for child in schema.get("properties", {}).values():
        yield from _subschemas(child)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_config_schema_uses_only_implemented_keywords():
    # the walker reads every keyword of a schema whatever the value, and
    # refuses one it does not implement rather than skip it
    for schema in _subschemas(CONFIG_SCHEMA):
        list(cli._schema_errors(None, schema))
    for schema in ({"maximum": 3}, {"additionalProperties": {}}):
        with pytest.raises(ValueError, match="not implemented"):
            list(cli._schema_errors(5, schema))


def test_resolved_check_params_defaults(tmp_path):
    # the defaults are the keyword defaults of the verify functions
    cfg = base_config(tmp_path)
    del cfg["check_params"]
    assert validate_config(cfg)["check_params"] == {
        "inequality": {"levels": 3},
        "lemma": {"level": 0},
        "union": {"level": 0, "count": 10},
        "hodge-dims": {},
        "curvature": {"samples": 64},
        "convergence": {"bc": "dirichlet", "levels": 3},
        "oracle": {"max_index": 10},
    }


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


def test_metadata_records_each_solve_the_run_makes(tmp_path, monkeypatch):
    # a 3-level inequality solves lambda_1 and the Neumann block of 4 at
    # each level: six solves, dense at level 0 and nested above it
    cfg = base_config(tmp_path)
    cfg["metric"] = {"family": "hyperbolic_half_plane"}
    cfg["distance_function"] = "-log(y)"
    cfg["domain"] = {
        "shape": "rectangle", "extents": [0.0, 1.0, 1.0, math.e], "resolution": 8,
    }
    cfg["check_params"] = {"inequality": {"levels": 3}}
    report, code = run(cfg)
    assert code == 0
    solves = report["metadata"]["solves"]
    assert [(s["level"], s["bc"], s["k"]) for s in solves] == [
        (level, bc, k) for level in range(3)
        for bc, k in (("dirichlet", 1), ("neumann", verify.NEUMANN_BLOCK))
    ]
    for s in solves:
        assert set(s) == {
            "level", "bc", "k", "dimension", "method", "iterations",
            "seconds", "worst_residual",
        }
        nested = s["level"] > 0
        assert s["method"] == ("lobpcg-multigrid" if nested else "dense")
        if nested:
            assert isinstance(s["iterations"], tuple)
            assert len(s["iterations"]) == s["k"]
        else:
            assert s["iterations"] is None
        assert s["seconds"] > 0
        assert 0 <= s["worst_residual"] <= 1e-9
    dims = [s["dimension"] for s in solves]
    assert dims[0] < dims[2] < dims[4] and dims[1] < dims[3] < dims[5]

    # a cache that records nothing gives the same report outside metadata
    class Unrecorded(verify.LevelCache):
        def __init__(self, *args):
            super().__init__(*args)
            self.solves = type("Discard", (list,), {"append": lambda *_: None})()

    monkeypatch.setattr(cli, "LevelCache", Unrecorded)
    bare, _ = run(cfg)
    assert bare["metadata"]["solves"] == []

    def stripped(r):
        return json.dumps({k: r[k] for k in r if k != "metadata"}, sort_keys=True)

    assert stripped(bare) == stripped(report)


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
    # both checks ask for the Neumann block: convergence reads the
    # inequality's solve when they share a cache and solves the block
    # itself when alone, the same numbers
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
    # lemma reuses the Dirichlet ground states and convergence reads mu_2
    # from the inequality's Neumann k=4 solves
    assert calls == {
        "solve_smallest": 6, "assemble_scalar": 3, "refine": 2, "triangulate": 1,
    }


def test_every_registered_check_recomputes_its_flag(tmp_path):
    cfg = base_config(tmp_path)
    cfg["checks"] = list(CHECKS)
    cfg["check_params"]["union"] = {"count": 4}
    report, _ = run(cfg)
    names = [check["check"] for check in report["checks"]]
    assert set(names) == set(verify._RECOMPUTE) and len(names) == len(CHECKS)
    for check in report["checks"]:
        assert recompute_pass(check) == check["passed"]


def test_perfbench_tracer_hooks_resolve(tmp_path, monkeypatch):
    # the benchmark's tracer wraps functions at their names in cli, verify,
    # assembly and eigen; installing it looks every name up, and a run must
    # reach the checks through the wrapped names
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    import surfspec

    original = cli.verify_inequality
    spans = tracer.Tracer("t")
    uninstall = tracer.install(spans, surfspec)
    try:
        cfg = base_config(tmp_path)
        cfg["checks"] = ["hodge-dims", "oracle", "union", "lemma"]
        run(cfg)
    finally:
        uninstall()
    assert cli.verify_inequality is original
    names = {span.name for span in spans.spans}
    assert {
        "verify.hodge_dims", "verify.oracle", "verify.union", "verify.lemma",
        "mesh.triangulate", "assembly.scalar", "assembly.oneform",
        "assembly.trial_quadrature", "eigen.oneform",
    } <= names


def test_perfbench_reference_recorder_calls_every_check(tmp_path, monkeypatch):
    # perfbench/record_reference.py calls each check's verify function with
    # the check_params of a validated config; those signatures must keep
    # accepting its calls
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    recorder = importlib.import_module("record_reference")
    cfg = base_config(tmp_path)
    cfg["domain"]["resolution"] = 4
    cfg["checks"] = list(CHECKS)
    cfg["check_params"] = {"union": {"count": 4}}
    cfg = validate_config(cfg)
    objects = build_objects(cfg)
    assert len(cfg["checks"]) == 7
    for check in cfg["checks"]:
        report = recorder._call(check, cfg["check_params"][check], *objects)
        assert report.check == recorder.REPORT_NAME.get(check, check)


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


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "oneform"])
def test_count_beyond_the_solve_limit_names_flag_and_field(
    tmp_path, capsys, monkeypatch, bc
):
    # 81 vertices and 49 interior ones at level 0, both solved by ARPACK
    # once DENSE_MAX_DIM is below them; ARPACK holds max(2k + 1, 20)
    # vectors of its pencil.  neumann solves k pairs on the vertices,
    # 81 x 23 = 1,863 floats for k = 11 and 81 x 25 = 2,025 for k = 12;
    # dirichlet k pairs on the interior, 49 x 39 = 1,911 for k = 19 and
    # 49 x 41 = 2,009 for k = 20; oneform k + 1 pairs on the vertices and k
    # on the interior, 81 x 25 for k = 11, and so does the union's 1-form
    # side at count 11
    largest = {"neumann": 11, "dirichlet": 19, "oneform": 10}[bc]
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    monkeypatch.setattr(eigen, "MAX_SOLVE_FLOATS", 2000)
    cfg = base_config(tmp_path)
    cfg["checks"] = ["union"]
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", path, "--bc", bc, "-k", str(largest)]) == 0
    cfg["check_params"] = {"union": {"count": 10}}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    # refused before any solve
    monkeypatch.setattr(eigen, "solve_smallest", _must_not_run)
    monkeypatch.setattr(verify, "solve_smallest", _must_not_run)
    monkeypatch.setattr(verify, "solve_oneform", _must_not_run)
    count = largest + 1
    assert main(["spectrum", path, "--bc", bc, "-k", str(count)]) == 2
    err = capsys.readouterr().err
    assert f"-k/--count: {count} {bc} eigenpairs of 81 vertices" in err
    assert "above the limit 2e+03 floats" in err
    cfg["check_params"] = {"union": {"count": 11}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'check_params/union/count': 11 eigenvalues" in err


def test_dense_solve_is_charged_every_copy_of_its_pencil(tmp_path, capsys, monkeypatch):
    # at 10,000 floats ARPACK's bound would pass every one of these (81 x 81
    # = 6,561 floats, 81 x 23 = 1,863 for 11 pairs), but a pencil of at most
    # DENSE_MAX_DIM unknowns, or a solve of every pair, is dense and holds
    # six dim x dim arrays: 39,366 floats on the 81 vertices, 14,406 on the
    # 49 interior unknowns of a Dirichlet request
    monkeypatch.setattr(eigen, "MAX_SOLVE_FLOATS", 10_000)
    cfg = base_config(tmp_path)
    cfg["checks"] = ["union"]
    path = write_config(tmp_path, cfg)
    monkeypatch.setattr(eigen, "solve_smallest", _must_not_run)
    monkeypatch.setattr(verify, "solve_smallest", _must_not_run)
    for bc, count in (
        ("neumann", 81), ("dirichlet", 49), ("oneform", 49), ("neumann", 11),
    ):
        assert main(["spectrum", path, "--bc", bc, "-k", str(count)]) == 2
        err = capsys.readouterr().err
        assert f"-k/--count: {count} {bc} eigenpairs of 81 vertices" in err
        # the limit in force, not the one the module was loaded with
        assert "above the limit 1e+04 floats" in err
    cfg["check_params"] = {"union": {"count": 49}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'check_params/union/count': 49 eigenvalues" in err
    assert "above the limit 1e+04 floats" in err


def test_nested_union_solve_is_charged_lobpcg_blocks(tmp_path, capsys, monkeypatch):
    # a flat square of resolution 16 has 289 vertices and 225 interior ones
    # at level 0, and 1,089 and 961 at level 1; with DENSE_MAX_DIM below
    # them, none is solved densely.  ARPACK's charge admits 10 eigenvalues
    # at level 1 at 50,000 floats (1,089 x 23 and 961 x 21 floats), but
    # above level 0 the scalar side runs LOBPCG, which holds LOBPCG_BLOCKS
    # dim x k floats:
    # 6 x 1,089 x 11 = 71,874 for the Neumann block of count 10, and
    # 6 x 1,089 x 5 = 32,670 for that of count 4
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    monkeypatch.setattr(eigen, "MAX_SOLVE_FLOATS", 50_000)
    assert eigen.solve_plan(1089, 11)[1] <= 50_000
    assert eigen.solve_plan(961, 10)[1] <= 50_000
    assert eigen.solve_plan(1089, 11, nested=True)[1] > 50_000
    cfg = base_config(tmp_path)
    cfg["domain"]["resolution"] = 16
    cfg["checks"] = ["union"]
    # level 0 keeps ARPACK's charge
    cfg["check_params"] = {"union": {"count": 10, "level": 0}}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    cfg["check_params"] = {"union": {"count": 4, "level": 1}}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify, "solve_smallest", _must_not_run)
    monkeypatch.setattr(verify, "solve_oneform", _must_not_run)
    cfg["check_params"] = {"union": {"count": 10, "level": 1}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert (
        "config field 'check_params/union/count': 10 eigenvalues of 1089 "
        "vertices at level 1 need solver arrays above the limit 5e+04 floats"
    ) in err


def cusp_band_config(tmp_path, check, params):
    cfg = base_config(tmp_path)
    cfg["metric"] = {
        "family": "warped",
        "params": {"phi": "exp(r)", "r_range": [-1.0, 0.0]},
    }
    cfg["distance_function"] = "r"
    cfg["domain"] = {"shape": "periodic_band", "extents": [-1.0, 0.0], "resolution": 8}
    cfg["checks"] = [check]
    cfg["check_params"] = {check: params}
    return cfg


@pytest.mark.parametrize("check,params,solve", [
    ("inequality", {"levels": 3}, "level-1 neumann"),
    ("lemma", {"level": 1}, "level-2 dirichlet"),
    ("convergence", {"bc": "neumann", "levels": 3}, "level-1 neumann"),
    ("union", {"level": 1}, "level-1 neumann"),
])
def test_unconverged_spectrum_is_refused(
    tmp_path, capsys, monkeypatch, check, params, solve
):
    # levels 1-2 of a resolution-8 cusp band are nested LOBPCG solves
    # (level 1's Dirichlet pencil of 240 unknowns is dense); two iterations
    # leave their residuals far above the tolerance, and no check may report
    # such a spectrum
    path = write_config(tmp_path, cusp_band_config(tmp_path, check, params))
    assert main(["run", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(eigen, "LOBPCG_MAXITER", 2)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert f"error: the {solve} eigensolve did not converge: worst residual" in err
    assert "tolerance 1e-09" in err


def test_nested_solve_breakdown_exits_2(tmp_path, capsys, monkeypatch):
    # a V-cycle that returns zeros leaves the level-1 Neumann solve no search
    # direction; pair 1, the constant, is converged at its start
    path = write_config(
        tmp_path, cusp_band_config(tmp_path, "inequality", {"levels": 2})
    )
    monkeypatch.setattr(
        verify.LevelCache, "_vcycle", lambda self, level, bc: lambda r: 0.0 * r
    )
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert (
        "error: LOBPCG broke down at pair 2 of 4 eigenpairs of dimension 272: "
        "a search direction has no M-norm left"
    ) in err


def test_spectrum_oneform(tmp_path, capsys, monkeypatch):
    # P1 is assembled once, by the level cache, whose operators the 1-form
    # operators take
    calls = []
    for module in (verify, assembly):

        def counted(*args, _name=module.__name__, _assemble=module.assemble_scalar,
                    **kwargs):
            calls.append(_name)
            return _assemble(*args, **kwargs)

        monkeypatch.setattr(module, "assemble_scalar", counted)
    cfg = base_config(tmp_path)
    code = main(["spectrum", write_config(tmp_path, cfg), "--bc", "oneform"])
    assert code == 0
    assert "mult" in capsys.readouterr().out
    assert calls == ["surfspec.verify"]


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


def test_verify_subcommand_csv_is_run_table(tmp_path):
    # verify --csv writes the inequality_levels.csv table of run --csv-dir
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    csv_path = tmp_path / "verify.csv"
    assert main(["verify", path, "--csv", str(csv_path)]) == 0
    assert main(["run", path, "--csv-dir", str(tmp_path / "t")]) == 0
    text = csv_path.read_text()
    assert text == (tmp_path / "t" / "inequality_levels.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "level,n_faces,h,lambda1,mu_target,margin,tol_h"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    for line in lines[1:]:
        for cell in line.split(",")[2:]:
            assert repr(float(cell)) == cell


def test_verify_subcommand_csv_skips_a_refused_check(tmp_path, capsys):
    # a refused inequality has no levels, so no table is written
    cfg = helicoid_config(tmp_path)
    cfg["checks"] = ["inequality"]
    csv_path = tmp_path / "verify.csv"
    assert main(["verify", write_config(tmp_path, cfg), "--csv", str(csv_path)]) == 1
    assert "refused: curvature condition fails" in capsys.readouterr().out
    assert not csv_path.exists()


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


def test_check_subcommand_flags():
    sub = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )

    def flags(command):
        return {
            action.option_strings[-1]: (
                action.type, action.choices and tuple(action.choices)
            )
            for action in sub.choices[command]._actions
            if action.option_strings and action.dest != "help"
        }

    # --csv exactly for a check with a table
    report, csv = {"--report": (None, None)}, {"--csv": (None, None)}
    assert flags("verify") == {"--levels": (int, None), **csv, **report}
    assert flags("curvature-check") == {"--samples": (int, None), **report}
    assert flags("convergence") == {
        "--bc": (None, ("dirichlet", "neumann")),
        "--levels": (int, None),
        **csv,
        **report,
    }


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
    for index in ("0", "-3"):
        assert main(["oracle", "--max-index", index]) == 2
        assert "--max-index: max_index must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# loader helpers


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    # Python's json refuses an integer literal of more than 4300 digits
    path.write_text('{"spec_version": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


# ---------------------------------------------------------------------------
# BLAS thread defaults (surfspec/__init__.py), in fresh interpreters

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**threads):
    """This environment without the thread variables, plus ``threads``,
    with the package's source directory on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **threads}


def test_reports_identical_with_threads_unset_and_one(tmp_path):
    # level 1 has 493 Neumann and 405 Dirichlet unknowns, above the dense
    # cap, so its solves take the nested LOBPCG path
    cfg = {
        "spec_version": 1,
        "metric": {"family": "hyperbolic_half_plane"},
        "distance_function": "-log(y)",
        "domain": {"shape": "rectangle", "extents": [0.0, 1.0, 1.0, math.e],
                   "resolution": 8},
        "checks": ["inequality"],
        "check_params": {"inequality": {"levels": 2}},
        "output": {"report": str(tmp_path / "report.json")},
    }
    path = write_config(tmp_path, cfg)
    payloads = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        subprocess.run(
            [sys.executable, "-m", "surfspec.cli", "run", path],
            env=child_env(**threads), check=True, capture_output=True,
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report.pop("metadata")["blas_threads"] == {
            **dict.fromkeys(THREAD_VARS, "1"), "numpy_imported_first": False,
        }
        assert report["checks"][0]["passed"]
        payloads.append(json.dumps(report, indent=2, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_import_keeps_a_thread_count_the_user_set():
    # the environment after import, then what reports record
    code = (
        "import os, surfspec; "
        f"print(*(os.environ[name] for name in {THREAD_VARS!r}), "
        f"*(surfspec.THREAD_SETTINGS[name] for name in {THREAD_VARS!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(OPENBLAS_NUM_THREADS="2"), check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.split() == ["2", "1", "1"] * 2


def test_import_leaves_scipy_io_out():
    # scipy.io adds 38 modules and about 0.04 s to every run's import, and
    # nothing here reads it
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, surfspec.cli; print('scipy.io' in sys.modules)"],
        env=child_env(), check=True, capture_output=True, text=True,
    ).stdout
    assert out.split() == ["False"]


def test_import_leaves_jsonschema_out():
    # configs are checked by cli's own schema walker; jsonschema and the
    # packages it loads added 53 modules and about 0.07 s to every import
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, surfspec.cli; print(sorted({name.split('.')[0] "
         "for name in sys.modules} & {'jsonschema', 'referencing'}))"],
        env=child_env(), check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
