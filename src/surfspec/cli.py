"""Command line front end: JSON run configs in, JSON/CSV artifacts out.

A run config (``spec_version`` 1) names a metric family with its
parameters, a chart domain with its resolution, an optional distance
function expression, solver knobs, and a nonempty list of checks to
execute.  ``run`` executes every listed check in order and writes one
JSON report; it is the only code that executes checks.  The check
subcommands (``verify``, ``curvature-check``, ``convergence``) are
``run`` narrowed to one check: they set the config's ``checks`` to that
check, write their flags into its ``check_params``, call ``run`` and
print the check's lines; their ``--report`` is ``run``'s report.
``spectrum`` and ``oracle`` dump tables for quick inspection.

Exit codes: 0 when every executed check passes, 1 when any check
fails, 2 for invalid input (unreadable file, schema violation,
unparseable expression, metric or domain construction failure).
Invalid-input messages name the offending config field.

Reports embed the fully resolved config, and every timestamp or wall
time lives under the ``metadata`` key, so two runs with the same
config and seed produce byte-identical files once that key is
dropped.  CSV floats are written with ``repr`` and therefore
round-trip through ``float`` exactly.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import jsonschema

from .assembly import AssemblyError, assemble_oneform
from .eigen import EigenError, SolverOptions, cluster_multiplicities, solve_oneform
from .expr import ExprError
from .geometry import (
    ChartMetric,
    DistanceFunction,
    GeometryError,
    builtin_metric,
)
from .mesh import DomainSpec, MeshError
from .mesh import triangulate  # noqa: F401  (perfbench/tracer.py wraps cli.triangulate)
from .verify import (
    LevelCache,
    VerificationReport,
    VerifyError,
    convergence_study,
    curvature_check,
    cylinder_oracle,
    hodge_dimension_check,
    lemma_check,
    oracle_check,
    spectrum_union_check,
    verify_inequality,
)

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "load_config",
    "validate_config",
    "build_objects",
    "run",
    "write_report",
    "main",
]

SPEC_VERSION = 1


# ---------------------------------------------------------------------------
# check registry


def _inequality_table(q):
    rows = [
        (
            lv["level"], lv["n_faces"], float(lv["h"]), float(lv["lambda1"]),
            float(lv["mu_target"]), float(lv["margin"]), float(lv["tol_h"]),
        )
        for lv in q["levels"]
    ]
    header = ("level", "n_faces", "h", "lambda1", "mu_target", "margin", "tol_h")
    return "inequality_levels.csv", header, rows


def _union_table(q):
    pairs = zip(q["oneform_positive"], q["scalar_union"])
    rows = [(i + 1, float(a), float(b)) for i, (a, b) in enumerate(pairs)]
    return "spectrum_union.csv", ("index", "oneform", "scalar_union"), rows


def _convergence_table(q):
    rows = [(lv["level"], float(lv["h"]), float(lv["value"])) for lv in q["table"]]
    return f"convergence_{q['bc']}.csv", ("level", "h", "value"), rows


def _oracle_table(q):
    rows = [
        (i + 1, kind, v)
        for kind in ("dirichlet", "neumann")
        for i, v in enumerate(q[kind])
    ]
    return "oracle.csv", ("index", "kind", "value"), rows


def _lemma_summary(q):
    c = q["coarse"]
    return (
        f"excess {c['excess_nu']:.3g}/{c['excess_star_nu']:.3g}, "
        f"cross ratio {c['cross_ratio']:.3g}"
    )


def _curvature_summary(q):
    c = q["curvature"]
    return (
        f"min margin {c['min_margin']:.6g} at "
        f"({c['min_point'][0]:.6g}, {c['min_point'][1]:.6g})"
    )


def _convergence_summary(q):
    order = q["fitted_order"]
    if order is None:
        return "non-monotone sequence"
    return f"order {order:.3f}, limit {q['extrapolated']:.8g}"


def _inequality_lines(q):
    if q.get("refused"):
        return [f"refused: {q['reason']}"]
    lines = [
        f"level {lv['level']}: lambda1 {lv['lambda1']:.8g}, "
        f"mu_{q['mu_order']} {lv['mu_target']:.8g}, "
        f"margin {lv['margin']:.6g} (tol {lv['tol_h']:.3g})"
        for lv in q["levels"]
    ]
    lines.append(f"extrapolated margin {q['extrapolated_margin']:.8g}")
    if q.get("strictness_note"):
        lines.append(q["strictness_note"])
    return lines


def _convergence_lines(q):
    return [
        f"level {lv['level']}: h {lv['h']:.6g}, value {lv['value']!r}"
        for lv in q["table"]
    ]


@dataclass(frozen=True)
class _Check:
    """Everything the front end knows about one check."""

    name: str  # config name: ``checks`` entries and ``check_params`` keys
    report: str  # the ``check`` field of its report
    params: Dict[str, Tuple[dict, object]]  # parameter -> (schema, default)
    # (params, distance, cache) -> report; looks the check up at call time
    run: Callable[..., VerificationReport]
    summary: Callable[[dict], str]  # quantities -> summary detail
    needs_distance: bool = False
    # quantities -> (file name, header, rows) of its CSV table
    table: Optional[Callable[[dict], tuple]] = None
    # quantities -> the lines its subcommand prints above the summary line
    lines: Optional[Callable[[dict], List[str]]] = None

    def defaults(self) -> dict:
        return {key: default for key, (_, default) in self.params.items()}


_INT = {"type": "integer"}

CHECKS: Dict[str, _Check] = {c.name: c for c in (
    _Check(
        "inequality", "inequality",
        {"levels": ({**_INT, "minimum": 2}, 3)},
        lambda p, f, c: verify_inequality(
            c.domain, c.metric, f, levels=p["levels"], cache=c
        ),
        lambda q: f"extrapolated margin {q['extrapolated_margin']:.6g}",
        needs_distance=True, table=_inequality_table, lines=_inequality_lines,
    ),
    _Check(
        "lemma", "lemma",
        {"level": ({**_INT, "minimum": 0}, 0)},
        lambda p, f, c: lemma_check(
            c.domain, c.metric, f, level=p["level"], cache=c
        ),
        _lemma_summary, needs_distance=True,
    ),
    _Check(
        "union", "spectrum-union",
        {"level": ({**_INT, "minimum": 0}, 0),
         "count": ({**_INT, "minimum": 1}, 10)},
        lambda p, f, c: spectrum_union_check(
            c.domain, c.metric, level=p["level"], count=p["count"], cache=c
        ),
        lambda q: (
            f"max rel diff {q['max_rel_difference']:.3g}, "
            f"zero modes {q['zero_modes']}/{q['betti1']}"
        ),
        table=_union_table,
    ),
    _Check(
        "hodge-dims", "hodge-dimension", {},
        lambda p, f, c: hodge_dimension_check(c.mesh(0)),
        lambda q: (
            f"rank d0 {q['rank_d0']} + rank d1 {q['rank_d1']} + "
            f"b1 {q['betti1']} == E {q['n_edges']}"
        ),
    ),
    _Check(
        "curvature", "curvature",
        {"samples": ({**_INT, "minimum": 2}, 64)},
        lambda p, f, c: curvature_check(
            c.domain, c.metric, f, samples=p["samples"]
        ),
        _curvature_summary, needs_distance=True,
    ),
    _Check(
        "convergence", "convergence",
        {"bc": ({"enum": ["dirichlet", "neumann"]}, "dirichlet"),
         "levels": ({**_INT, "minimum": 3}, 3)},
        lambda p, f, c: convergence_study(
            c.domain, c.metric, bc=p["bc"], levels=p["levels"], cache=c
        ),
        _convergence_summary, table=_convergence_table, lines=_convergence_lines,
    ),
    _Check(
        "oracle", "oracle",
        {"max_index": ({**_INT, "minimum": 1}, 10)},
        lambda p, f, c: oracle_check(p["max_index"]),
        lambda q: f"{q['compared_pairs']} interlacing pairs checked",
        table=_oracle_table,
    ),
)}
_BY_REPORT = {c.report: c for c in CHECKS.values()}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["spec_version", "metric", "domain", "checks"],
    "additionalProperties": False,
    "properties": {
        "spec_version": {"const": SPEC_VERSION},
        "metric": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {
                    "enum": [
                        "euclidean",
                        "hyperbolic_half_plane",
                        "warped",
                        "twisted",
                        "general",
                    ]
                },
                "params": {"type": "object"},
            },
        },
        "distance_function": {
            "type": ["string", "null"], "minLength": 1
        },
        "domain": {
            "type": "object",
            "required": ["shape", "extents", "resolution"],
            "additionalProperties": False,
            "properties": {
                "shape": {
                    "enum": ["rectangle", "periodic_band", "disk", "annulus"]
                },
                "extents": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 4,
                },
                "resolution": {"type": "integer", "minimum": 2},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "quadrature": {"enum": ["midpoint", "degree5"]},
            },
        },
        "checks": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"enum": list(CHECKS)},
        },
        "check_params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                c.name: {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {k: sch for k, (sch, _) in c.params.items()},
                }
                for c in CHECKS.values()
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "report": {"type": "string", "minLength": 1},
                "csv_dir": {"type": ["string", "null"], "minLength": 1},
            },
        },
    },
}

# solver config key -> SolverOptions field, whose default is the config default
_SOLVER_FIELDS = {
    "tolerance": "tol",
    "seed": "seed",
    "quadrature": "quad_rule",
}
_SOLVER_DEFAULTS = {
    key: getattr(SolverOptions(), name) for key, name in _SOLVER_FIELDS.items()
}

class ConfigError(ValueError):
    """Invalid run config; the message names the offending field."""


_INPUT_ERRORS = (
    ConfigError,
    ExprError,
    GeometryError,
    MeshError,
    AssemblyError,
    EigenError,
    VerifyError,
    OSError,
)


# ---------------------------------------------------------------------------
# config loading and resolution


def load_config(path) -> dict:
    """Read a JSON config file; raises :class:`ConfigError` on bad files."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return raw


def validate_config(raw: dict) -> dict:
    """Schema-validate a raw config and fill in every default.

    Returns the fully resolved config that reports embed.  Error
    messages name the offending field as a slash-joined path.
    """
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "config root"
        raise ConfigError(f"config field '{where}': {exc.message}") from None

    cfg = copy.deepcopy(raw)
    cfg["metric"].setdefault("params", {})
    cfg.setdefault("distance_function", None)
    solver = dict(_SOLVER_DEFAULTS)
    solver.update(cfg.get("solver", {}))
    cfg["solver"] = solver
    cfg["check_params"] = {
        name: {**check.defaults(), **cfg.get("check_params", {}).get(name, {})}
        for name, check in CHECKS.items()
    }
    cfg.setdefault("output", {})
    cfg["output"].setdefault("report", "report.json")
    cfg["output"].setdefault("csv_dir", None)

    missing = [
        name for name in cfg["checks"]
        if CHECKS[name].needs_distance and not cfg["distance_function"]
    ]
    if missing:
        raise ConfigError(
            "config field 'distance_function': required by checks "
            f"{missing}"
        )
    return cfg


_EXTENT_COUNT = {"rectangle": 4, "periodic_band": 2, "disk": 3, "annulus": 4}


def build_objects(
    cfg: dict,
) -> Tuple[ChartMetric, DomainSpec, Optional[DistanceFunction], SolverOptions]:
    """Construct the metric, domain, distance function, and options.

    Construction failures surface as :class:`ConfigError` naming the
    responsible config field; metric positivity errors keep the
    failing sample point in the message.
    """
    try:
        metric = builtin_metric(
            cfg["metric"]["family"], cfg["metric"]["params"]
        )
    except (GeometryError, ExprError) as exc:
        raise ConfigError(f"config field 'metric': {exc}") from None

    dom = cfg["domain"]
    shape, extents, n = dom["shape"], dom["extents"], dom["resolution"]
    want = _EXTENT_COUNT[shape]
    if len(extents) != want:
        raise ConfigError(
            f"config field 'domain/extents': shape '{shape}' takes "
            f"{want} numbers, got {len(extents)}"
        )
    try:
        if shape == "rectangle":
            domain = DomainSpec.rectangle(*extents, n)
        elif shape == "periodic_band":
            period = metric.theta_period
            if period is None:
                domain = DomainSpec.periodic_band(*extents, n)
            else:
                domain = DomainSpec.periodic_band(
                    *extents, n, theta_period=period
                )
        elif shape == "disk":
            domain = DomainSpec.disk(*extents, n)
        else:
            domain = DomainSpec.annulus(*extents, n)
    except MeshError as exc:
        raise ConfigError(f"config field 'domain': {exc}") from None

    distance = None
    if cfg["distance_function"]:
        try:
            distance = DistanceFunction.from_text(
                metric, cfg["distance_function"]
            )
        except ExprError as exc:
            raise ConfigError(
                f"config field 'distance_function': {exc}"
            ) from None
        allowed = {metric.u, metric.v} | set(metric.constants)
        extra = distance.expr.variables() - allowed
        if extra:
            raise ConfigError(
                "config field 'distance_function': unknown variables "
                f"{sorted(extra)}"
            )

    options = SolverOptions(
        **{name: cfg["solver"][key] for key, name in _SOLVER_FIELDS.items()}
    )
    return metric, domain, distance, options


# ---------------------------------------------------------------------------
# check execution


def _envelope(cfg: dict, reports: List[VerificationReport], total: float) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "config": cfg,
        "checks": [r.to_dict() for r in reports],
        "metadata": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "wall_time_seconds": total,
            "check_seconds": [
                {"check": r.check, "seconds": r.wall_time_seconds}
                for r in reports
            ],
        },
    }


def run(config: dict) -> Tuple[dict, int]:
    """Execute every check named in the config, in config order.

    Returns the report dictionary and the exit code (0 all passed,
    1 otherwise).  The checks share one :class:`LevelCache`, which is
    dropped when the run ends.
    """
    cfg = validate_config(config)
    metric, domain, distance, options = build_objects(cfg)
    cache = LevelCache(domain, metric, options)
    start = time.perf_counter()
    reports = [
        CHECKS[name].run(cfg["check_params"][name], distance, cache)
        for name in cfg["checks"]
    ]
    total = time.perf_counter() - start
    report = _envelope(cfg, reports, total)
    code = 0 if all(r.passed for r in reports) else 1
    return report, code


# ---------------------------------------------------------------------------
# serialization helpers


def write_report(report: dict, path) -> None:
    """Write a report deterministically: sorted keys, trailing newline."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text)


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: Sequence[str], rows) -> None:
    """Plain comma-joined CSV; floats via ``repr`` for exact round-trip."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _emit_csv_tables(report: dict, csv_dir) -> None:
    directory = Path(csv_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for check in report["checks"]:
        table, q = _BY_REPORT[check["check"]].table, check["quantities"]
        if table is not None and not q.get("refused"):
            name, header, rows = table(q)
            write_csv(directory / name, header, rows)


def _summary_line(check: dict) -> str:
    name, q = check["check"], check["quantities"]
    status = "PASS" if check["passed"] else "FAIL"
    if q.get("refused"):
        detail = f"refused: {q['reason']}"
    else:
        detail = _BY_REPORT[name].summary(q)
    return f"{name:<12} {status}  {detail}"


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_run(args) -> int:
    cfg = validate_config(load_config(args.config))
    report, code = run(cfg)
    for check in report["checks"]:
        print(_summary_line(check))
    report_path = args.report or cfg["output"]["report"]
    write_report(report, report_path)
    print(f"report written to {report_path}")
    csv_dir = args.csv_dir or cfg["output"]["csv_dir"]
    if csv_dir:
        _emit_csv_tables(report, csv_dir)
        print(f"csv tables written to {csv_dir}")
    return code


def _cmd_check(args) -> int:
    """``run`` narrowed to ``args.check``, with the subcommand's flags
    written into its ``check_params``, so that the schema judges a flag as
    it judges the config value it overrides.  Flags that are None are not
    given."""
    name, check = args.check, CHECKS[args.check]
    raw = load_config(args.config)
    validate_config(raw)  # refuse a config that is invalid as written
    raw["checks"] = [name]
    params = raw.setdefault("check_params", {}).setdefault(name, {})
    params.update({
        key: getattr(args, key) for key in check.params
        if getattr(args, key) is not None
    })
    report, code = run(raw)
    result = report["checks"][0]
    q = result["quantities"]
    for line in check.lines(q) if check.lines else ():
        print(line)
    print(_summary_line(result))
    csv_path = getattr(args, "csv", None)
    if csv_path:
        _, header, rows = check.table(q)
        write_csv(csv_path, header, rows)
        print(f"csv written to {csv_path}")
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    return code


def _spectrum_result(metric, domain, options, bc: str, count: int):
    cache = LevelCache(domain, metric, options)
    mesh = cache.mesh(0)
    interior = mesh.n_vertices - int(mesh.boundary_vertex_mask.sum())
    # the 1-form spectrum is the positive Neumann and the Dirichlet modes
    # plus b1 harmonics
    limit = {
        "dirichlet": interior,
        "neumann": mesh.n_vertices,
        "oneform": mesh.n_vertices - 1 + interior + mesh.betti1,
    }[bc]
    if count > limit:
        raise ConfigError(
            f"-k/--count: requested {count} {bc} eigenpairs, "
            f"level 0 has {limit}"
        )
    if bc != "oneform":
        return cache.spectrum(0, bc, count)
    ops = assemble_oneform(cache.mesh(0), metric, quad_rule=options.quad_rule)
    return solve_oneform(ops, count, options=options)


def _spectrum_rows(result, rel_gap: float = 1e-3):
    rows = []
    index = 0
    for _, count in cluster_multiplicities(result.values, rel_gap=rel_gap):
        for _ in range(count):
            rows.append(
                (
                    index + 1,
                    float(result.values[index]),
                    count,
                    float(result.residuals[index]),
                )
            )
            index += 1
    return rows


def _cmd_spectrum(args) -> int:
    cfg = validate_config(load_config(args.config))
    metric, domain, _, options = build_objects(cfg)
    result = _spectrum_result(metric, domain, options, args.bc, args.count)
    rows = _spectrum_rows(result)
    for index, value, mult, residual in rows:
        print(f"{index:4d}  {value!r}  mult {mult}  residual {residual:.3g}")
    if args.csv:
        write_csv(
            args.csv, ("index", "value", "multiplicity", "residual"), rows
        )
        print(f"csv written to {args.csv}")
    return 0 if result.converged else 1


def _cmd_oracle(args) -> int:
    dirichlet, neumann = cylinder_oracle(args.max_index)
    print(",".join(str(v) for v in dirichlet))
    print(",".join(str(v) for v in neumann))
    if args.csv:
        _, header, rows = _oracle_table(
            {"dirichlet": dirichlet, "neumann": neumann}
        )
        write_csv(args.csv, header, rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _eigenpair_count(text: str) -> int:
    """``--count``: a whole number of eigenpairs, at least one."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfspec",
        description=(
            "Spectral comparison checks for surfaces described by "
            "chart metrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute every check listed in a config")
    p.add_argument("config", help="path to a JSON run config")
    p.add_argument("--report", help="report path (overrides the config)")
    p.add_argument("--csv-dir", help="table directory (overrides the config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="run the eigenvalue comparison only")
    p.add_argument("config")
    p.add_argument("--levels", type=int, help="refinement levels to use")
    p.add_argument("--report", help="write a single-check JSON report")
    p.set_defaults(func=_cmd_check, check="inequality")

    p = sub.add_parser("spectrum", help="dump an eigenvalue table")
    p.add_argument("config")
    p.add_argument(
        "--bc", choices=("dirichlet", "neumann", "oneform"),
        default="dirichlet",
    )
    p.add_argument("-k", "--count", type=_eigenpair_count, default=8)
    p.add_argument("--csv", help="CSV output path")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "curvature-check",
        help="sample the unit-gradient and curvature conditions",
    )
    p.add_argument("config")
    p.add_argument(
        "--samples", type=int, help="grid samples per axis (overrides the config)"
    )
    p.add_argument("--report", help="write a single-check JSON report")
    p.set_defaults(func=_cmd_check, check="curvature")

    p = sub.add_parser(
        "convergence", help="eigenvalue refinement study with a rate fit"
    )
    p.add_argument("config")
    p.add_argument("--bc", choices=("dirichlet", "neumann"))
    p.add_argument("--levels", type=int)
    p.add_argument("--csv", help="CSV output path")
    p.add_argument("--report", help="write a single-check JSON report")
    p.set_defaults(func=_cmd_check, check="convergence")

    p = sub.add_parser(
        "oracle",
        help=(
            "closed-form cylinder band spectra; prints the Dirichlet "
            "list then the Neumann list"
        ),
    )
    p.add_argument("--max-index", type=int, default=10)
    p.add_argument("--csv", help="CSV output path")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
