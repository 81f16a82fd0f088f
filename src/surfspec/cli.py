"""Command line front end: JSON run configs in, JSON/CSV artifacts out.

A run config (``spec_version`` 1) names a metric family with its
parameters, a chart domain with its resolution, an optional distance
function expression, solver knobs, and a nonempty list of checks to
execute.  ``run`` executes every listed check in order and writes one
JSON report; it is the only code that executes checks.  ``CHECKS``
holds one row per check: its config name, the :mod:`surfspec.verify`
function it runs, the schema of its ``check_params`` and how its results
are printed; a parameter's default is that function's keyword default.
The check subcommands (``verify``, ``curvature-check``, ``convergence``)
are ``run`` narrowed to one check: their flags are the check's
``check_params`` schema, written into the config before ``run``, their
``--report`` is ``run``'s report, and a check with a CSV table takes
``--csv``.  ``spectrum`` and ``oracle`` dump tables for quick inspection.

Configs are checked by ``_schema_errors``, a walker of the 13 keywords of
``CONFIG_SCHEMA``; the violation reported is the one jsonschema 4.26 picks.

Exit codes: 0 when every executed check passes, 1 when any check
fails, 2 for invalid input (unreadable file, schema violation,
unparseable expression, metric or domain construction failure, a
domain outside the metric's validity region, a distance function with
a domain error, a check parameter out of range or predicted to need
more than its limit).  Invalid-input messages name the offending
config field.

Reports embed the fully resolved config, and every timestamp or wall
time lives under the ``metadata`` key, beside the BLAS thread settings
(``surfspec.THREAD_SETTINGS``), so two runs with the same
config and seed produce byte-identical files once that key is
dropped.  CSV floats are written with ``repr`` and therefore
round-trip through ``float`` exactly.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import THREAD_SETTINGS
from .assembly import _RULES, AssemblyError
from .eigen import EigenError, SolverOptions, cluster_multiplicities
from .expr import Expr, ExprError, parse
from .geometry import (
    FAMILIES, ChartEvalError, ChartMetric, GeometryError, builtin_metric,
)
from .mesh import EXTENT_COUNT, DomainSpec, MeshError
from .mesh import triangulate  # noqa: F401  (perfbench/tracer.py wraps cli.triangulate)
from .verify import (
    LevelCache,
    ParameterError,
    VerificationReport,
    VerifyError,
    convergence_study,
    curvature_check,
    cylinder_oracle,
    hodge_dimension_check,
    lemma_check,
    oracle_check,
    solve_limit_refusal,
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
    """Everything the front end knows about one check.

    ``function``'s signature says the rest: a parameter's default is the
    default of the keyword of the same name, the check needs
    ``distance_function`` when ``function`` takes an ``f``, and :meth:`run`
    passes it the run's ``domain``, ``metric``, ``f``, ``cache`` and
    level-0 ``mesh`` under those of the names that it takes.
    """

    name: str  # config name: ``checks`` entries and ``check_params`` keys
    function: Callable[..., VerificationReport]  # the verify function it runs
    params: Dict[str, dict]  # parameter -> schema
    summary: Callable[[dict], str]  # quantities -> summary detail
    # quantities -> (file name, header, rows) of its CSV table
    table: Optional[Callable[[dict], tuple]] = None
    # quantities -> the lines its subcommand prints above the summary line
    lines: Optional[Callable[[dict], List[str]]] = None

    @property
    def _keywords(self):
        return inspect.signature(self.function).parameters

    def defaults(self) -> dict:
        return {key: self._keywords[key].default for key in self.params}

    @property
    def needs_distance(self) -> bool:
        return "f" in self._keywords

    def run(
        self, params: dict, f: Optional[Expr], cache: LevelCache
    ) -> VerificationReport:
        keywords = self._keywords
        inputs = {"domain": cache.domain, "metric": cache.metric, "f": f, "cache": cache}
        if "mesh" in keywords:  # built only for a check that takes it
            inputs["mesh"] = cache.mesh(0)
        try:
            # looked up in this module at call time, where perfbench/tracer.py
            # wraps the check functions
            return globals()[self.function.__name__](
                **{key: inputs[key] for key in inputs if key in keywords}, **params
            )
        except ParameterError as exc:
            where = f"check_params/{self.name}/{exc.param}"
            raise ConfigError(f"config field '{where}': {exc}") from None
        except ChartEvalError as exc:
            raise ConfigError(f"config field '{exc.source}': {exc}") from None


_INT = {"type": "integer"}

CHECKS: Dict[str, _Check] = {c.name: c for c in (
    _Check(
        "inequality", verify_inequality,
        {"levels": {**_INT, "minimum": 2}},
        lambda q: f"extrapolated margin {q['extrapolated_margin']:.6g}",
        table=_inequality_table, lines=_inequality_lines,
    ),
    _Check(
        "lemma", lemma_check,
        {"level": {**_INT, "minimum": 0}},
        _lemma_summary,
    ),
    _Check(
        "union", spectrum_union_check,
        {"level": {**_INT, "minimum": 0}, "count": {**_INT, "minimum": 1}},
        lambda q: (
            f"max rel diff {q['max_rel_difference']:.3g}, "
            f"zero modes {q['zero_modes']}/{q['betti1']}"
        ),
        table=_union_table,
    ),
    _Check(
        "hodge-dims", hodge_dimension_check, {},
        lambda q: (
            f"rank d0 {q['rank_d0']} + rank d1 {q['rank_d1']} + "
            f"b1 {q['betti1']} == E {q['n_edges']}"
        ),
    ),
    _Check(
        "curvature", curvature_check,
        {"samples": {**_INT, "minimum": 2}},
        _curvature_summary,
    ),
    _Check(
        "convergence", convergence_study,
        {"bc": {"enum": ["dirichlet", "neumann"]},
         "levels": {**_INT, "minimum": 3}},
        _convergence_summary, table=_convergence_table, lines=_convergence_lines,
    ),
    _Check(
        "oracle", oracle_check,
        {"max_index": {**_INT, "minimum": 1}},
        lambda q: f"{q['compared_pairs']} interlacing pairs checked",
        table=_oracle_table,
    ),
)}

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
                "family": {"enum": list(FAMILIES)},
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
                "shape": {"enum": list(EXTENT_COUNT)},
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
                "quadrature": {"enum": list(_RULES)},
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
                    "properties": c.params,
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

# each keyword _schema_errors implements -> the JSON type it constrains (a
# value of another type passes it)
_KEYWORDS = dict(
    type=None, const=None, enum=None, required="object", properties="object",
    additionalProperties="object", items="array", minItems="array",
    maxItems="array", uniqueItems="array", minLength="string",
    minimum="number", exclusiveMinimum="number",
)
# "integer" is a JSON integer, so 3.0 is not one; no type here takes a boolean
_TYPES = {"object": dict, "array": list, "string": str, "null": type(None),
          "integer": int, "number": (int, float)}


def _is_type(value, kind: str) -> bool:
    return not isinstance(value, bool) and isinstance(value, _TYPES[kind])


def _json_key(value):
    """Equal for two JSON values exactly when JSON Schema calls them equal:
    numbers by value (1 and 1.0), booleans apart from numbers."""
    if isinstance(value, list):
        return tuple(map(_json_key, value))
    if isinstance(value, dict):
        return frozenset((key, _json_key(child)) for key, child in value.items())
    return (bool, value) if isinstance(value, bool) else value


def _schema_errors(value, schema: dict, path: Tuple = ()):
    """Yield ``(path, message)`` for each keyword of ``schema`` that ``value``
    violates, in the schema's order and jsonschema 4.26's words.  A keyword,
    or a form of one, not implemented here raises ``ValueError``."""
    for key, rule in schema.items():
        if key not in _KEYWORDS or key == "additionalProperties" and rule is not False:
            raise ValueError(f"schema keyword {key!r}: {rule!r} is not implemented")
        if _KEYWORDS[key] and not _is_type(value, _KEYWORDS[key]):
            continue
        if key == "type":
            kinds = [rule] if isinstance(rule, str) else rule
            if not any(_is_type(value, kind) for kind in kinds):
                yield path, f"{value!r} is not of type {', '.join(map(repr, kinds))}"
        elif key == "const" and _json_key(value) != _json_key(rule):
            yield path, f"{rule!r} was expected"
        elif key == "enum" and _json_key(value) not in map(_json_key, rule):
            yield path, f"{value!r} is not one of {rule!r}"
        elif key == "required":
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, child in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], child, (*path, name))
        elif key == "additionalProperties":
            extras = sorted(set(value) - set(schema.get("properties", {})))
            if extras:
                were = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(repr, extras))
                yield path, (
                    f"Additional properties are not allowed ({names} {were} unexpected)"
                )
        elif key == "items":
            for index, item in enumerate(value):
                yield from _schema_errors(item, rule, (*path, index))
        elif key in ("minItems", "minLength") and len(value) < rule:
            short = "should be non-empty" if rule == 1 else "is too short"
            yield path, f"{value!r} {short}"
        elif key == "maxItems" and len(value) > rule:
            long = "is expected to be empty" if rule == 0 else "is too long"
            yield path, f"{value!r} {long}"
        elif key == "uniqueItems" and rule:
            if len(set(map(_json_key, value))) < len(value):
                yield path, f"{value!r} has non-unique elements"
        elif key == "minimum" and value < rule:
            yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum" and value <= rule:
            yield path, f"{value!r} is less than or equal to the minimum of {rule!r}"


# solver config key -> SolverOptions field, whose default is the config default
_SOLVER_FIELDS = {"tolerance": "tol", "seed": "seed", "quadrature": "quad_rule"}
_SOLVER_DEFAULTS = {
    key: getattr(SolverOptions(), name) for key, name in _SOLVER_FIELDS.items()
}

class ConfigError(ValueError):
    """Invalid run config; the message names the offending field."""


_INPUT_ERRORS = (
    ConfigError, ExprError, GeometryError, MeshError, AssemblyError, EigenError,
    VerifyError, OSError,
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
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return raw


def _refuse_non_finite(value, path: Tuple) -> None:
    if isinstance(value, dict):
        for key, child in value.items():
            _refuse_non_finite(child, (*path, key))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            _refuse_non_finite(child, (*path, index))
    elif isinstance(value, float) and not math.isfinite(value):
        where = "/".join(str(p) for p in path) or "config root"
        raise ConfigError(
            f"config field '{where}': {json.dumps(value)} is not a finite number"
        )
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        where = "/".join(str(p) for p in path) or "config root"
        raise ConfigError(
            f"config field '{where}': an integer of {len(str(abs(value)))} "
            "digits is beyond the float range"
        )


def validate_config(raw: dict) -> dict:
    """Schema-validate a raw config and fill in every default.

    Returns the fully resolved config that reports embed.  Error
    messages name the offending field as a slash-joined path.  A
    non-finite number (Python's ``json`` reads ``NaN``, ``Infinity``
    and literals that overflow a float), or an integer beyond the float
    range, is refused before the schema, which would let it through.
    """
    _refuse_non_finite(raw, ())
    # the violation jsonschema's best_match picks: the shortest path, then the
    # greatest of sibling paths, then the first in the schema's order
    error = max(
        _schema_errors(raw, CONFIG_SCHEMA), key=lambda e: (-len(e[0]), e[0]),
        default=None,
    )
    if error is not None:
        where = "/".join(str(p) for p in error[0]) or "config root"
        raise ConfigError(f"config field '{where}': {error[1]}")

    cfg = copy.deepcopy(raw)
    cfg["metric"].setdefault("params", {})
    cfg.setdefault("distance_function", None)
    cfg["solver"] = {**_SOLVER_DEFAULTS, **cfg.get("solver", {})}
    cfg["check_params"] = {
        name: {**check.defaults(), **cfg.get("check_params", {}).get(name, {})}
        for name, check in CHECKS.items()
    }
    cfg["output"] = {"report": "report.json", "csv_dir": None, **cfg.get("output", {})}

    missing = [
        name for name in cfg["checks"]
        if CHECKS[name].needs_distance and not cfg["distance_function"]
    ]
    if missing:
        raise ConfigError(
            f"config field 'distance_function': required by checks {missing}"
        )
    return cfg


def build_objects(
    cfg: dict,
) -> Tuple[ChartMetric, DomainSpec, Optional[Expr], SolverOptions]:
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
    # a band closes with its metric's angular period, when the metric has one
    glued = shape == "periodic_band" and metric.theta_period is not None
    period = {"theta_period": metric.theta_period} if glued else {}
    try:
        domain = DomainSpec(
            shape, int(n), tuple(float(x) for x in extents), **period
        )
    except MeshError as exc:
        where = f"domain/{exc.cause}" if exc.cause else "domain"
        raise ConfigError(f"config field '{where}': {exc}") from None
    box = domain.chart_box
    if not metric.contains(np.array(box[:2]), np.array(box[2:])):
        raise ConfigError(
            f"config field 'domain/extents': the domain's chart box {list(box)} "
            f"leaves the metric validity region {list(metric.validity)}"
        )

    distance = None
    if cfg["distance_function"]:
        try:
            distance = parse(cfg["distance_function"])
        except ExprError as exc:
            raise ConfigError(
                f"config field 'distance_function': {exc}"
            ) from None
        allowed = {metric.u, metric.v} | set(metric.constants)
        extra = distance.variables() - allowed
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


def _envelope(
    cfg: dict, reports: List[VerificationReport], total: float, cache: LevelCache
) -> dict:
    """The report of a run: its config and checks, and under ``metadata``
    the timings and the record of every solve the run's ``cache`` ran."""
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
            "blas_threads": dict(THREAD_SETTINGS),
            "solves": list(cache.solves),
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
    report = _envelope(cfg, reports, total, cache)
    code = 0 if all(r.passed for r in reports) else 1
    return report, code


# ---------------------------------------------------------------------------
# serialization helpers


def write_report(report: dict, path) -> None:
    """Write a report deterministically: sorted keys, trailing newline."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text)


def write_csv(path, header: Sequence[str], rows) -> None:
    """Plain comma-joined CSV; floats via ``repr`` for exact round-trip."""
    lines = [",".join(header)]
    lines.extend(
        ",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
        for row in rows
    )
    Path(path).write_text("\n".join(lines) + "\n")


def _emit_csv_tables(report: dict, csv_dir) -> None:
    directory = Path(csv_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, check in zip(report["config"]["checks"], report["checks"]):
        table, q = CHECKS[name].table, check["quantities"]
        if table is not None and not q.get("refused"):
            file_name, header, rows = table(q)
            write_csv(directory / file_name, header, rows)


def _summary_line(name: str, check: dict) -> str:
    """The line of config check ``name``, labelled with its report's name."""
    q = check["quantities"]
    status = "PASS" if check["passed"] else "FAIL"
    if q.get("refused"):
        detail = f"refused: {q['reason']}"
    else:
        detail = CHECKS[name].summary(q)
    return f"{check['check']:<12} {status}  {detail}"


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_run(args) -> int:
    report, code = run(load_config(args.config))
    cfg = report["config"]
    for name, check in zip(cfg["checks"], report["checks"]):
        print(_summary_line(name, check))
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
    print(_summary_line(name, result))
    csv_path = getattr(args, "csv", None)
    if csv_path and not q.get("refused"):
        _, header, rows = check.table(q)
        write_csv(csv_path, header, rows)
        print(f"csv written to {csv_path}")
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    return code


def _spectrum_rows(result):
    """(index, value, multiplicity of its cluster, residual) of each pair."""
    clusters = cluster_multiplicities(result.values, rel_gap=1e-3)
    mults = [n for _, n in clusters for _ in range(n)]
    rows = zip(result.values, mults, result.residuals)
    return [(i + 1, float(v), n, float(r)) for i, (v, n, r) in enumerate(rows)]


def _cmd_spectrum(args) -> int:
    cfg = validate_config(load_config(args.config))
    metric, domain, _, options = build_objects(cfg)
    cache, bc, count = LevelCache(domain, metric, options), args.bc, args.count
    limit = cache.pairs(0, bc)
    if count > limit:
        raise ConfigError(
            f"-k/--count: requested {count} {bc} eigenpairs, level 0 has {limit}"
        )
    if not cache.fits(0, bc, count):
        raise ConfigError("-k/--count: " + solve_limit_refusal(
            f"{count} {bc} eigenpairs of {cache.mesh(0).n_vertices} vertices"
        ))
    result = cache.spectrum(0, bc, count)
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
    try:
        dirichlet, neumann = cylinder_oracle(args.max_index)
    except ParameterError as exc:
        raise ConfigError(f"--max-index: {exc}") from None
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


# subcommand -> (check, help); its flags are the check's parameters, each
# overriding the config's check_params, and --csv when the check has a table
_CHECK_COMMANDS = {
    "verify": ("inequality", "run the eigenvalue comparison only"),
    "curvature-check": (
        "curvature", "sample the unit-gradient and curvature conditions"
    ),
    "convergence": ("convergence", "eigenvalue refinement study with a rate fit"),
}


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

    for command, (name, text) in _CHECK_COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("config")
        for key, schema in CHECKS[name].params.items():
            p.add_argument(
                f"--{key}",
                type=int if schema.get("type") == "integer" else None,
                choices=schema.get("enum"),
                help=f"overrides check_params/{name}/{key}",
            )
        if CHECKS[name].table:
            p.add_argument("--csv", help="CSV output path")
        p.add_argument("--report", help="write a single-check JSON report")
        p.set_defaults(func=_cmd_check, check=name)

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
