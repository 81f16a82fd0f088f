"""Outside-in tracing of a ``surfspec run``.

The program is not modified.  ``install`` replaces public functions with
wrappers at the names where callers look them up (``cli.verify_inequality``,
``verify.solve_smallest``, ``eigen.solve_smallest`` called by
``solve_oneform``, ``ChartMetric.evaluate``, ...).  Each wrapped call
records a :class:`Span` in memory; the spans are written out once the
run has finished, and :func:`layer_metrics` turns them into the
benchmark's per-layer metrics.

Self time is a span's duration minus the part of it that its direct
child spans cover.  A child covers its whole wrapper, bookkeeping
included, so the tracer's own cost is not charged to the caller's layer;
``trace.overhead_ratio`` measures that cost end to end.  Counters are
taken from the arguments and results of the wrapped calls, where the
work happens.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    run: str  # spans of one traced run share this id
    attrs: dict = field(default_factory=dict)
    # the wrapper's interval: the span plus the tracer's bookkeeping around it
    outer_start: Optional[float] = None
    outer_end: Optional[float] = None


class Tracer:
    """Records nested spans of one single-threaded run.

    ``clock`` exists so tests can drive the spans with a fake clock.
    """

    def __init__(self, run: str, clock: Callable[[], float] = time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def call(self, name, fn, args, kwargs, describe=None):
        outer_start = self.clock()
        parent = self._open[-1] if self._open else None
        span = Span(name, float("nan"), float("nan"), parent, self.run)
        span.outer_start = outer_start
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = self.clock()
            self._open.pop()
        if describe is not None:
            describe(span.attrs, args, kwargs, result)
        span.outer_end = self.clock()
        return result

    def to_dicts(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def _outer(span: dict) -> tuple:
    start, end = span.get("outer_start"), span.get("outer_end")
    return (span["start"] if start is None else start,
            span["end"] if end is None else end)


def self_times(spans: List[dict]) -> List[float]:
    """Duration of each span minus the union of its children's wrapper intervals."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(_outer(s))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for c_start, c_end in sorted(children.get(i, [])):
            lo, hi = max(c_start, reach), min(c_end, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


# ---------------------------------------------------------------------------
# what is wrapped, and what each call records


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _mesh_digest(mesh, *extra) -> str:
    h = hashlib.blake2b(digest_size=12)
    for arr in (mesh.verts, mesh.tris, mesh.raw_to_logical):
        h.update(np.ascontiguousarray(arr).tobytes())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()


def _describe_solve(fn):
    def describe(attrs, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        K = a["K"]
        attrs.update(
            path="dense" if result.method == "dense" else "sparse",
            dim=int(K.shape[0]),
            key=repr((int(K.shape[0]), int(K.nnz), int(a["k"]), a["bc"])),
            k=int(a["k"]),
            max_residual=float(np.max(result.residuals)),
            converged=bool(result.converged),
        )
    return describe


def _describe_mesh_out(attrs, args, kwargs, mesh):
    attrs["vertices"] = int(mesh.n_vertices)


def _describe_refine(attrs, args, kwargs, mesh):
    attrs["vertices"] = int(mesh.n_vertices)
    attrs["key"] = _mesh_digest(args[0] if args else kwargs["mesh"])


def _describe_scalar(fn):
    def describe(attrs, args, kwargs, ops):
        a = _bound(fn, args, kwargs)
        attrs["key"] = _mesh_digest(a["mesh"], a["quad_rule"], id(a["metric"]))
        attrs["nnz"] = int(ops.stiffness.nnz)
    return describe


def _describe_eval(attrs, args, kwargs, out):
    attrs["points"] = int(np.size(out))


def _describe_check(attrs, args, kwargs, report):
    attrs["passed"] = bool(report.passed)


def _describe_write(attrs, args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    attrs["bytes"] = Path(path).stat().st_size


_CHECKS = {
    "verify_inequality": "verify.inequality",
    "lemma_check": "verify.lemma",
    "spectrum_union_check": "verify.union",
    "hodge_dimension_check": "verify.hodge_dims",
    "curvature_check": "verify.curvature",
    "convergence_study": "verify.convergence",
    "oracle_check": "verify.oracle",
}


def _targets(ss):
    """(owner, attribute, span name, describe) for every wrapped name."""
    cli, verify, assembly, eigen = ss.cli, ss.verify, ss.assembly, ss.eigen
    solve = _describe_solve(eigen.solve_smallest)
    scalar = _describe_scalar(assembly.assemble_scalar)
    out = [
        (cli, "validate_config", "cli.validate_config", None),
        (cli, "build_objects", "cli.build_objects", None),
        (cli, "write_report", "cli.write_report", _describe_write),
        (cli, "builtin_metric", "geometry.metric_build", None),
        (cli, "triangulate", "mesh.triangulate", _describe_mesh_out),
        (verify, "triangulate", "mesh.triangulate", _describe_mesh_out),
        (verify, "refine", "mesh.refine", _describe_refine),
        (verify, "check_unit_gradient", "geometry.screen", None),
        (verify, "curvature_condition_check", "geometry.screen", None),
        (ss.geometry.ChartMetric, "evaluate", "expr.eval", _describe_eval),
        (verify, "assemble_scalar", "assembly.scalar", scalar),
        (assembly, "assemble_scalar", "assembly.scalar", scalar),
        (verify, "assemble_oneform", "assembly.oneform", None),
        (assembly, "assemble_oneform", "assembly.oneform", None),
        (verify, "apply_dirichlet", "assembly.dirichlet", None),
        (verify, "dirichlet_form_quadrature", "assembly.trial_quadrature", None),
        (verify, "solve_smallest", "eigen.solve", solve),
        (eigen, "solve_smallest", "eigen.solve", solve),
        (verify, "solve_oneform", "eigen.oneform", None),
    ]
    out += [(cli, fn, name, _describe_check) for fn, name in _CHECKS.items()]
    return out


def install(tracer: Tracer, surfspec_package) -> Callable[[], None]:
    """Wrap the program's public functions; returns a function that undoes it.

    ``surfspec_package`` is the imported ``surfspec`` package with its
    submodules loaded.
    """
    saved = []
    for owner, attr, name, describe in _targets(surfspec_package):
        original = getattr(owner, attr)

        def wrapper(*args, _fn=original, _name=name, _describe=describe, **kwargs):
            return tracer.call(_name, _fn, args, kwargs, _describe)

        functools.update_wrapper(wrapper, original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


CHECK_SPANS = tuple(_CHECKS.values())

# name: (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "eigen.sparse_s": ("s", "lower"),
    "eigen.sparse_calls": ("count", "lower"),
    "eigen.sparse_dim_max": ("count", "lower"),
    "eigen.dense_s": ("s", "lower"),
    "eigen.dense_calls": ("count", "lower"),
    "eigen.dense_dim_max": ("count", "lower"),
    "eigen.solve_unique_ratio": ("ratio", "higher"),
    "eigen.pairs_requested": ("count", "lower"),
    "eigen.max_residual": ("1", "lower"),
    "eigen.unconverged": ("count", "lower"),
    "eigen.oneform_s": ("s", "lower"),
    "eigen.oneform_calls": ("count", "lower"),
    "mesh.triangulate_s": ("s", "lower"),
    "mesh.triangulate_calls": ("count", "lower"),
    "mesh.refine_s": ("s", "lower"),
    "mesh.refine_calls": ("count", "lower"),
    "mesh.refine_unique_ratio": ("ratio", "higher"),
    "mesh.vertices_max": ("count", "lower"),
    "expr.eval_s": ("s", "lower"),
    "expr.eval_calls": ("count", "lower"),
    "expr.eval_points": ("count", "lower"),
    "geometry.screen_s": ("s", "lower"),
    "geometry.screen_calls": ("count", "lower"),
    "geometry.metric_build_s": ("s", "lower"),
    "assembly.scalar_s": ("s", "lower"),
    "assembly.scalar_calls": ("count", "lower"),
    "assembly.scalar_unique_ratio": ("ratio", "higher"),
    "assembly.oneform_s": ("s", "lower"),
    "assembly.oneform_calls": ("count", "lower"),
    "assembly.dirichlet_s": ("s", "lower"),
    "assembly.trial_quadrature_s": ("s", "lower"),
    "assembly.trial_quadrature_calls": ("count", "lower"),
    "assembly.stiffness_nnz_max": ("count", "lower"),
    "verify.inequality_s": ("s", "lower"),
    "verify.lemma_s": ("s", "lower"),
    "verify.union_s": ("s", "lower"),
    "verify.hodge_dims_s": ("s", "lower"),
    "verify.curvature_s": ("s", "lower"),
    "verify.convergence_s": ("s", "lower"),
    "verify.oracle_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.checks_run": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "cli.validate_build_s": ("s", "lower"),
    "cli.write_report_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.coverage_min": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Counts, sizes and redundancy ratios: these must repeat exactly from run
# to run.  Times, residuals, the trace's own ratios and the report size
# (its metadata holds wall times) vary.
EXACT_METRICS = tuple(
    name for name in LAYER_METRICS
    if not name.endswith("_s")
    and name not in ("eigen.max_residual", "cli.report_bytes",
                     "trace.coverage_min", "trace.overhead_ratio")
)


def _distinct_ratio(keys) -> float:
    return len(set(keys)) / len(keys) if keys else 1.0


def check_coverage(spans: List[dict], selfs: List[float]) -> List[tuple]:
    """(check, wall time, share of it spent in named layers) per check span.

    Everything below a check span is a named layer, so what is not
    covered is the check's own self time; the Hodge rank check has no
    layer below it and is itself a named layer.
    """
    out = []
    for s, own in zip(spans, selfs):
        if s["name"] in CHECK_SPANS:
            wall = s["end"] - s["start"]
            uncovered = 0.0 if s["name"] == "verify.hodge_dims" else own
            out.append((s["name"], wall, 1.0 - uncovered / wall if wall > 0 else 1.0))
    return out


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (all except trace.overhead_ratio)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[tuple]] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s, own))

    def spans_of(name, **match):
        return [
            (s, own) for s, own in by_name.get(name, [])
            if all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def self_s(name, **match):
        return float(sum(own for _, own in spans_of(name, **match)))

    def wall_s(name):
        return float(sum(s["end"] - s["start"] for s, _ in spans_of(name)))

    def attr_max(name, attr, **match):
        return max((s["attrs"][attr] for s, _ in spans_of(name, **match)), default=0)

    def keys(name):
        return [s["attrs"]["key"] for s, _ in spans_of(name)]

    solves = spans_of("eigen.solve")
    checks = [(s, own) for name in CHECK_SPANS for s, own in spans_of(name)]
    m = {
        "eigen.sparse_s": self_s("eigen.solve", path="sparse"),
        "eigen.sparse_calls": len(spans_of("eigen.solve", path="sparse")),
        "eigen.sparse_dim_max": attr_max("eigen.solve", "dim", path="sparse"),
        "eigen.dense_s": self_s("eigen.solve", path="dense"),
        "eigen.dense_calls": len(spans_of("eigen.solve", path="dense")),
        "eigen.dense_dim_max": attr_max("eigen.solve", "dim", path="dense"),
        "eigen.solve_unique_ratio": _distinct_ratio(keys("eigen.solve")),
        "eigen.pairs_requested": sum(s["attrs"]["k"] for s, _ in solves),
        "eigen.max_residual": float(attr_max("eigen.solve", "max_residual")),
        "eigen.unconverged": sum(not s["attrs"]["converged"] for s, _ in solves),
        "eigen.oneform_s": self_s("eigen.oneform"),
        "eigen.oneform_calls": len(spans_of("eigen.oneform")),
        "mesh.triangulate_s": self_s("mesh.triangulate"),
        "mesh.triangulate_calls": len(spans_of("mesh.triangulate")),
        "mesh.refine_s": self_s("mesh.refine"),
        "mesh.refine_calls": len(spans_of("mesh.refine")),
        "mesh.refine_unique_ratio": _distinct_ratio(keys("mesh.refine")),
        "mesh.vertices_max": max(
            attr_max("mesh.triangulate", "vertices"), attr_max("mesh.refine", "vertices")
        ),
        "expr.eval_s": self_s("expr.eval"),
        "expr.eval_calls": len(spans_of("expr.eval")),
        "expr.eval_points": sum(s["attrs"]["points"] for s, _ in spans_of("expr.eval")),
        "geometry.screen_s": self_s("geometry.screen"),
        "geometry.screen_calls": len(spans_of("geometry.screen")),
        "geometry.metric_build_s": self_s("geometry.metric_build"),
        "assembly.scalar_s": self_s("assembly.scalar"),
        "assembly.scalar_calls": len(spans_of("assembly.scalar")),
        "assembly.scalar_unique_ratio": _distinct_ratio(keys("assembly.scalar")),
        "assembly.oneform_s": self_s("assembly.oneform"),
        "assembly.oneform_calls": len(spans_of("assembly.oneform")),
        "assembly.dirichlet_s": self_s("assembly.dirichlet"),
        "assembly.trial_quadrature_s": self_s("assembly.trial_quadrature"),
        "assembly.trial_quadrature_calls": len(spans_of("assembly.trial_quadrature")),
        "assembly.stiffness_nnz_max": attr_max("assembly.scalar", "nnz"),
        "verify.self_s": float(
            sum(own for s, own in checks if s["name"] != "verify.hodge_dims")
        ),
        "verify.checks_run": len(checks),
        "verify.checks_failed": sum(not s["attrs"].get("passed", False) for s, _ in checks),
        "cli.validate_build_s": wall_s("cli.validate_config") + wall_s("cli.build_objects"),
        "cli.write_report_s": wall_s("cli.write_report"),
        "cli.report_bytes": attr_max("cli.write_report", "bytes"),
        "trace.coverage_min": min((c for _, _, c in check_coverage(spans, selfs)), default=1.0),
    }
    for name in CHECK_SPANS:
        m[name + "_s"] = wall_s(name)
    return m
