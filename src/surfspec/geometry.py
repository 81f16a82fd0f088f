"""Chart metrics and curvature checks.

A surface patch is described by its first fundamental form over chart
variables ``(u, v)``: expressions g11, g12, g22.  Built-in families:

``euclidean``
    dx^2 + dy^2 over (x, y).
``hyperbolic_half_plane``
    (dx^2 + dy^2)/y^2 over (x, y), y > 0.  Gaussian curvature -1.
``warped``
    dr^2 + phi(r)^2 dtheta^2 over (r, theta), theta periodic.
``twisted``
    dr^2 + phi(r, theta)^2 dtheta^2.
``general``
    arbitrary g11, g12, g22 over user-named variables.

The distance-function condition under test is the pointwise margin

    m(p) = -(K + |Hess f|^2)(p)

which must be nonnegative for the eigenvalue comparison to apply.  For
a unit-gradient f, Hess f vanishes along grad f, so its one remaining
eigenvalue is its trace and |Hess f|^2 = (Delta f)^2, the squared
geodesic curvature of the level sets of f.  Every metric family
therefore uses m = -(K + (Delta f)^2), with K from the Brioschi formula
(or -phi_rr / phi for warped and twisted products) and Delta f the
Laplacian expression shared with the trial-field quadrature.  The
formula is exact only where |grad f| = 1; callers check that first.

Sign conventions: the Laplacian is positive (Delta = d* d), so on the
half-plane with f = -log(y) one gets Delta f = -1 identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .expr import Call, Const, EvalError, Expr, evaluate, parse
from .mesh import MAX_CHART_COORDINATE

__all__ = [
    "GeometryError",
    "ChartEvalError",
    "ChartMetric",
    "GridSpec",
    "CurvatureReport",
    "builtin_metric",
    "check_unit_gradient",
    "curvature_condition_check",
    "gaussian_curvature_expr",
    "laplacian_expr",
    "margin_expr",
]

UNIT_GRADIENT_TOL = 1e-10
MARGIN_TOL = 1e-9
_POSITIVITY_SAMPLES = 33


class GeometryError(ValueError):
    """Invalid metric data or parameters."""


class ChartEvalError(GeometryError):
    """A domain error in expressions built from a distance function f.
    ``source`` is ``"distance_function"`` when f or one of its partial
    derivatives fails on the same points, else ``"metric"``."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        self.source = source


def _as_expr(obj: Union[str, Expr, float]) -> Expr:
    """An expression given as text, a number or an :class:`Expr`."""
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    return parse(obj)


@dataclass
class ChartMetric:
    """First fundamental form on a chart rectangle.

    ``validity`` is (u_min, u_max, v_min, v_max); meshes and sample
    grids must stay inside it.  ``theta_period`` is set when v is an
    angle on a circle (warped/twisted families).  ``constants`` are
    named parameters available to all component expressions.
    """

    family: str
    g11: Expr
    g12: Expr
    g22: Expr
    u: str = "u"
    v: str = "v"
    validity: Tuple[float, float, float, float] = (-1e6, 1e6, -1e6, 1e6)
    theta_period: Optional[float] = None
    constants: dict = field(default_factory=dict)
    phi: Optional[Expr] = None  # warp expression for warped/twisted

    def bindings(self, upts, vpts) -> dict:
        env = {self.u: upts, self.v: vpts}
        env.update(self.constants)
        return env

    def evaluate(self, e: Union[Expr, Tuple[Expr, ...]], upts, vpts):
        """Evaluate an expression, or a tuple of them in one pass, on
        arrays of chart points; a tuple gives a tuple of arrays."""
        exprs = e if isinstance(e, tuple) else (e,)
        outs = tuple(
            np.full(np.shape(upts), float(out)) if np.ndim(out) == 0
            else np.asarray(out, dtype=float)
            for out in evaluate(exprs, self.bindings(upts, vpts))
        )
        return outs if isinstance(e, tuple) else outs[0]

    def contains(self, upts, vpts) -> bool:
        """Whether every point is in ``validity``, each bound widened by
        1e-12 times its own magnitude (at least 1e-12): the half-plane's
        bound y = 1e-6 must not take y = 0 in."""
        def slack(bound):
            return 1e-12 * max(1.0, abs(bound))

        u0, u1, v0, v1 = self.validity
        return bool(
            np.all(upts >= u0 - slack(u0))
            and np.all(upts <= u1 + slack(u1))
            and np.all(vpts >= v0 - slack(v0))
            and np.all(vpts <= v1 + slack(v1))
        )


@dataclass
class GridSpec:
    """Rectangular sample grid in chart coordinates."""

    u_range: Tuple[float, float]
    v_range: Tuple[float, float]
    nu: int
    nv: int

    def points(self):
        upts = np.linspace(self.u_range[0], self.u_range[1], self.nu)
        vpts = np.linspace(self.v_range[0], self.v_range[1], self.nv)
        return np.meshgrid(upts, vpts, indexing="ij")

    def to_dict(self) -> dict:
        return {
            "u_range": [float(self.u_range[0]), float(self.u_range[1])],
            "v_range": [float(self.v_range[0]), float(self.v_range[1])],
            "nu": int(self.nu),
            "nv": int(self.nv),
        }


@dataclass
class CurvatureReport:
    """Outcome of a grid-sampled curvature-condition check."""

    grid: GridSpec
    margins: np.ndarray
    min_margin: float
    min_point: Tuple[float, float]
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "min_margin": float(self.min_margin),
            "min_point": [float(self.min_point[0]), float(self.min_point[1])],
            "negative_samples": int(np.count_nonzero(self.margins < -self.tol)),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


# ---------------------------------------------------------------------------
# construction


def _finite(value) -> Optional[float]:
    """``value`` as a finite float; None for a non-number (a bool is not
    one), an infinity, a NaN, or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _intervals(params: dict, key: str, default=None) -> tuple:
    """Parameter ``key``: one (lo, hi) pair per two numbers, lo < hi
    (``r_range`` has one pair, ``validity`` two)."""
    value = params.pop(key, default)
    want = 2 if key == "r_range" else 4
    nums = [_finite(x) for x in value] if isinstance(value, (list, tuple)) else []
    if len(nums) != want or None in nums or not all(
        nums[i] < nums[i + 1] for i in range(0, want, 2)
    ) or max(map(abs, nums)) > MAX_CHART_COORDINATE:
        raise GeometryError(
            f"parameter '{key}' must be {want} numbers of magnitude at most "
            f"{MAX_CHART_COORDINATE:.0e}, each pair increasing, got {value!r}"
        )
    return tuple(nums)


def _expr_param(params: dict, key: str) -> Expr:
    """Parameter ``key``, an expression as text or a number."""
    value = params.pop(key)
    if not isinstance(value, str) and _finite(value) is None:
        raise GeometryError(
            f"parameter '{key}' must be an expression string or a finite "
            f"number, got {value!r}"
        )
    return _as_expr(value)


def _period(params: dict, default):
    """Parameter ``theta_period``: a positive number, or ``default``."""
    value = params.pop("theta_period", default)
    if value is None:
        return None
    period = _finite(value)
    if period is None or not 0 < period <= MAX_CHART_COORDINATE:
        raise GeometryError(
            "parameter 'theta_period' must be a positive number at most "
            f"{MAX_CHART_COORDINATE:.0e}, got {value!r}"
        )
    return period


def builtin_metric(family: str, params: Optional[dict] = None) -> ChartMetric:
    """Build one of the metric families from a parameter dict.

    Raises :class:`GeometryError` on unknown families, missing or
    malformed parameters (the error names the parameter), or a
    warp/metric that fails the sampled positivity check (the error
    names the failing sample point).
    """
    params = dict(params or {})
    constants = params.pop("constants", {})
    if not isinstance(constants, dict):
        raise GeometryError(
            f"parameter 'constants' must be an object, got {constants!r}"
        )
    for name, value in constants.items():
        if _finite(value) is None:
            raise GeometryError(f"constant '{name}' must be a finite number")

    if family == "euclidean":
        validity = _intervals(params, "validity", (-1e6, 1e6, -1e6, 1e6))
        m = ChartMetric(
            family, Const(1.0), Const(0.0), Const(1.0),
            u="x", v="y", validity=validity, constants=constants,
        )
    elif family == "hyperbolic_half_plane":
        validity = _intervals(params, "validity", (-1e6, 1e6, 1e-6, 1e6))
        if validity[2] <= 0:
            raise GeometryError("half-plane validity requires y > 0")
        y2 = parse("1/(y*y)")
        m = ChartMetric(
            family, y2, Const(0.0), y2,
            u="x", v="y", validity=validity, constants=constants,
        )
    elif family in ("warped", "twisted"):
        if "phi" not in params:
            raise GeometryError(f"{family} family requires a 'phi' expression")
        phi = _expr_param(params, "phi")
        period = _period(params, 2.0 * math.pi)
        if "r_range" in params:
            validity = (*_intervals(params, "r_range"), 0.0, period)
        elif "validity" in params:
            validity = _intervals(params, "validity")
        else:
            raise GeometryError(f"{family} family requires 'r_range'")
        allowed = {"r"} if family == "warped" else {"r", "theta"}
        extra = phi.variables() - allowed - set(constants)
        if extra:
            raise GeometryError(
                f"warp expression uses unknown variables {sorted(extra)}"
            )
        m = ChartMetric(
            family, Const(1.0), Const(0.0), phi * phi,
            u="r", v="theta", validity=validity,
            theta_period=period, constants=constants, phi=phi,
        )
    elif family == "general":
        missing = [key for key in ("g11", "g12", "g22") if key not in params]
        if missing:
            raise GeometryError(f"general family requires {missing}")
        g11, g12, g22 = (_expr_param(params, key) for key in ("g11", "g12", "g22"))
        names = params.pop("vars", ("u", "v"))
        if not (
            isinstance(names, (list, tuple)) and len(names) == 2
            and all(isinstance(n, str) and n.isidentifier() for n in names)
            and names[0] != names[1]
        ):
            raise GeometryError(
                f"parameter 'vars' must be two distinct names, got {names!r}"
            )
        m = ChartMetric(
            family, g11, g12, g22, u=names[0], v=names[1],
            validity=_intervals(params, "validity", (-1e6, 1e6, -1e6, 1e6)),
            theta_period=_period(params, None), constants=constants,
        )
    else:
        raise GeometryError(f"unknown metric family '{family}'")

    if params:
        raise GeometryError(f"unrecognized parameters {sorted(params)}")
    shadowed = sorted({m.u, m.v} & set(constants))
    if shadowed:  # a constant would replace the variable in every expression
        raise GeometryError(f"constants {shadowed} are named like chart variables")
    _check_positivity(m)
    return m


def _check_positivity(m: ChartMetric):
    u0, u1, v0, v1 = m.validity
    upts, vpts = np.meshgrid(
        np.linspace(u0, u1, _POSITIVITY_SAMPLES),
        np.linspace(v0, v1, _POSITIVITY_SAMPLES),
        indexing="ij",
    )
    # an overflow is reported as such, not as the sign failure its inf or nan
    # causes; det^2 must be finite too, as the derivatives of the inverse
    # metric in the curvature and the Laplacian divide by it
    with np.errstate(all="ignore"):
        w = np.ones_like(upts) if m.phi is None else m.evaluate(m.phi, upts, vpts)
        g11 = m.evaluate(m.g11, upts, vpts)
        det = m.evaluate(det_expr(m), upts, vpts)
        det2 = det * det
    for bad, message in (
        (~(np.isfinite(w) & np.isfinite(g11) & np.isfinite(det2)),
         "metric not finite on validity region at {}; "
         "narrow metric/params/validity"),
        (w <= 0, "warp expression not strictly positive on validity region: "
                 "phi{} = {:.6g}"),
        ((g11 <= 0) | (det <= 0),
         "metric not positive definite on validity region at {}"),
    ):
        if np.any(bad):
            i = tuple(np.argwhere(bad)[0])
            point = f"({upts[i]:.6g}, {vpts[i]:.6g})"
            raise GeometryError(message.format(point, w[i]))


# ---------------------------------------------------------------------------
# symbolic building blocks


def det_expr(m: ChartMetric) -> Expr:
    return m.g11 * m.g22 - m.g12 * m.g12


def sqrt_det_expr(m: ChartMetric) -> Expr:
    return Call("sqrt", det_expr(m))


def inverse_exprs(m: ChartMetric) -> Tuple[Expr, Expr, Expr]:
    det = det_expr(m)
    return (m.g22 / det, Const(0.0) - m.g12 / det, m.g11 / det)


def _det3(rows) -> Expr:
    (a, b, c), (d, e, f_), (g, h, i) = rows
    return (
        a * (e * i - f_ * h)
        - b * (d * i - f_ * g)
        + c * (d * h - e * g)
    )


def gaussian_curvature_expr(m: ChartMetric) -> Expr:
    """Curvature as an expression in the chart variables.

    Warped/twisted products use K = -phi_rr / phi.  Everything else
    goes through the Brioschi formula assembled from symbolic first and
    second derivatives of the metric components.
    """
    if m.phi is not None:
        phi_rr = m.phi.diff(m.u).diff(m.u)
        return Const(0.0) - phi_rr / m.phi
    E, F, G = m.g11, m.g12, m.g22
    u, v = m.u, m.v
    Eu, Ev = E.diff(u), E.diff(v)
    Fu, Fv = F.diff(u), F.diff(v)
    Gu, Gv = G.diff(u), G.diff(v)
    Evv = Ev.diff(v)
    Guu = Gu.diff(u)
    Fuv = Fu.diff(v)
    half = Const(0.5)
    m1 = _det3(
        [
            [
                Const(-0.5) * Evv + Fuv - half * Guu,
                half * Eu,
                Fu - half * Ev,
            ],
            [Fv - half * Gu, E, F],
            [half * Gv, F, G],
        ]
    )
    m2 = _det3(
        [
            [Const(0.0), half * Ev, half * Gu],
            [half * Ev, E, F],
            [half * Gu, F, G],
        ]
    )
    det = det_expr(m)
    return (m1 - m2) / (det * det)


def gradient_norm2_expr(m: ChartMetric, f) -> Expr:
    fe = _as_expr(f)
    fu, fv = fe.diff(m.u), fe.diff(m.v)
    gi11, gi12, gi22 = inverse_exprs(m)
    return gi11 * fu * fu + 2.0 * gi12 * fu * fv + gi22 * fv * fv


def laplacian_expr(m: ChartMetric, f) -> Expr:
    """Positive-spectrum Laplacian: Delta f = -div(grad f)."""
    fe = _as_expr(f)
    fu, fv = fe.diff(m.u), fe.diff(m.v)
    gi11, gi12, gi22 = inverse_exprs(m)
    sdet = sqrt_det_expr(m)
    flux_u = sdet * (gi11 * fu + gi12 * fv)
    flux_v = sdet * (gi12 * fu + gi22 * fv)
    divergence = flux_u.diff(m.u) + flux_v.diff(m.v)
    return Const(0.0) - divergence / sdet


def margin_expr(m: ChartMetric, f) -> Expr:
    """Pointwise curvature-condition margin -(K + (Delta f)^2).

    This equals -(K + |Hess f|^2) only where |grad f| = 1 (see the
    module docstring); elsewhere it is not the curvature condition, so
    check the gradient first (:func:`check_unit_gradient`).
    """
    # the deeper Laplacian tree is evaluated first, so K's temporaries
    # never coexist with its own (a lower peak; the sum is the same)
    K = gaussian_curvature_expr(m)
    return Const(0.0) - (laplacian_expr(m, f) ** 2 + K)


# ---------------------------------------------------------------------------
# point and grid operations


def evaluate_on_f(m: ChartMetric, exprs, f, upts, vpts):
    """``m.evaluate(exprs, upts, vpts)`` for expressions built from f.

    A domain error raises :class:`ChartEvalError`: f's when f or one of
    its first or second partial derivatives fails on the same points
    too, the metric's otherwise.
    """
    try:
        return m.evaluate(exprs, upts, vpts)
    except EvalError as exc:
        fe = _as_expr(f)
        first = (fe.diff(m.u), fe.diff(m.v))
        second = tuple(d.diff(x) for d in first for x in (m.u, m.v))
        try:
            m.evaluate((fe, *first, *second), upts, vpts)
        except EvalError as own:
            raise ChartEvalError("distance_function", f"f = {fe}: {own}") from None
        raise ChartEvalError(
            "metric", f"{exc} in the metric's terms, where f is defined"
        ) from None


def check_unit_gradient(m: ChartMetric, f, grid: GridSpec) -> Tuple[bool, float]:
    """Check |grad f|_g == 1 within UNIT_GRADIENT_TOL on the grid; returns
    (ok, max deviation)."""
    upts, vpts = grid.points()
    if not m.contains(upts, vpts):
        raise GeometryError("sample grid leaves the metric validity region")
    vals = evaluate_on_f(m, gradient_norm2_expr(m, f), f, upts, vpts)
    dev = float(np.max(np.abs(vals - 1.0)))
    return dev <= UNIT_GRADIENT_TOL, dev


def curvature_condition_check(m: ChartMetric, f, grid: GridSpec) -> CurvatureReport:
    """Sample the margin -(K + (Delta f)^2) on the grid.

    Passes when the minimum sampled margin is >= -MARGIN_TOL.  The report
    records the grid so a failure is reproducible, and as ``min_point``
    the first sample (C order) within MARGIN_TOL of the minimum, so that in
    an equality case, where the margin vanishes up to round-off, the
    point does not move with the order of evaluation.  The margin is the
    curvature condition only for unit-gradient f, which the caller
    checks (:func:`check_unit_gradient`).
    """
    upts, vpts = grid.points()
    if not m.contains(upts, vpts):
        raise GeometryError("sample grid leaves the metric validity region")
    margins = evaluate_on_f(m, margin_expr(m, f), f, upts, vpts)
    min_margin = float(margins.min())
    first = np.argmax(margins <= min_margin + MARGIN_TOL)
    idx = np.unravel_index(first, margins.shape)
    return CurvatureReport(
        grid=grid,
        margins=margins,
        min_margin=min_margin,
        min_point=(float(upts[idx]), float(vpts[idx])),
        tol=MARGIN_TOL,
        passed=min_margin >= -MARGIN_TOL,
    )
