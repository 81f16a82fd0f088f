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
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .expr import Const, Expr, parse

__all__ = [
    "GeometryError",
    "ChartMetric",
    "DistanceFunction",
    "GridSpec",
    "CurvatureReport",
    "builtin_metric",
    "gaussian_curvature",
    "laplacian_of",
    "check_unit_gradient",
    "curvature_condition_check",
]

UNIT_GRADIENT_TOL = 1e-10
MARGIN_TOL = 1e-9
_POSITIVITY_SAMPLES = 33


class GeometryError(ValueError):
    """Invalid metric data or parameters."""


def _as_expr(obj: Union[str, Expr, float]) -> Expr:
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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def bindings(self, upts, vpts) -> dict:
        env = {self.u: upts, self.v: vpts}
        env.update(self.constants)
        return env

    def evaluate(self, e: Expr, upts, vpts):
        """Evaluate an expression on arrays of chart points."""
        out = e.eval(self.bindings(upts, vpts))
        if np.ndim(out) == 0:
            return np.full(np.shape(upts), float(out))
        return np.asarray(out, dtype=float)

    def cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def contains(self, upts, vpts, pad: float = 1e-12) -> bool:
        u0, u1, v0, v1 = self.validity
        eps_u = pad * max(1.0, abs(u0), abs(u1))
        eps_v = pad * max(1.0, abs(v0), abs(v1))
        return bool(
            np.all(upts >= u0 - eps_u)
            and np.all(upts <= u1 + eps_u)
            and np.all(vpts >= v0 - eps_v)
            and np.all(vpts <= v1 + eps_v)
        )


@dataclass
class DistanceFunction:
    """A scalar chart function expected to have unit gradient."""

    metric: ChartMetric
    expr: Expr

    @classmethod
    def from_text(cls, metric: ChartMetric, text: str) -> "DistanceFunction":
        return cls(metric, _as_expr(text))


def _f_expr(f) -> Expr:
    return f.expr if isinstance(f, DistanceFunction) else _as_expr(f)


@dataclass
class GridSpec:
    """Rectangular sample grid in chart coordinates (default 64x64)."""

    u_range: Tuple[float, float]
    v_range: Tuple[float, float]
    nu: int = 64
    nv: int = 64

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


def builtin_metric(family: str, params: Optional[dict] = None) -> ChartMetric:
    """Build one of the metric families from a parameter dict.

    Raises :class:`GeometryError` on unknown families, missing
    parameters, or a warp/metric that fails the sampled positivity
    check (the error names the failing sample point).
    """
    params = dict(params or {})
    constants = dict(params.pop("constants", {}))
    for name, value in constants.items():
        if not isinstance(value, (int, float)):
            raise GeometryError(f"constant '{name}' must be a number")

    if family == "euclidean":
        validity = tuple(params.pop("validity", (-1e6, 1e6, -1e6, 1e6)))
        m = ChartMetric(
            family, Const(1.0), Const(0.0), Const(1.0),
            u="x", v="y", validity=validity, constants=constants,
        )
    elif family == "hyperbolic_half_plane":
        validity = tuple(params.pop("validity", (-1e6, 1e6, 1e-6, 1e6)))
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
        phi = _as_expr(params.pop("phi"))
        period = float(params.pop("theta_period", 2.0 * math.pi))
        if period <= 0:
            raise GeometryError("theta_period must be positive")
        r_range = params.pop("r_range", None)
        if r_range is None and "validity" in params:
            validity = tuple(params.pop("validity"))
        elif r_range is not None:
            validity = (float(r_range[0]), float(r_range[1]), 0.0, period)
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
        try:
            g11 = _as_expr(params.pop("g11"))
            g12 = _as_expr(params.pop("g12"))
            g22 = _as_expr(params.pop("g22"))
        except KeyError as exc:
            raise GeometryError(f"general family requires {exc}") from None
        uname, vname = params.pop("vars", ("u", "v"))
        validity = tuple(params.pop("validity", (-1e6, 1e6, -1e6, 1e6)))
        period = params.pop("theta_period", None)
        m = ChartMetric(
            family, g11, g12, g22, u=uname, v=vname,
            validity=validity,
            theta_period=None if period is None else float(period),
            constants=constants,
        )
    else:
        raise GeometryError(f"unknown metric family '{family}'")

    if params:
        raise GeometryError(f"unrecognized parameters {sorted(params)}")
    _check_positivity(m)
    return m


def _check_positivity(m: ChartMetric):
    u0, u1, v0, v1 = m.validity
    upts, vpts = np.meshgrid(
        np.linspace(u0, u1, _POSITIVITY_SAMPLES),
        np.linspace(v0, v1, _POSITIVITY_SAMPLES),
        indexing="ij",
    )
    # an overflow is reported as such, not as the sign failure its inf or nan causes
    with np.errstate(all="ignore"):
        w = np.ones_like(upts) if m.phi is None else m.evaluate(m.phi, upts, vpts)
        g11 = m.evaluate(m.g11, upts, vpts)
        det = m.evaluate(det_expr(m), upts, vpts)
    for bad, message in (
        (~(np.isfinite(w) & np.isfinite(g11) & np.isfinite(det)),
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
    return m.cached("det", lambda: m.g11 * m.g22 - m.g12 * m.g12)


def sqrt_det_expr(m: ChartMetric) -> Expr:
    from .expr import Call

    return m.cached("sqrt_det", lambda: Call("sqrt", det_expr(m)))


def inverse_exprs(m: ChartMetric) -> Tuple[Expr, Expr, Expr]:
    def build():
        det = det_expr(m)
        return (m.g22 / det, Const(0.0) - m.g12 / det, m.g11 / det)

    return m.cached("inverse", build)


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

    def build():
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

    return m.cached("gauss_curvature", build)


def gradient_norm2_expr(m: ChartMetric, f) -> Expr:
    fe = _f_expr(f)

    def build():
        fu, fv = fe.diff(m.u), fe.diff(m.v)
        gi11, gi12, gi22 = inverse_exprs(m)
        return gi11 * fu * fu + 2.0 * gi12 * fu * fv + gi22 * fv * fv

    return m.cached(("grad_norm2", str(fe)), build)


def laplacian_expr(m: ChartMetric, f) -> Expr:
    """Positive-spectrum Laplacian: Delta f = -div(grad f)."""
    fe = _f_expr(f)

    def build():
        fu, fv = fe.diff(m.u), fe.diff(m.v)
        gi11, gi12, gi22 = inverse_exprs(m)
        sdet = sqrt_det_expr(m)
        flux_u = sdet * (gi11 * fu + gi12 * fv)
        flux_v = sdet * (gi12 * fu + gi22 * fv)
        divergence = flux_u.diff(m.u) + flux_v.diff(m.v)
        return Const(0.0) - divergence / sdet

    return m.cached(("laplacian", str(fe)), build)


def margin_expr(m: ChartMetric, f) -> Expr:
    """Pointwise curvature-condition margin -(K + (Delta f)^2).

    This equals -(K + |Hess f|^2) only where |grad f| = 1 (see the
    module docstring); elsewhere it is not the curvature condition, so
    check the gradient first (:func:`check_unit_gradient`).
    """
    fe = _f_expr(f)

    def build():
        # the deeper Laplacian tree is evaluated first, so K's temporaries
        # never coexist with its own (a lower peak; the sum is the same)
        K = gaussian_curvature_expr(m)
        return Const(0.0) - (laplacian_expr(m, fe) ** 2 + K)

    return m.cached(("margin", str(fe)), build)


# ---------------------------------------------------------------------------
# point and grid operations


def gaussian_curvature(m: ChartMetric, p) -> float:
    """Gaussian curvature at chart point ``p = (u, v)``."""
    out = m.evaluate(gaussian_curvature_expr(m), np.asarray(p[0]), np.asarray(p[1]))
    return float(out)


def laplacian_of(m: ChartMetric, f, p) -> float:
    """Positive-spectrum Laplacian of ``f`` at chart point ``p``."""
    out = m.evaluate(laplacian_expr(m, f), np.asarray(p[0]), np.asarray(p[1]))
    return float(out)


def check_unit_gradient(
    m: ChartMetric, f, grid: GridSpec, tol: float = UNIT_GRADIENT_TOL
) -> Tuple[bool, float]:
    """Check |grad f|_g == 1 on the grid; returns (ok, max deviation)."""
    upts, vpts = grid.points()
    if not m.contains(upts, vpts):
        raise GeometryError("sample grid leaves the metric validity region")
    vals = m.evaluate(gradient_norm2_expr(m, f), upts, vpts)
    dev = float(np.max(np.abs(vals - 1.0)))
    return dev <= tol, dev


def curvature_condition_check(
    m: ChartMetric, f, grid: GridSpec, tol: float = MARGIN_TOL
) -> CurvatureReport:
    """Sample the margin -(K + (Delta f)^2) on the grid.

    Passes when the minimum sampled margin is >= -tol.  The report
    records the grid so a failure is reproducible.  The margin is the
    curvature condition only for unit-gradient f, which the caller
    checks (:func:`check_unit_gradient`).
    """
    upts, vpts = grid.points()
    if not m.contains(upts, vpts):
        raise GeometryError("sample grid leaves the metric validity region")
    margins = m.evaluate(margin_expr(m, f), upts, vpts)
    idx = np.unravel_index(np.argmin(margins), margins.shape)
    min_margin = float(margins[idx])
    return CurvatureReport(
        grid=grid,
        margins=margins,
        min_margin=min_margin,
        min_point=(float(upts[idx]), float(vpts[idx])),
        tol=tol,
        passed=min_margin >= -tol,
    )
