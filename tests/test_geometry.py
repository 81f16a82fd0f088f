"""Geometry tests.

The curvature oracle here is the Brioschi formula evaluated with
central finite differences of the raw metric components, and the
margin oracle adds the covariant Hessian of f built from differenced f
and metric components; both are independent of the symbolic
differentiation path.
"""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from surfspec.expr import BinOp, Call, Const, Neg, parse
from surfspec.geometry import (
    ChartMetric,
    GeometryError,
    GridSpec,
    builtin_metric,
    check_unit_gradient,
    curvature_condition_check,
    gaussian_curvature_expr,
    gradient_norm2_expr,
    laplacian_expr,
    margin_expr,
)

def fd_brioschi(m: ChartMetric, u: float, v: float) -> float:
    """Brioschi curvature from finite differences of g11, g12, g22.

    One step of Richardson extrapolation keeps the truncation error of
    the second differences well below the 1e-6 comparison tolerance.
    """
    coarse = _fd_brioschi_step(m, u, v, 2e-3)
    fine = _fd_brioschi_step(m, u, v, 1e-3)
    return (4.0 * fine - coarse) / 3.0


def _fd_brioschi_step(m: ChartMetric, u: float, v: float, H: float) -> float:
    def comp(which, uu, vv):
        return float(m.evaluate(which, np.asarray(uu), np.asarray(vv)))

    def d_u(which, uu, vv):
        return (comp(which, uu + H, vv) - comp(which, uu - H, vv)) / (2 * H)

    def d_v(which, uu, vv):
        return (comp(which, uu, vv + H) - comp(which, uu, vv - H)) / (2 * H)

    def d_uu(which, uu, vv):
        return (
            comp(which, uu + H, vv) - 2 * comp(which, uu, vv) + comp(which, uu - H, vv)
        ) / H**2

    def d_vv(which, uu, vv):
        return (
            comp(which, uu, vv + H) - 2 * comp(which, uu, vv) + comp(which, uu, vv - H)
        ) / H**2

    def d_uv(which, uu, vv):
        return (
            comp(which, uu + H, vv + H)
            - comp(which, uu + H, vv - H)
            - comp(which, uu - H, vv + H)
            + comp(which, uu - H, vv - H)
        ) / (4 * H**2)

    E, F, G = m.g11, m.g12, m.g22
    e, f, g = comp(E, u, v), comp(F, u, v), comp(G, u, v)
    m1 = np.array(
        [
            [
                -0.5 * d_vv(E, u, v) + d_uv(F, u, v) - 0.5 * d_uu(G, u, v),
                0.5 * d_u(E, u, v),
                d_u(F, u, v) - 0.5 * d_v(E, u, v),
            ],
            [d_v(F, u, v) - 0.5 * d_u(G, u, v), e, f],
            [0.5 * d_v(G, u, v), f, g],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * d_v(E, u, v), 0.5 * d_u(G, u, v)],
            [0.5 * d_v(E, u, v), e, f],
            [0.5 * d_u(G, u, v), f, g],
        ]
    )
    return (np.linalg.det(m1) - np.linalg.det(m2)) / (e * g - f * f) ** 2


def fd_margin(m: ChartMetric, f: str, u: float, v: float) -> float:
    """-(K + |Hess f|^2) from finite differences of f, g11, g12, g22.

    The covariant Hessian is d_a d_b f - Gamma^c_ab d_c f with the
    Christoffel symbols of the differenced metric; K is
    :func:`fd_brioschi`'s.  Richardson-extrapolated like it.
    """
    fe = parse(f)
    coarse = _fd_margin_step(m, fe, u, v, 2e-3)
    fine = _fd_margin_step(m, fe, u, v, 1e-3)
    return (4.0 * fine - coarse) / 3.0


def _fd_margin_step(m: ChartMetric, fe, u: float, v: float, H: float) -> float:
    def comp(which, du=0.0, dv=0.0):
        return float(m.evaluate(which, np.asarray(u + du), np.asarray(v + dv)))

    def first(which):
        return np.array([
            (comp(which, H, 0) - comp(which, -H, 0)) / (2 * H),
            (comp(which, 0, H) - comp(which, 0, -H)) / (2 * H),
        ])

    def second(which):
        c = comp(which)
        uu = (comp(which, H, 0) - 2 * c + comp(which, -H, 0)) / H**2
        vv = (comp(which, 0, H) - 2 * c + comp(which, 0, -H)) / H**2
        uv = (
            comp(which, H, H) - comp(which, H, -H)
            - comp(which, -H, H) + comp(which, -H, -H)
        ) / (4 * H**2)
        return np.array([[uu, uv], [uv, vv]])

    comps = [[m.g11, m.g12], [m.g12, m.g22]]
    g = np.array([[comp(e) for e in row] for row in comps])
    # dg[a, b, c] = d_c g_ab
    dg = np.array([[first(e) for e in row] for row in comps])
    ginv = np.linalg.inv(g)
    # Gamma^c_ab = 1/2 g^cd (d_a g_db + d_b g_da - d_d g_ab)
    lowered = np.einsum("dba->dab", dg) + dg - np.einsum("abd->dab", dg)
    gamma = 0.5 * np.einsum("cd,dab->cab", ginv, lowered)
    hess = second(fe) - np.einsum("cab,c->ab", gamma, first(fe))
    norm2 = np.einsum("ac,bd,ab,cd->", ginv, ginv, hess, hess)
    return -(_fd_brioschi_step(m, u, v, H) + norm2)


def tree_size(e) -> int:
    """Nodes of an expression tree, repeated subtrees counted each time."""
    if isinstance(e, (Neg, Call)):
        return 1 + tree_size(e.operand)
    if isinstance(e, BinOp):
        return 1 + tree_size(e.lhs) + tree_size(e.rhs)
    return 1


def at_point(m: ChartMetric, expr, p) -> float:
    """``expr`` evaluated at the chart point ``p = (u, v)``."""
    return float(m.evaluate(expr, np.asarray(p[0]), np.asarray(p[1])))


def half_plane(**kw):
    return builtin_metric("hyperbolic_half_plane", kw or {"validity": (-5, 5, 0.2, 5)})


# ---------------------------------------------------------------------------
# built-in families


def test_half_plane_curvature_is_minus_one():
    m = half_plane()
    rng = random.Random(3)
    for _ in range(50):
        p = (rng.uniform(-4, 4), rng.uniform(0.3, 4.5))
        K = at_point(m, gaussian_curvature_expr(m), p)
        assert K == pytest.approx(-1.0, abs=1e-10)


def test_half_plane_busemann_laplacian():
    # Delta(-log y) = -1 in the positive-spectrum convention.
    m = half_plane()
    f = parse("-log(y)")
    rng = random.Random(4)
    for _ in range(25):
        p = (rng.uniform(-4, 4), rng.uniform(0.3, 4.5))
        lap = at_point(m, laplacian_expr(m, f), p)
        assert lap == pytest.approx(-1.0, abs=1e-10)


def test_half_plane_busemann_unit_gradient_and_margin():
    m = half_plane()
    f = parse("-log(y)")
    grid = GridSpec((-2.0, 2.0), (0.5, 4.0), 32, 32)
    ok, dev = check_unit_gradient(m, f, grid)
    assert ok and dev <= 1e-10
    report = curvature_condition_check(m, f, grid)
    # K = -1 and |Hess|^2 = 1: the margin vanishes identically.
    assert report.passed
    assert abs(report.min_margin) <= 1e-10
    assert float(np.max(np.abs(report.margins))) <= 1e-10


def test_half_plane_horizontal_coordinate_is_not_distance():
    m = half_plane()
    ok, dev = check_unit_gradient(m, "x", GridSpec((-1, 1), (0.5, 3), 16, 16))
    assert not ok and dev > 1.0


def test_euclidean_flat():
    m = builtin_metric("euclidean", {"validity": (0, math.pi, 0, math.pi)})
    K = at_point(m, gaussian_curvature_expr(m), (1.0, 2.0))
    assert K == pytest.approx(0.0, abs=1e-14)
    grid = GridSpec((0, math.pi), (0, math.pi), 16, 16)
    ok, dev = check_unit_gradient(m, "x", grid)
    assert ok and dev == 0.0
    report = curvature_condition_check(m, "x", grid)
    assert report.passed and report.min_margin == pytest.approx(0.0, abs=1e-14)


def test_cusp_curvature_and_margin():
    m = builtin_metric("warped", {"phi": "exp(r)", "r_range": (-2.0, 0.5)})
    upts, vpts = GridSpec((-2, 0.5), (0, 2 * math.pi), 24, 24).points()
    K = m.evaluate(__import__("surfspec.geometry", fromlist=["x"]).gaussian_curvature_expr(m), upts, vpts)
    assert np.max(np.abs(K + 1.0)) <= 1e-10
    report = curvature_condition_check(m, "r", GridSpec((-2, 0.5), (0, 2 * math.pi), 24, 24))
    assert report.passed
    assert abs(report.min_margin) <= 1e-10
    # Delta r = -phi'/phi = -1 on the cusp
    lap = at_point(m, laplacian_expr(m, "r"), (-1.0, 1.0))
    assert lap == pytest.approx(-1.0, abs=1e-10)


def test_collar_curvature_and_margin():
    m = builtin_metric(
        "warped",
        {"phi": "l0*cosh(r)", "constants": {"l0": 0.25}, "r_range": (-2.0, 2.0)},
    )
    pts = np.linspace(-2.0, 2.0, 64)
    zeros = np.zeros_like(pts)
    K = m.evaluate(
        __import__("surfspec.geometry", fromlist=["x"]).gaussian_curvature_expr(m),
        pts,
        zeros,
    )
    assert np.max(np.abs(K + 1.0)) <= 1e-10
    margins = m.evaluate(margin_expr(m, "r"), pts, zeros)
    assert np.max(np.abs(margins - 1.0 / np.cosh(pts) ** 2)) <= 1e-10


def test_helicoid_margin_values():
    m = builtin_metric(
        "warped",
        {"phi": "sqrt(r^2+c^2)", "constants": {"c": 1.0}, "r_range": (-2.0, 2.0)},
    )
    def expected(t, c=1.0):
        return (c * c - t * t) / (t * t + c * c) ** 2

    me = margin_expr(m, "r")
    for t in (0.9, -0.9, 1.5, 0.0):
        got = float(m.evaluate(me, np.asarray(t), np.asarray(0.0)))
        assert got == pytest.approx(expected(t), rel=1e-12)
    assert expected(0.9) == pytest.approx(0.0580, abs=5e-5)
    assert expected(1.5) < 0

    good = curvature_condition_check(m, "r", GridSpec((-0.9, 0.9), (0, 2 * math.pi), 33, 9))
    assert good.passed
    bad = curvature_condition_check(m, "r", GridSpec((-1.5, 1.5), (0, 2 * math.pi), 33, 9))
    assert not bad.passed
    assert bad.min_margin < 0
    assert abs(abs(bad.min_point[0]) - 1.5) < 1e-12  # worst point at the rim


def test_catenoid_margin_sign():
    a = 0.8
    m = builtin_metric(
        "warped",
        {"phi": "sqrt(r^2+a^2)", "constants": {"a": a}, "r_range": (-2.0, 2.0)},
    )
    pts = np.linspace(-2.0, 2.0, 81)
    margins = m.evaluate(margin_expr(m, "r"), pts, np.zeros_like(pts))
    inside = np.abs(pts) <= a + 1e-12
    assert np.all(margins[inside] >= -1e-12)
    assert np.all(margins[~inside] < 0)


@pytest.mark.parametrize(
    "metric,f,grid",
    [
        (
            builtin_metric("warped", {"phi": "exp(r)", "r_range": (-1.0, 0.0)}),
            "r",
            GridSpec((-1.0, 0.0), (0, 2 * math.pi), 33, 17),
        ),
        (
            builtin_metric("warped", {"phi": "1", "r_range": (0.0, math.pi)}),
            "r",
            GridSpec((0.0, math.pi), (0, 2 * math.pi), 17, 17),
        ),
        (half_plane(), "-log(y)", GridSpec((0.0, 1.0), (1.0, math.e), 32, 32)),
    ],
    ids=["cusp", "flat-cylinder", "half-plane"],
)
def test_equality_case_min_point_is_first_sample(metric, f, grid):
    # the margin vanishes analytically: every sample ties up to round-off
    report = curvature_condition_check(metric, f, grid)
    assert report.passed and abs(report.min_margin) <= 1e-12
    assert report.min_point == (grid.u_range[0], grid.v_range[0])


def _warped_margin_cases():
    for c in (0.5, 1.0, 2.0):  # catenoid and helicoid profiles
        yield f"sqrt(r^2+{c}^2)", lambda r, c=c: (c * c - r * r) / (r * r + c * c) ** 2
    yield "cosh(r)", lambda r: 1.0 / np.cosh(r) ** 2  # funnel and collar
    yield "exp(r)", lambda r: 0.0 * r  # cusp
    yield "1", lambda r: 0.0 * r  # flat cylinder


@pytest.mark.parametrize(
    "phi,closed_form",
    list(_warped_margin_cases()),
    ids=["catenoid-0.5", "helicoid-1", "catenoid-2", "cosh", "cusp", "cylinder"],
)
def test_margin_closed_forms_of_paper_surfaces(phi, closed_form):
    m = builtin_metric("warped", {"phi": phi, "r_range": (-2.0, 2.0)})
    r = np.linspace(-2.0, 2.0, 41)
    got = m.evaluate(margin_expr(m, "r"), r, np.full_like(r, 0.7))
    assert np.max(np.abs(got - closed_form(r))) <= 1e-12


# ---------------------------------------------------------------------------
# cross-validation of the two curvature routes


WARPS = [
    ("cosh(r)", (-1.5, 1.5)),
    ("exp(r)", (-1.0, 1.0)),
    ("sqrt(r^2+1)", (-1.5, 1.5)),
    ("2+sin(r)", (-3.0, 3.0)),
]


@pytest.mark.parametrize("phi,rng_r", WARPS)
def test_warped_curvature_against_fd_brioschi(phi, rng_r):
    m = builtin_metric("warped", {"phi": phi, "r_range": rng_r})
    rng = random.Random(phi)
    for _ in range(100):
        u = rng.uniform(rng_r[0] + 0.1, rng_r[1] - 0.1)
        v = rng.uniform(0.5, 5.5)
        got = at_point(m, gaussian_curvature_expr(m), (u, v))
        want = fd_brioschi(m, u, v)
        assert abs(got - want) <= 1e-6 * max(abs(got), abs(want), 1e-3)


def test_general_family_brioschi_matches_warped_closed_form():
    phi = "cosh(r)"
    warped = builtin_metric("warped", {"phi": phi, "r_range": (-1.5, 1.5)})
    general = builtin_metric(
        "general",
        {
            "g11": "1",
            "g12": "0",
            "g22": f"({phi})^2",
            "vars": ("r", "theta"),
            "validity": (-1.5, 1.5, 0.0, 2 * math.pi),
        },
    )
    rng = random.Random(11)
    for _ in range(40):
        p = (rng.uniform(-1.4, 1.4), rng.uniform(0, 6))
        assert at_point(general, gaussian_curvature_expr(general), p) == pytest.approx(
            at_point(warped, gaussian_curvature_expr(warped), p), rel=1e-9, abs=1e-12
        )


def test_general_margin_path_matches_warped_closed_form():
    # K from the Brioschi formula against K = -phi_rr / phi, under the same
    # (Delta r)^2; the margin is the log-convexity (log phi)''
    phi = "sqrt(r^2+1)"
    warped = builtin_metric("warped", {"phi": phi, "r_range": (-1.5, 1.5)})
    general = builtin_metric(
        "general",
        {
            "g11": "1",
            "g12": "0",
            "g22": f"({phi})^2",
            "vars": ("r", "theta"),
            "validity": (-1.5, 1.5, 0.0, 2 * math.pi),
        },
    )
    upts = np.linspace(-1.2, 1.2, 21)
    vpts = np.full_like(upts, 1.0)
    closed = warped.evaluate(margin_expr(warped, "r"), upts, vpts)
    generic = general.evaluate(margin_expr(general, "r"), upts, vpts)
    assert np.max(np.abs(closed - generic)) <= 1e-9


def test_half_plane_margin_via_general_route_is_zero():
    # The half-plane takes K from the Brioschi formula, not a warp; the
    # Busemann margin must still vanish to tight tolerance.
    m = half_plane()
    f = parse("-log(y)")
    me = margin_expr(m, f)
    rng = random.Random(5)
    for _ in range(50):
        u, v = rng.uniform(-3, 3), rng.uniform(0.4, 4.0)
        assert float(m.evaluate(me, np.asarray(u), np.asarray(v))) == pytest.approx(
            0.0, abs=1e-10
        )


SHEARED_HALF_PLANE = {
    "g11": "1/y^2",
    "g12": "a/y^2",
    "g22": "(1+a^2)/y^2",
    "constants": {"a": 0.5},
    "vars": ("x", "y"),
    "validity": (-10.0, 10.0, 0.05, 10.0),
}

# (family, params, f, u range, v range); every f is unit-gradient
FD_MARGIN_CASES = {
    "sheared-half-plane": (
        "general", SHEARED_HALF_PLANE, "-log(y)", (-2.0, 2.0), (0.5, 3.0),
    ),
    "helicoid": (
        "warped",
        {"phi": "sqrt(r^2+c^2)", "constants": {"c": 1.0}, "r_range": (-2.0, 2.0)},
        "r", (-1.8, 1.8), (0.5, 5.5),
    ),
    "collar": (
        "warped",
        {"phi": "l0*cosh(r)", "constants": {"l0": 0.25}, "r_range": (-2.0, 2.0)},
        "r", (-1.8, 1.8), (0.5, 5.5),
    ),
    # dr^2 + phi(r)^2 (dx - a dr)^2 with r = y: a warped product in a
    # sheared chart, so g12 != 0 and the margin (log phi)'' is not zero
    "general-warped": (
        "general",
        {
            "g11": "(2+sin(y))^2",
            "g12": "-a*(2+sin(y))^2",
            "g22": "1+a^2*(2+sin(y))^2",
            "constants": {"a": 0.7},
            "vars": ("x", "y"),
            "validity": (-5.0, 5.0, -3.0, 3.0),
        },
        "y", (-2.0, 2.0), (-2.5, 2.5),
    ),
}


@pytest.mark.parametrize("case", sorted(FD_MARGIN_CASES))
def test_margin_against_fd_covariant_hessian(case):
    family, params, f, u_range, v_range = FD_MARGIN_CASES[case]
    m = builtin_metric(family, params)
    me = margin_expr(m, f)
    rng = random.Random(case)
    for _ in range(25):
        u, v = rng.uniform(*u_range), rng.uniform(*v_range)
        got = float(m.evaluate(me, np.asarray(u), np.asarray(v)))
        want = fd_margin(m, f, u, v)
        # K and |Hess f|^2 are of order one, and second differences at step
        # 1e-3 leave about 1e-9 of round-off, also where the margin is zero
        assert abs(got - want) <= 1e-7


def test_sheared_margin_tree_is_small():
    m = builtin_metric("general", SHEARED_HALF_PLANE)
    assert tree_size(margin_expr(m, "-log(y)")) < 1000


def test_sheared_screen_memory_stays_at_chunk_scale():
    # the margin and |grad f|^2 on the 512 x 512 screening grid; walking
    # the tree over whole arrays peaks at about 21 MB, the two results
    # alone take 4.2 MB
    m = builtin_metric("general", SHEARED_HALF_PLANE)
    roots = (margin_expr(m, "-log(y)"), gradient_norm2_expr(m, "-log(y)"))
    upts, vpts = GridSpec((0.0, 1.0), (1.0, math.e), 512, 512).points()
    tracemalloc.start()
    try:
        margin, grad2 = m.evaluate(roots, upts, vpts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.max(np.abs(grad2 - 1.0)) < 1e-12
    assert np.max(np.abs(margin)) < 1e-9


def test_evaluating_a_tuple_matches_one_call_each():
    m = builtin_metric("general", SHEARED_HALF_PLANE)
    exprs = (m.g11, m.g12, Const(2.0), gaussian_curvature_expr(m))
    upts, vpts = GridSpec((0.0, 1.0), (1.0, 2.0), 9, 7).points()
    together = m.evaluate(exprs, upts, vpts)
    assert isinstance(together, tuple) and len(together) == len(exprs)
    for e, got in zip(exprs, together):
        want = m.evaluate(e, upts, vpts)
        assert got.shape == upts.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# validation errors


def test_unknown_family():
    with pytest.raises(GeometryError):
        builtin_metric("spherical", {})


def test_warped_requires_phi():
    with pytest.raises(GeometryError, match="phi"):
        builtin_metric("warped", {"r_range": (0, 1)})


@pytest.mark.parametrize("family,params,message", [
    ("hyperbolic_half_plane", {"validity": (0, 1, 0, 1)}, "requires y > 0"),
    ("hyperbolic_half_plane", {"validity": (0, 1, -1, 1)}, "requires y > 0"),
    ("warped", {"phi": "exp(r)"}, "requires 'r_range'"),
    ("warped", {"phi": "q*r", "r_range": (0, 1)}, r"unknown variables \['q'\]"),
    ("general", {"g11": "1"}, r"requires \['g12', 'g22'\]"),
])
def test_builtin_metric_refusals_name_the_problem(family, params, message):
    with pytest.raises(GeometryError, match=message):
        builtin_metric(family, params)


def test_warped_validity_is_r_range_and_the_period():
    # the 'validity' spelling of a warped chart box: r_range and [0, period]
    for period in (2.0 * math.pi, 3.0):
        by_range = builtin_metric("warped", {
            "phi": "exp(r)", "r_range": (-1.0, 0.0), "theta_period": period,
        })
        by_validity = builtin_metric("warped", {
            "phi": "exp(r)", "validity": (-1.0, 0.0, 0.0, period),
            "theta_period": period,
        })
        assert by_validity.validity == by_range.validity == (-1.0, 0.0, 0.0, period)
        assert by_validity.theta_period == by_range.theta_period == period


def test_warp_positivity_failure_names_sample():
    with pytest.raises(GeometryError, match="not strictly positive"):
        builtin_metric("warped", {"phi": "r", "r_range": (-1.0, 1.0)})


def test_general_requires_positive_definite():
    with pytest.raises(GeometryError, match="positive definite"):
        builtin_metric(
            "general",
            {"g11": "1", "g12": "2", "g22": "1", "validity": (0, 1, 0, 1)},
        )


def test_overflowing_metric_reported_as_not_finite():
    # exp(2y) overflows at the default validity bound y = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="not finite.*validity"):
            builtin_metric(
                "general",
                {"g11": "exp(2*v)", "g12": "0", "g22": "exp(2*v)"},
            )


def test_unrecognized_parameter_rejected():
    with pytest.raises(GeometryError, match="unrecognized"):
        builtin_metric("euclidean", {"warp": "1"})


def test_validity_slack_scales_with_each_bound():
    m = builtin_metric("hyperbolic_half_plane")  # validity (-1e6, 1e6, 1e-6, 1e6)
    assert not m.contains(np.array([0.5]), np.array([0.0]))
    assert m.contains(np.array([0.5]), np.array([1e-6 - 1e-19]))
    assert m.contains(np.array([1e6 + 1e-7]), np.array([1e6 + 1e-7]))
    assert not m.contains(np.array([1e6 + 1e-5]), np.array([1.0]))


def test_grid_outside_validity_rejected():
    m = half_plane(validity=(-1, 1, 0.5, 2))
    with pytest.raises(GeometryError, match="validity"):
        check_unit_gradient(m, "-log(y)", GridSpec((-1, 1), (0.1, 2), 8, 8))
