"""Properties of the solvers and the expression parser, checked over
generated domains, metrics and expression texts."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from surfspec import eigen  # noqa: E402
from surfspec.assembly import assemble_scalar  # noqa: E402
from surfspec.eigen import SolverOptions, solve_smallest  # noqa: E402
from surfspec.expr import FUNCTIONS, ExprError, parse  # noqa: E402
from surfspec.geometry import builtin_metric  # noqa: E402
from surfspec.mesh import (  # noqa: E402
    EXTENT_COUNT,
    DomainSpec,
    _vertex_count,
    refine,
    triangulate,
)
from surfspec.verify import LevelCache  # noqa: E402

# on a failure hypothesis imports libcst to write its patch file, and that
# import warns; under the warnings-as-errors setting the warning would turn
# the failure into an internal error that stops the whole session
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

# family -> (metric, domain of extent scale s and resolution n)
FAMILIES = {
    "euclidean": (
        builtin_metric("euclidean"),
        lambda s, n: DomainSpec.rectangle(0, s * math.pi, 0, s * math.pi, n),
    ),
    "half-plane": (
        builtin_metric("hyperbolic_half_plane"),
        lambda s, n: DomainSpec.rectangle(0, s, 1, 1 + s * (math.e - 1), n),
    ),
    "cusp band": (
        builtin_metric("warped", {"phi": "exp(r)", "r_range": (-1.0, 0.0)}),
        lambda s, n: DomainSpec.periodic_band(-s, 0, n),
    ),
    # theta couplings are the strong ones: the V-cycle smooths along rings
    "thin band": (
        builtin_metric("warped", {"phi": "0.05", "r_range": (0.0, 1.0)}),
        lambda s, n: DomainSpec.periodic_band(0, s, n),
    ),
    # a constant shear: lines cover most unknowns, and A_l also has positive
    # couplings off the lines
    "sheared lines": (
        builtin_metric("general", {
            "g11": "1", "g12": "3", "g22": "10", "vars": ["x", "y"],
            "validity": [-1.0, 2.0, -1.0, 2.0],
        }),
        lambda s, n: DomainSpec.rectangle(0, s, 0, s, n),
    ),
}

BC_AND_K = st.one_of(
    st.tuples(st.just("dirichlet"), st.integers(1, 3)),
    st.tuples(st.just("neumann"), st.integers(2, 4)),
)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    scale=st.floats(0.5, 1.0),
    resolution=st.integers(4, 6),
    bc_and_k=BC_AND_K,
)
def test_nested_spectra_equal_cold_solves(family, scale, resolution, bc_and_k):
    # with every level above 10 unknowns sparse, levels 1-2 are nested
    # LOBPCG solves on the level-0 factor's V-cycle; each must give the
    # spectrum that a cold solve of the same pencil gives
    bc, k = bc_and_k
    metric, domain = FAMILIES[family]
    options = SolverOptions()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigen, "DENSE_MAX_DIM", 10)
        cache = LevelCache(domain(scale, resolution), metric, options)
        for level in range(3):
            nested = cache.spectrum(level, bc, k)
            pencil = cache.pencil(level, bc)
            cold = solve_smallest(
                pencil.stiffness, pencil.mass, k, bc=bc, options=options
            )
            assert nested.converged
            scale_of = max(float(np.max(cold.values)), 1.0)
            assert np.max(np.abs(nested.values - cold.values)) <= 1e-9 * scale_of
        assert nested.method == "lobpcg-multigrid"


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    scale=st.floats(0.5, 1.0),
    resolution=st.integers(4, 6),
    rule=st.sampled_from(["midpoint", "degree5"]),
)
def test_neumann_values_bracket_dirichlet_values(family, scale, resolution, rule):
    # the Dirichlet pencil is the Neumann one restricted to a subspace, so
    # on one mesh mu_k <= lambda_k for every k (min-max)
    metric, domain = FAMILIES[family]
    cache = LevelCache(domain(scale, resolution), metric, SolverOptions(quad_rule=rule))
    for level in (0, 1):
        mu = cache.spectrum(level, "neumann", 6).values
        lam = cache.spectrum(level, "dirichlet", 6).values
        assert np.all(mu <= lam * (1 + 1e-9))


# shape -> Euclidean domain of extent scale s and resolution n
EUCLIDEAN_DOMAINS = {
    "rectangle": lambda s, n: DomainSpec.rectangle(0, s * math.pi, 0, math.pi, n),
    "disk": lambda s, n: DomainSpec.disk(0, 0, s, n),
    "annulus": lambda s, n: DomainSpec.annulus(0, 0, s, 1 + s, n),
    "band": lambda s, n: DomainSpec.periodic_band(0, s * math.pi, n),
}


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(EUCLIDEAN_DOMAINS)),
    scale=st.floats(0.5, 2.0),
    resolution=st.integers(3, 6),
    rule=st.sampled_from(["midpoint", "degree5"]),
)
def test_refinement_never_raises_euclidean_values(shape, scale, resolution, rule):
    # both rules integrate the Euclidean P1 mass and stiffness exactly, and
    # each refined P1 space holds the coarser one, so no Rayleigh-Ritz value
    # rises from a level to the next (min-max); 1e-12 of the level's largest
    # value is room for the rounding of the Neumann zero mode
    cache = LevelCache(
        EUCLIDEAN_DOMAINS[shape](scale, resolution), builtin_metric("euclidean"),
        SolverOptions(quad_rule=rule),
    )
    for bc, k in (("dirichlet", 3), ("neumann", 4)):
        values = [cache.spectrum(level, bc, k).values for level in range(3)]
        for coarse, fine in zip(values, values[1:]):
            assert np.all(fine <= coarse + 1e-12 * np.max(coarse))


# shape -> domain of resolution n inside the conformal metrics' validity box
CONFORMAL_DOMAINS = {
    "rectangle": lambda n: DomainSpec.rectangle(-1, 2, -0.5, 1, n),
    "disk": lambda n: DomainSpec.disk(0.5, -0.5, 2, n),
    "annulus": lambda n: DomainSpec.annulus(0, 0, 1, 2.5, n),
}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    a=st.floats(-1, 1),
    b=st.floats(-1, 1),
    shape=st.sampled_from(sorted(CONFORMAL_DOMAINS)),
    resolution=st.integers(4, 8),
    rule=st.sampled_from(["midpoint", "degree5"]),
)
def test_conformal_factor_leaves_the_stiffness_unchanged(a, b, shape, resolution, rule):
    # for g = rho I, sqrt(det g) g^-1 is the identity: the Dirichlet energy
    # is conformally invariant in two dimensions, and the factor rho enters
    # only the mass
    rho = "exp(a*x + b*y)"
    conformal = builtin_metric("general", {
        "g11": rho, "g12": "0", "g22": rho, "constants": {"a": a, "b": b},
        "vars": ["x", "y"], "validity": [-3.0, 3.0, -3.0, 3.0],
    })
    mesh = triangulate(CONFORMAL_DOMAINS[shape](resolution))
    got = assemble_scalar(mesh, conformal, rule).stiffness
    want = assemble_scalar(mesh, builtin_metric("euclidean"), rule).stiffness
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(
    shape=st.sampled_from(sorted(CONFORMAL_DOMAINS)),
    resolution=st.integers(4, 8),
    rule=st.sampled_from(["midpoint", "degree5"]),
)
def test_metric_scaling_divides_the_spectrum(shape, resolution, rule):
    # for g = 4 I, sqrt(det g) g^-1 is the identity and sqrt(det g) = 4: the
    # stiffness is the Euclidean one, the mass 4 times it, and so every
    # eigenvalue is a quarter of the Euclidean one
    scaled = builtin_metric("general", {
        "g11": "4", "g12": "0", "g22": "4", "vars": ["x", "y"],
        "validity": [-3.0, 3.0, -3.0, 3.0],
    })
    domain = CONFORMAL_DOMAINS[shape](resolution)
    caches = [
        LevelCache(domain, m, SolverOptions(quad_rule=rule))
        for m in (scaled, builtin_metric("euclidean"))
    ]
    for level in (0, 1):
        got, want = (cache.operators(level) for cache in caches)
        assert (got.stiffness != want.stiffness).nnz == 0
        assert (got.mass != 4 * want.mass).nnz == 0
        for bc, k in (("dirichlet", 3), ("neumann", 4)):
            got, want = (cache.spectrum(level, bc, k).values for cache in caches)
            assert np.max(np.abs(4 * got - want)) <= 1e-12 * np.max(want)


# map -> (metric it preserves, the map applied to a rectangle's extents
# (x0, x1, y0, y1) with a shift t)
ISOMETRIES = {
    "half-plane dilation": (
        builtin_metric("hyperbolic_half_plane"),
        lambda e, t: tuple(3 * v for v in e),
    ),
    "euclidean translation": (
        builtin_metric("euclidean"),
        lambda e, t: (e[0] + t, e[1] + t, e[2] - 2 * t, e[3] - 2 * t),
    ),
}


@pytest.mark.parametrize("rule", ["midpoint", "degree5"])
@pytest.mark.parametrize("isometry", sorted(ISOMETRIES))
@settings(max_examples=4, derandomize=True, deadline=None, database=None)
@given(
    x=st.floats(-1, 1),
    y=st.floats(0.5, 2),
    a=st.floats(0.5, 2),
    b=st.floats(0.5, 2),
    shift=st.floats(-5, 5),
    resolution=st.integers(4, 6),
)
def test_chart_isometries_leave_the_spectrum_unchanged(
    isometry, rule, x, y, a, b, shift, resolution
):
    # an isometry of the chart metric maps the mesh onto the mesh of the
    # image and the rule points onto its rule points, so the discrete
    # spectra agree up to rounding
    metric, move = ISOMETRIES[isometry]
    extents = (x, x + a, y, y + b)
    caches = [
        LevelCache(DomainSpec.rectangle(*e, resolution), metric, SolverOptions(quad_rule=rule))
        for e in (extents, move(extents, shift))
    ]
    for level in (0, 1):
        for bc, k in (("dirichlet", 3), ("neumann", 4)):
            got, want = (cache.spectrum(level, bc, k).values for cache in caches)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def twisted_band_cache(a, b, c, resolution, rule="midpoint"):
    """The level cache of the band r in [0, 1] under the twisted metric
    dr^2 + phi^2 dtheta^2, phi = exp(a r) (1 + b sin(theta + c))."""
    metric = builtin_metric("twisted", {
        "phi": "exp(a*r)*(1 + b*sin(theta + c))",
        "constants": {"a": a, "b": b, "c": c},
        "r_range": (0.0, 1.0),
    })
    domain = DomainSpec.periodic_band(0, 1, resolution)
    return LevelCache(domain, metric, SolverOptions(quad_rule=rule))


@pytest.mark.parametrize("rule", ["midpoint", "degree5"])
@settings(max_examples=9, derandomize=True, deadline=None, database=None)
@given(
    a=st.floats(-1, 1),
    b=st.floats(0, 0.5),
    cells=st.integers(1, 9),
    resolution=st.integers(5, 10),
)
def test_theta_shifts_leave_the_spectrum_unchanged(rule, a, b, cells, resolution):
    # the band has max(3, n) angle cells; a shift of theta by whole cells
    # maps its mesh onto itself and the rule points onto rule points, so
    # the twisted metric and its shift have the same discrete spectra up to
    # rounding (a warped phi(r) would make the shift the identity)
    shift = 2 * math.pi * cells / max(3, resolution)
    caches = [twisted_band_cache(a, b, c, resolution, rule) for c in (0.0, shift)]
    for level in (0, 1):
        for bc, k in (("dirichlet", 3), ("neumann", 4)):
            got, want = (cache.spectrum(level, bc, k).values for cache in caches)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_a_half_cell_theta_shift_moves_the_neumann_spectrum():
    # half a cell is no symmetry of the mesh: the move is far above the
    # 1e-12 that the whole-cell property allows
    caches = [twisted_band_cache(0.5, 0.5, c, 8) for c in (0.0, math.pi / 8)]
    got, want = (cache.spectrum(0, "neumann", 4).values for cache in caches)
    assert np.max(np.abs(got - want)) >= 1e-5 * np.max(want)


LITERALS = ("0", "1", "2", "0.5", "2.5", "700", "1000", "1e300")


def _compound(inner):
    return st.one_of(
        st.tuples(st.sampled_from(FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("".join),
        # a power of a compound base, closed or not, to a literal
        st.tuples(inner, st.sampled_from(("2.5", "1e300"))).map("({0[0]})^{0[1]}".format),
    )


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(text=st.recursive(st.sampled_from(("x", "y") + LITERALS), _compound, max_leaves=8))
def test_parse_refuses_or_round_trips(text):
    # every text is refused with an ExprError, or its canonical form
    # reparses to an equal tree and re-serializes to itself
    try:
        e = parse(text)
    except ExprError:
        return
    again = parse(str(e))
    assert again == e and str(again) == str(e)


@st.composite
def domains(draw):
    """A domain of any shape, resolution 2-12, with corners or centres in
    [-2, 2]^2 and sides, radii, radial widths and theta periods in [0.2, 2]
    (so a rectangle's aspect ratio is at most 10)."""
    shape = draw(st.sampled_from(sorted(EXTENT_COUNT)))
    x, y = draw(st.floats(-2, 2)), draw(st.floats(-2, 2))
    a, b = draw(st.floats(0.2, 2)), draw(st.floats(0.2, 2))
    extents = {
        "rectangle": (x, x + a, y, y + b),
        "periodic_band": (x, x + a),
        "disk": (x, y, a),
        "annulus": (x, y, a, a + b),
    }[shape]
    return DomainSpec(shape, draw(st.integers(2, 12)), extents, theta_period=b)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(domain=domains())
def test_vertex_count_and_bound_hold_over_shapes(domain):
    # the size DomainSpec refuses by is the size triangulate builds, and the
    # refinement bound holds at every level it is asked about
    mesh = triangulate(domain)
    assert _vertex_count(domain.shape, domain.n, domain.extents) == len(mesh.verts)
    assert domain.vertex_bound(0) >= len(mesh.verts)
    for level in (1, 2):
        mesh = refine(mesh)
        assert domain.vertex_bound(level) >= len(mesh.verts)
