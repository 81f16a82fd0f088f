"""Properties of the solvers, checked over generated domains and metrics."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from surfspec import eigen  # noqa: E402
from surfspec.assembly import assemble_scalar  # noqa: E402
from surfspec.eigen import SolverOptions, solve_smallest  # noqa: E402
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
