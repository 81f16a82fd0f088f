"""Properties of the solvers, checked over generated domains and metrics."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from surfspec import eigen  # noqa: E402
from surfspec.eigen import SolverOptions, solve_smallest  # noqa: E402
from surfspec.geometry import builtin_metric  # noqa: E402
from surfspec.mesh import DomainSpec  # noqa: E402
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
