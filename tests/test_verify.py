"""Theorem-level checks on the built-in example domains."""

import gc
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.csgraph import connected_components

from surfspec import eigen, verify
from surfspec.eigen import EigenError, SolverOptions, solve_smallest
from surfspec.geometry import builtin_metric
from surfspec.mesh import DomainSpec, refine, triangulate
from surfspec.verify import (
    LevelCache,
    VerifyError,
    convergence_study,
    cylinder_oracle,
    hodge_dimension_check,
    lemma_check,
    recompute_pass,
    spectrum_union_check,
    verify_inequality,
)

FLAT = builtin_metric("euclidean")
HALF_PLANE = builtin_metric("hyperbolic_half_plane")


def flat_cylinder():
    return builtin_metric("warped", {"phi": "1", "r_range": (0.0, math.pi)})


def cusp_metric():
    return builtin_metric("warped", {"phi": "exp(r)", "r_range": (-1.0, 0.0)})


# ---------------------------------------------------------------------------
# cylinder oracle


def test_cylinder_oracle_lists():
    dirichlet, neumann = cylinder_oracle(3)
    assert dirichlet[:8] == [1, 2, 2, 4, 5, 5, 5, 5]
    assert neumann[:9] == [0, 1, 1, 1, 2, 2, 4, 4, 4]


def test_cylinder_oracle_interlacing():
    # one Neumann value slides below each Dirichlet value
    dirichlet, neumann = cylinder_oracle(10)
    for m in range(1, 21):
        assert neumann[m] <= dirichlet[m - 1]


def test_cylinder_oracle_validation():
    with pytest.raises(VerifyError, match="at least 1"):
        cylinder_oracle(0)


# ---------------------------------------------------------------------------
# main inequality


def test_inequality_flat_square():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 8)
    report = verify_inequality(domain, FLAT, "x", levels=2)
    q = report.quantities
    assert report.passed
    assert q["betti1"] == 0 and q["mu_order"] == 3
    final = q["levels"][-1]
    assert final["lambda1"] == pytest.approx(2.0, rel=0.02)
    assert final["mu"][2] == pytest.approx(1.0, rel=0.02)
    assert final["margin"] == pytest.approx(1.0, abs=0.06)
    assert q["strict_margin"] > 0.9
    assert recompute_pass(report) == report.passed


def test_inequality_cylinder_band_equality_case():
    metric = flat_cylinder()
    domain = DomainSpec.periodic_band(0, math.pi, 8)
    report = verify_inequality(domain, metric, "r", levels=2)
    q = report.quantities
    assert report.passed
    assert q["betti1"] == 1 and q["mu_order"] == 2
    for row in q["levels"]:
        assert abs(row["margin"]) <= row["tol_h"]
        assert row["lambda1"] == pytest.approx(1.0, rel=0.03)
        assert row["mu"][1] == pytest.approx(1.0, rel=0.03)
    assert recompute_pass(report)


def test_inequality_hyperbolic_rectangle_strict():
    domain = DomainSpec.rectangle(0, 1, 1, math.e, 8)
    report = verify_inequality(domain, HALF_PLANE, "-log(y)", levels=2)
    q = report.quantities
    assert report.passed
    assert q["betti1"] == 0
    assert q["strict_margin"] > 0
    assert "strictness_note" in q
    assert recompute_pass(report)


def test_inequality_refuses_failing_curvature():
    metric = builtin_metric(
        "warped", {"phi": "sqrt(r^2 + 1)", "r_range": (-1.5, 1.5)}
    )
    domain = DomainSpec.periodic_band(-1.5, 1.5, 4)
    report = verify_inequality(domain, metric, "r", levels=1)
    assert not report.passed
    assert report.quantities["refused"]
    assert "curvature" in report.quantities["reason"]
    assert recompute_pass(report) is False


def test_inequality_refuses_non_unit_gradient():
    domain = DomainSpec.rectangle(0, 1, 1, 2, 4)
    report = verify_inequality(domain, HALF_PLANE, "x", levels=1)
    assert not report.passed
    assert "unit-gradient" in report.quantities["reason"]


def test_inequality_period_mismatch():
    metric = flat_cylinder()
    domain = DomainSpec.periodic_band(0, math.pi, 4, theta_period=3.0)
    with pytest.raises(VerifyError, match="period"):
        verify_inequality(domain, metric, "r", levels=1)


def test_inequality_needs_a_level():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 4)
    with pytest.raises(VerifyError, match="at least 1 level"):
        verify_inequality(domain, FLAT, "x", levels=0)


# ---------------------------------------------------------------------------
# lemma bound


def test_lemma_flat_square():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 8)
    report = lemma_check(domain, FLAT, "x")
    assert report.passed
    coarse = report.quantities["coarse"]
    assert coarse["alpha_nu"] == pytest.approx(coarse["lambda1"], rel=1e-9)
    assert recompute_pass(report)


def test_lemma_hyperbolic_rectangle():
    domain = DomainSpec.rectangle(0, 1, 1, math.e, 8)
    report = lemma_check(domain, HALF_PLANE, "-log(y)")
    assert report.passed
    q = report.quantities
    assert q["fine"]["cross_ratio"] <= q["coarse"]["cross_ratio"] + 1e-12
    assert recompute_pass(report)


def test_lemma_cusp_band():
    domain = DomainSpec.periodic_band(-1, 0, 8)
    report = lemma_check(domain, cusp_metric(), "r")
    assert report.passed
    assert recompute_pass(report)


# ---------------------------------------------------------------------------
# spectrum union


@pytest.mark.parametrize(
    "domain,metric",
    [
        (DomainSpec.rectangle(0, math.pi, 0, math.pi, 8), FLAT),
        (DomainSpec.periodic_band(0, math.pi, 8), None),  # flat cylinder
        (DomainSpec.rectangle(0, 1, 1, 2, 8), HALF_PLANE),
    ],
    ids=["square", "band", "hyperbolic"],
)
def test_spectrum_union(domain, metric):
    metric = metric or flat_cylinder()
    report = spectrum_union_check(domain, metric)
    q = report.quantities
    assert report.passed
    assert q["max_rel_difference"] <= 1e-8
    assert q["zero_modes"] == q["betti1"]
    assert len(q["oneform_positive"]) == 10
    assert recompute_pass(report)


def test_spectrum_union_band_above_old_edge_boundary():
    # b1 = 1 at level 1 with more than 4,000 edges, where the harmonic
    # fields once needed a different (unseeded) solver
    domain = DomainSpec.periodic_band(0, math.pi, 20)
    metric = flat_cylinder()
    first = spectrum_union_check(domain, metric, level=1)
    second = spectrum_union_check(domain, metric, level=1)
    q = first.quantities
    assert refine(triangulate(domain)).n_edges > 4000
    assert first.passed and q["zero_modes"] == q["betti1"] == 1
    assert recompute_pass(first)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def small_warped_band():
    return LevelCache(
        DomainSpec.periodic_band(0, 0.5, 5),
        builtin_metric("warped", {"phi": "0.05", "r_range": (0.0, 1.0)}),
    )


def test_nested_lobpcg_breakdown_is_an_eigen_error(monkeypatch):
    # a V-cycle that returns zeros leaves the nested solve no search
    # direction; pair 1, the constant, is converged at its start
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    monkeypatch.setattr(
        LevelCache, "_vcycle", lambda self, level, bc: lambda r: np.zeros_like(r)
    )
    with pytest.raises(EigenError, match=(
        r"LOBPCG broke down at pair 2 of 6 eigenpairs of dimension 110: "
        r"a search direction has no M-norm left"
    )):
        small_warped_band().spectrum(1, "neumann", 6)


def test_nested_solve_of_a_small_warped_band_matches_a_cold_one(monkeypatch):
    # scipy's block LOBPCG broke down in its own postprocessing on this
    # level-1 pencil of dimension 110; the pairwise solve converges there
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    cache = small_warped_band()
    nested = cache.spectrum(1, "neumann", 6)
    assert nested.method == "lobpcg-multigrid" and nested.converged
    pencil = cache.pencil(1, "neumann")
    cold = solve_smallest(pencil.stiffness, pencil.mass, 6, options=cache.options)
    scale = float(np.max(cold.values))
    assert np.max(np.abs(nested.values - cold.values)) <= 1e-8 * scale


def test_spectrum_union_refuses_an_unconverged_oneform_solve(monkeypatch):
    solve_oneform = verify.solve_oneform

    def unconverged(*args, **kwargs):
        result = solve_oneform(*args, **kwargs)
        result.converged = False
        return result

    monkeypatch.setattr(verify, "solve_oneform", unconverged)
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 8)
    with pytest.raises(EigenError, match="the level-0 oneform eigensolve did not"):
        spectrum_union_check(domain, FLAT)


# ---------------------------------------------------------------------------
# Hodge dimensions


def test_hodge_dimension_rectangle_counts():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 4))
    report = hodge_dimension_check(mesh)
    q = report.quantities
    assert report.passed
    assert (q["rank_d0"], q["rank_d1"]) == (24, 32)
    assert q["harmonic_dimension"] == 0
    assert q["n_edges"] == 56


def test_hodge_dimension_band_counts():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4))
    report = hodge_dimension_check(mesh)
    q = report.quantities
    assert report.passed
    assert (q["rank_d0"], q["rank_d1"]) == (19, 32)
    assert q["harmonic_dimension"] == 1
    assert q["n_edges"] == 52


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, 2, 0, 1, 4),
        DomainSpec.periodic_band(0, 1, 4),
        DomainSpec.disk(0, 0, 1, 3),
        DomainSpec.annulus(0, 0, 1, 2, 4),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_hodge_ranks_match_matrix_rank(domain, level):
    mesh = triangulate(domain)
    for _ in range(level):
        mesh = refine(mesh)
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_faces
    d0 = np.zeros((E, V))
    d0[np.arange(E), mesh.edges[:, 1]] = 1.0
    d0[np.arange(E), mesh.edges[:, 0]] = -1.0
    d1 = np.zeros((F, E))
    d1[np.repeat(np.arange(F), 3), mesh.tri_edges.ravel()] = (
        mesh.tri_edge_signs.ravel()
    )
    q = hodge_dimension_check(mesh).quantities
    assert q["rank_d0"] == np.linalg.matrix_rank(d0)
    assert q["rank_d1"] == np.linalg.matrix_rank(d1)


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.disk(0, 0, 1, 2),
        DomainSpec.annulus(0, 0, 1, 2, 4),
    ],
    ids=["disk", "annulus"],
)
def test_hodge_dimension_other_shapes(domain):
    report = hodge_dimension_check(triangulate(domain))
    assert report.passed
    assert recompute_pass(report)


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_flat_square_dirichlet():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 8)
    report = convergence_study(domain, FLAT, "dirichlet", levels=3)
    q = report.quantities
    assert report.passed
    assert 1.8 <= q["fitted_order"] <= 2.2
    assert q["extrapolated"] == pytest.approx(2.0, rel=1e-3)
    assert recompute_pass(report)


def test_convergence_flat_square_neumann():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 8)
    report = convergence_study(domain, FLAT, "neumann", levels=3)
    q = report.quantities
    assert report.passed
    assert q["extrapolated"] == pytest.approx(1.0, rel=1e-3)


def test_convergence_validation():
    domain = DomainSpec.rectangle(0, 1, 0, 1, 4)
    with pytest.raises(VerifyError, match="3 levels"):
        convergence_study(domain, FLAT, "dirichlet", levels=2)
    with pytest.raises(VerifyError, match="boundary condition"):
        convergence_study(domain, FLAT, "robin", levels=3)


def test_level_cache_rejects_bad_requests():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 4)
    cache = LevelCache(DomainSpec.rectangle(0, 1, 0, 1, 4), FLAT)
    with pytest.raises(VerifyError, match="level cache"):
        convergence_study(domain, FLAT, cache=cache)
    with pytest.raises(VerifyError, match="negative"):
        spectrum_union_check(domain, FLAT, level=-1)


def _must_not_assemble(*args, **kwargs):
    raise AssertionError("assembled before the range check")


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "oneform"])
def test_level_cache_checks_the_range_before_assembly(monkeypatch, bc):
    # the number of pairs is read off the mesh: on a band (b1 = 1) of 5 x 4
    # vertices, 12 interior ones, the 1-form spectrum has 19 + 12 + 1
    monkeypatch.setattr(verify, "assemble_scalar", _must_not_assemble)
    monkeypatch.setattr(verify, "assemble_oneform", _must_not_assemble)
    cache = LevelCache(DomainSpec.periodic_band(-1, 0, 4), cusp_metric())
    pairs = cache.pairs(0, bc)
    assert pairs == {"dirichlet": 12, "neumann": 20, "oneform": 32}[bc]
    for k in (0, pairs + 1):
        with pytest.raises(EigenError, match=(
            f"requested {k} eigenpairs; the level-0 {bc} spectrum has {pairs}"
        )):
            cache.spectrum(0, bc, k)


def test_oneform_spectrum_of_the_union_is_solved_once(monkeypatch):
    calls = []
    solve_oneform = verify.solve_oneform

    def counted(ops, k, **kwargs):
        calls.append(k)
        return solve_oneform(ops, k, **kwargs)

    monkeypatch.setattr(verify, "solve_oneform", counted)
    domain, metric = DomainSpec.periodic_band(0, math.pi, 8), flat_cylinder()
    cache = LevelCache(domain, metric)
    report = spectrum_union_check(domain, metric, count=6, cache=cache)
    one = cache.spectrum(0, "oneform", 7)  # count + b1 values, one zero
    assert calls == [7]
    assert report.quantities["oneform_positive"] == [float(v) for v in one.values[1:]]
    # the full spectrum has pairs(0, "oneform") values, b1 of them zero
    total = cache.pairs(0, "oneform")
    assert cache.spectrum(0, "oneform", total).values.shape == (total,)


def test_nested_spectra_match_cold_solves(monkeypatch):
    # every level sparse, so levels 1 and 2 start from the coarser solve
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    options = SolverOptions()
    cache = LevelCache(DomainSpec.rectangle(0, 1, 1, math.e, 4), HALF_PLANE, options)
    for bc, k in (("dirichlet", 2), ("neumann", 4)):
        cold_shifts = []
        for level in range(3):
            warm = cache.spectrum(level, bc, k)
            pencil = cache.pencil(level, bc)
            cold = solve_smallest(
                pencil.stiffness, pencil.mass, k, bc=bc, options=options,
            )
            assert cold.method == "shift-invert-lanczos"
            assert warm.method == (
                "shift-invert-lanczos" if level == 0 else "lobpcg-multigrid"
            )
            assert warm.converged
            assert np.all(warm.residuals <= options.tol)
            scale = float(np.max(cold.values))
            assert np.max(np.abs(warm.values - cold.values)) <= 1e-9 * scale
            # level 0 runs ARPACK on the cache's one factor; nested solves
            # factor nothing, so they carry no shift
            assert warm.shift == (cache._factor(bc)[0] if level == 0 else None)
            cold_shifts.append(cold.shift)
        # the diagonal-ratio shift grows about 4x per level
        assert cold_shifts[2] > 3 * cold_shifts[1]


def test_nested_spectra_deterministic(monkeypatch):
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    domain = DomainSpec.rectangle(0, 1, 1, math.e, 4)
    first, second = LevelCache(domain, HALF_PLANE), LevelCache(domain, HALF_PLANE)
    for bc, k in (("dirichlet", 2), ("neumann", 4)):
        a, b = first.spectrum(2, bc, k), second.spectrum(2, bc, k)
        assert a.method == "lobpcg-multigrid"
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


def test_neumann_requests_read_the_block(monkeypatch):
    # levels 1-2 sparse, so their block solves are nested
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    cache = LevelCache(DomainSpec.periodic_band(-1, 0, 6), cusp_metric())
    for level in range(3):
        pair = cache.spectrum(level, "neumann", 2)
        block = cache.spectrum(level, "neumann", verify.NEUMANN_BLOCK)
        assert block.values.shape == (4,) and block.vectors.shape[1] == 4
        assert block.method == (
            "shift-invert-lanczos" if level == 0 else "lobpcg-multigrid"
        )
        assert np.array_equal(pair.values, block.values[:2])
        assert np.array_equal(pair.vectors, block.vectors[:, :2])
        assert np.array_equal(pair.residuals, block.residuals[:2])
        assert (pair.bc, pair.method, pair.shift, pair.converged) == (
            block.bc, block.method, block.shift, block.converged,
        )
        assert cache.spectrum(level, "neumann", 2) is pair


def test_nested_solves_factor_only_level_zero(monkeypatch):
    # a 3-level chain of both bcs makes two sparse LUs, one per bc at level
    # 0, shared by the level-0 ARPACK solve and the V-cycles above it
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    factored, opinvs = [], []
    splu, eigsh = eigen.spla.splu, eigen.spla.eigsh

    def counted_splu(A, *args, **kwargs):
        factored.append(A.shape[0])
        return splu(A, *args, **kwargs)

    def counted_eigsh(*args, **kwargs):
        opinvs.append(kwargs.get("OPinv"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(eigen.spla, "splu", counted_splu)
    monkeypatch.setattr(eigen.spla, "eigsh", counted_eigsh)
    cache = LevelCache(DomainSpec.rectangle(0, 1, 1, math.e, 4), HALF_PLANE)
    for bc, k in (("dirichlet", 2), ("neumann", 4)):
        for level in range(3):
            assert cache.spectrum(level, bc, k).converged
        assert cache.spectrum(2, bc, k).method == "lobpcg-multigrid"
    assert factored == [
        cache.pencil(0, bc).stiffness.shape[0] for bc in ("dirichlet", "neumann")
    ]
    assert len(opinvs) == 2 and all(op is not None for op in opinvs)


def test_one_prolongation_per_level(monkeypatch):
    # the Dirichlet transfer is the interior restriction of the cached
    # Neumann one, so both bcs on levels 0-2 build two prolongations
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    original = verify.prolongation
    built = []

    def counted(coarse, fine):
        built.append(fine.n_vertices)
        return original(coarse, fine)

    monkeypatch.setattr(verify, "prolongation", counted)
    cache = LevelCache(DomainSpec.rectangle(0, 1, 1, math.e, 4), HALF_PLANE)
    for bc, k in (("dirichlet", 2), ("neumann", 4)):
        for level in range(3):
            cache.spectrum(level, bc, k)
        assert cache.spectrum(2, bc, k).method == "lobpcg-multigrid"
    assert len(built) == 2
    for level in (1, 2):
        P = original(cache.mesh(level - 1), cache.mesh(level))
        fine, coarse = cache.mesh(level).interior, cache.mesh(level - 1).interior
        dirichlet = cache._transfer(level, "dirichlet")
        assert (dirichlet != P[fine][:, coarse]).nnz == 0


def test_vcycle_leaves_no_reference_cycle():
    # the preconditioner holds the operators of levels 1-2; they must go
    # when it goes, not when the cyclic collector runs (the level-0 LU now
    # belongs to the cache, which builds it here before the count)
    cache = LevelCache(DomainSpec.rectangle(0, 1, 1, math.e, 4), HALF_PLANE)
    for level in range(3):
        cache.pencil(level, "neumann")
        if level:
            cache._transfer(level, "neumann")
    cache._factor("neumann")
    gc.collect()
    gc.disable()
    try:
        apply = cache._vcycle(2, "neumann")
        n = cache.pencil(2, "neumann").stiffness.shape[0]
        assert apply(np.ones((n, 2))).shape == (n, 2)
        del apply
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# line smoothing of the V-cycle


def shifted_pencil(cache, level, bc):
    """A_l = K_l + sigma M_l, the operator a V-cycle smooths at that level."""
    sigma, _ = cache._factor(bc)
    pencil = cache.pencil(level, bc)
    return (pencil.stiffness + sigma * pencil.mass).tocsr()


def line_matrix(factor):
    """B, rebuilt from the factor :func:`verify._lines` returns: L D L^T from
    dpttrf's (d, e), or U^T U from dpbtrf's upper band (U,); the entries
    that are rounding errors of zeros are dropped."""
    if len(factor) == 2:
        d, e = factor
        L = sp.eye(len(d)) + sp.diags(e, -1)
        B = L @ sp.diags(d) @ L.T
    else:
        (U,) = factor
        U = sp.dia_matrix((U, [2, 1, 0]), shape=(U.shape[1],) * 2)
        B = U.T @ U
    B = sp.csr_matrix(B)
    B.data[abs(B.data) <= 1e-12 * abs(B).max()] = 0
    B.eliminate_zeros()
    return B


def line_links(order, factor):
    """The links of :func:`verify._lines` as (m, 2) vertex ids: the non-zero
    couplings above the diagonal of B."""
    pairs = sp.triu(line_matrix(factor), k=1).tocoo()
    return np.column_stack([order[pairs.row], order[pairs.col]])


def assert_factor_holds_A(A, order, factor):
    # B, rebuilt from its factor, is symmetric, with A's diagonal on the line
    # vertices and A's entry at each linked pair, and nothing else, all to
    # rounding
    B, A_lines = line_matrix(factor), A[order][:, order]
    scale = abs(A_lines).max()
    assert abs(B - B.T).max() <= 1e-12 * scale
    assert abs(B - A_lines.multiply(B != 0)).max() <= 1e-12 * scale
    assert abs(B.diagonal() - A_lines.diagonal()).max() <= 1e-12 * scale


def unknown_coordinates(cache, level, bc):
    """Chart coordinates of a pencil's unknowns, the seam copy for a band's."""
    mesh = cache.mesh(level)
    coords = np.empty((mesh.n_vertices, 2))
    coords[mesh.raw_to_logical] = mesh.verts
    return coords[mesh.interior] if bc == "dirichlet" else coords


SHEARED = builtin_metric("general", {
    "g11": "1/y^2", "g12": "a/y^2", "g22": "(1+a^2)/y^2",
    "constants": {"a": 0.5}, "vars": ["x", "y"],
    "validity": [-10.0, 10.0, 0.05, 10.0],
})


@pytest.mark.parametrize("domain,metric,rule", [
    (DomainSpec.rectangle(0, math.pi, 0, math.pi, 32), FLAT, "midpoint"),
    (DomainSpec.rectangle(0, 1, 1, math.e, 16), HALF_PLANE, "midpoint"),
    (DomainSpec.rectangle(0, 1, 1, math.e, 16), SHEARED, "degree5"),
], ids=["readme-square", "half-plane", "sheared"])
def test_isotropic_pencils_have_no_lines(domain, metric, rule):
    # no vertex lies on a line, so their V-cycles smooth by point Jacobi
    cache = LevelCache(domain, metric, SolverOptions(quad_rule=rule))
    for bc in ("dirichlet", "neumann"):
        for level in (1, 2):
            assert verify._lines(shifted_pencil(cache, level, bc)) is None


def cusp_band(resolution=8):
    return LevelCache(DomainSpec.periodic_band(-1, 0, resolution), cusp_metric())


@pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-2])
def test_nested_neumann_block_resolves_clusters(eps):
    # on [0, pi] x [0, pi (1 + eps)], mu_2 = 1 / (1 + eps)^2 and mu_3 = 1: an
    # exact double on the square, split by about 2 eps on the others
    cache = LevelCache(
        DomainSpec.rectangle(0, math.pi, 0, math.pi * (1 + eps), 8), FLAT
    )
    for level in (1, 2):
        nested = cache.spectrum(level, "neumann", 4)
        assert nested.method == "lobpcg-multigrid" and nested.converged
        pencil = cache.pencil(level, "neumann")
        cold = solve_smallest(
            pencil.stiffness, pencil.mass, 4, bc="neumann", options=cache.options
        )
        assert cold.method == "shift-invert-lanczos"
        scale = float(np.max(cold.values))
        assert np.max(np.abs(nested.values - cold.values)) <= 1e-8 * scale


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: a nested LOBPCG solve can miss eigenvalues that "
    "cross into its block between levels; level 1 gives mu_4 = 10.1530 "
    "where a cold solve gives 8.9608"
))
def test_nested_neumann_block_matches_a_cold_solve_on_the_cusp_band():
    cache = cusp_band()
    nested = cache.spectrum(1, "neumann", 4)
    pencil = cache.pencil(1, "neumann")
    cold = solve_smallest(
        pencil.stiffness, pencil.mass, 4, bc="neumann", options=cache.options
    )
    # mu_1 is zero up to rounding, so the tolerance scales with mu_4
    scale = float(np.max(cold.values))
    assert np.max(np.abs(nested.values - cold.values)) <= 1e-8 * scale


def test_cusp_band_lines_run_along_r():
    # its cells are 2.3-6.3 times longer in theta than in r, so every unknown
    # lies on a path of r-couplings at a fixed angle
    cache = cusp_band()
    for bc in ("dirichlet", "neumann"):
        for level in (1, 2):
            A = shifted_pencil(cache, level, bc)
            order, factor = verify._lines(A)
            assert np.array_equal(np.sort(order), np.arange(A.shape[0]))
            assert len(factor) == 2  # paths: bandwidth 1, dpttrf's (d, e)
            assert_factor_holds_A(A, order, factor)
            ends = unknown_coordinates(cache, level, bc)[line_links(order, factor)]
            assert np.all(ends[:, 0, 1] == ends[:, 1, 1])  # the same theta
            assert np.all(ends[:, 0, 0] != ends[:, 1, 0])


def test_thin_band_lines_are_rings_along_theta():
    # with phi = 0.05 the strong direction is the periodic theta, so each
    # circle r = const is a closed line: as many links as vertices
    cache = LevelCache(
        DomainSpec.periodic_band(0, 1, 8),
        builtin_metric("warped", {"phi": "0.05", "r_range": (0.0, 1.0)}),
    )
    for bc in ("dirichlet", "neumann"):
        for level in (1, 2):
            A = shifted_pencil(cache, level, bc)
            order, factor = verify._lines(A)
            assert np.array_equal(np.sort(order), np.arange(A.shape[0]))
            assert len(factor) == 1  # rings: bandwidth 2, dpbtrf's (U,)
            assert_factor_holds_A(A, order, factor)
            links = line_links(order, factor)
            coords = unknown_coordinates(cache, level, bc)
            assert np.all(coords[links[:, 0], 0] == coords[links[:, 1], 0])
            graph = sp.coo_matrix(
                (np.ones(len(links)), tuple(links.T)), shape=A.shape
            )
            n_lines, label = connected_components(graph, directed=False)
            circles = np.unique(coords[:, 0])
            assert n_lines == len(circles)
            assert np.array_equal(
                np.bincount(label[links[:, 0]]), np.bincount(label)
            )


def test_indefinite_line_block_keeps_point_jacobi():
    # A is positive definite (eigenvalues 0.13, 0.40, 2.47) and 0-1-2 is a
    # path of strong couplings, but B = tridiag(-0.8, 1, -0.8) is not
    # (1 - 0.8 sqrt(2) < 0), and LOBPCG needs a definite preconditioner
    A = sp.csr_matrix(np.array([[1, -0.8, 0.6], [-0.8, 1, -0.8], [0.6, -0.8, 1]]))
    assert np.all(np.linalg.eigvalsh(A.toarray()) > 0)
    assert verify._lines(A) is None


def natural_order_vcycle(cache, level, bc):
    """The V-cycle of :meth:`LevelCache._vcycle` with every level in the
    natural order: each smoothing step gathers r at the line vertices for
    one ``solve_banded`` on B, taken from A at the links of the lines."""
    shift, coarsest = cache._factor(bc)
    A, lines = {}, {}
    for l in range(1, level + 1):
        A[l] = shifted_pencil(cache, l, bc)
        found = verify._lines(A[l])
        if found is not None:
            order, factor = found
            B = A[l][order][:, order].multiply(line_matrix(factor) != 0).tocoo()
            width = int(np.max(B.col - B.row))
            band = np.zeros((2 * width + 1, len(order)))
            band[width + B.row - B.col, B.col] = B.data
            lines[l] = (order, width, band)

    def smooth(l, r):
        x = verify.VCYCLE_DAMPING / A[l].diagonal()[:, None] * r
        if l in lines:
            order, width, band = lines[l]
            x[order] = verify.VCYCLE_DAMPING * solve_banded(
                (width, width), band, r[order]
            )
        return x

    def apply(block):
        r = block.reshape(block.shape[0], -1)
        down = []
        for l in range(level, 0, -1):
            x = smooth(l, r)
            for _ in range(verify.VCYCLE_SMOOTHING - 1):
                x += smooth(l, r - A[l] @ x)
            P = cache._transfer(l, bc)
            down.append((l, r, x, P))
            r = P.T @ (r - A[l] @ x)
        x = coarsest.solve(r)
        for l, r, fine, P in reversed(down):
            fine += P @ x
            for _ in range(verify.VCYCLE_SMOOTHING):
                fine += smooth(l, r - A[l] @ fine)
            x = fine
        return x.reshape(block.shape)

    return apply


SHEARED_LINES = builtin_metric("general", {
    "g11": "1", "g12": "3", "g22": "10", "vars": ["x", "y"],
    "validity": [-1.0, 2.0, -1.0, 2.0],
})


# a V-cycle on paths, one on rings, and one whose Neumann lines leave some
# unknowns (near two corners) to point Jacobi
LINE_FAMILIES = {
    "cusp-band-paths": cusp_band,
    "thin-band-rings": lambda: LevelCache(
        DomainSpec.periodic_band(0, 1, 8),
        builtin_metric("warped", {"phi": "0.05", "r_range": (0.0, 1.0)}),
    ),
    "sheared-lines": lambda: LevelCache(
        DomainSpec.rectangle(0, 1, 0, 1, 6), SHEARED_LINES
    ),
}


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("family", sorted(LINE_FAMILIES))
def test_line_order_vcycle_matches_natural_order(family, bc):
    # worked in line order on the cached factors, the V-cycle is the one
    # that gathers r[order] for a banded solve at every step, to rounding
    cache = LINE_FAMILIES[family]()
    partly = []
    for level in (1, 2):
        dim = cache.pencil(level, bc).stiffness.shape[0]
        order, _ = verify._lines(shifted_pencil(cache, level, bc))
        partly.append(len(order) < dim)
    assert any(partly) == ((family, bc) == ("sheared-lines", "neumann"))
    dim = cache.pencil(2, bc).stiffness.shape[0]
    block = np.random.default_rng(0).standard_normal((dim, 3))
    got = cache._vcycle(2, bc)(block)
    want = natural_order_vcycle(cache, 2, bc)(block)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    vector = cache._vcycle(2, bc)(block[:, 0])
    assert vector.shape == (dim,)
    assert np.max(np.abs(vector - want[:, 0])) <= 1e-12 * np.max(np.abs(want))


def test_each_line_block_is_factored_once(monkeypatch):
    # over a level chain's nested solves of several sizes and both bcs, each
    # (level, bc) factors its line block once, where its lines are found
    dpttrf, factored = verify.dpttrf, []

    def counted(d, e, *args, **kwargs):
        factored.append(len(d))
        return dpttrf(d, e, *args, **kwargs)

    monkeypatch.setattr(verify, "dpttrf", counted)
    cache = cusp_band()
    for bc, sizes in (("dirichlet", (1, 2, 3)), ("neumann", (2, 4, 6))):
        for k in sizes:
            for level in range(3):
                assert cache.spectrum(level, bc, k).converged
        cache._vcycle(2, bc)
    dims = [cache.pencil(l, bc).stiffness.shape[0]
            for bc in ("dirichlet", "neumann") for l in (1, 2)]
    assert factored == dims


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_cusp_band_vcycle_contracts(bc):
    # the A-norm error reduction of the last of 8 stationary V-cycles at
    # level 2; point Jacobi gives 0.80-0.85 on this anisotropic band
    cache = cusp_band()
    A = shifted_pencil(cache, 2, bc)
    vcycle = cache._vcycle(2, bc)
    error = np.random.default_rng(0).standard_normal(A.shape[0])
    norms = [math.sqrt(error @ (A @ error))]
    for _ in range(8):
        error = error - vcycle(A @ error)
        norms.append(math.sqrt(error @ (A @ error)))
    assert norms[-1] <= 0.3 * norms[-2]


def test_cusp_band_neumann_lobpcg_iterations():
    # levels 1-2 are nested solves; point Jacobi (line blocks without their
    # couplings) needs 25 steps for a pair at level 2
    cache = cusp_band()
    for level in range(3):
        block = cache.spectrum(level, "neumann", verify.NEUMANN_BLOCK)
        assert (block.iterations is None) == (level == 0)
    assert block.method == "lobpcg-multigrid" and block.converged
    assert len(block.iterations) == verify.NEUMANN_BLOCK
    assert max(block.iterations) <= 15
    # a request below the block reads the block's first pairs
    assert cache.spectrum(2, "neumann", 2).iterations == block.iterations[:2]


def test_non_monotone_reported_without_fit():
    quantities = {
        "bc": "dirichlet",
        "table": [],
        "extrapolated": 2.0,
        "monotone": False,
        "fitted_order": None,
    }
    assert not recompute_pass({"check": "convergence", "quantities": quantities})


# ---------------------------------------------------------------------------
# report plumbing


def test_report_serialization_is_deterministic():
    domain = DomainSpec.rectangle(0, math.pi, 0, math.pi, 8)
    a = spectrum_union_check(domain, FLAT)
    b = spectrum_union_check(domain, FLAT)
    assert a.wall_time_seconds > 0
    assert "wall_time" not in json.dumps(a.to_dict())
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_recompute_rejects_unknown_check():
    with pytest.raises(VerifyError, match="no recompute rule"):
        recompute_pass({"check": "mystery", "quantities": {}})
