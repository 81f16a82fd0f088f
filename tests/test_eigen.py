"""Eigensolver contracts against separable and diagonal oracles."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from surfspec import eigen
from surfspec.assembly import apply_dirichlet, assemble_oneform, assemble_scalar
from surfspec.eigen import (
    EigenError,
    SolverOptions,
    cluster_multiplicities,
    solve_oneform,
    solve_smallest,
)
from surfspec.geometry import builtin_metric
from surfspec.mesh import DomainSpec, triangulate

FLAT = builtin_metric("euclidean")


def square_operators(n, bc):
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, n))
    ops = assemble_scalar(mesh, FLAT)
    if bc == "dirichlet":
        red = apply_dirichlet(ops)
        return red.stiffness, red.mass
    return ops.stiffness, ops.mass


# ---------------------------------------------------------------------------
# solve_smallest


def test_diagonal_pencil():
    K = sp.diags([1.0, 2.0])
    M = sp.identity(2, format="csr")
    res = solve_smallest(K, M, 2)
    assert np.allclose(res.values, [1.0, 2.0], atol=1e-14)
    assert res.method == "dense"


def test_flat_square_dirichlet_modes():
    # separation of variables: i^2 + j^2 for i, j >= 1
    K, M = square_operators(32, "dirichlet")
    res = solve_smallest(K, M, 4, bc="dirichlet")
    want = np.array([2.0, 5.0, 5.0, 8.0])
    assert np.all(np.abs(res.values - want) <= 0.01 * want)
    assert np.all(np.diff(res.values) >= 0)


def test_flat_square_neumann_modes():
    # separation of variables: i^2 + j^2 for i, j >= 0
    K, M = square_operators(32, "neumann")
    res = solve_smallest(K, M, 4, bc="neumann")
    assert abs(res.values[0]) <= 1e-8
    want = np.array([1.0, 1.0, 2.0])
    assert np.all(np.abs(res.values[1:] - want) <= 0.01 * want)
    # the zero mode is the constant function
    const = res.vectors[:, 0]
    ones = np.ones(len(const))
    ones /= math.sqrt(ones @ (M @ ones))
    assert abs(abs(const @ (M @ ones)) - 1.0) <= 1e-8


def test_gram_identity_and_rayleigh():
    K, M = square_operators(16, "dirichlet")
    res = solve_smallest(K, M, 6)
    gram = res.vectors.T @ (M @ res.vectors)
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-8
    for lam, x in zip(res.values, res.vectors.T):
        rayleigh = (x @ (K @ x)) / (x @ (M @ x))
        assert abs(rayleigh - lam) <= 10 * 1e-9
    assert np.all(res.residuals <= 1e-9)


def test_given_start_block_and_preconditioner(monkeypatch):
    K, M = square_operators(16, "dirichlet")
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    options = SolverOptions()
    cold = solve_smallest(K, M, 3, options=options)
    # a perturbed copy of the answer as the start, K + sigma M solved exactly
    rng = np.random.default_rng(0)
    start = cold.vectors + 1e-2 * rng.standard_normal(cold.vectors.shape)
    precond = spla.splu((K + 2e-3 * M).tocsc()).solve
    given = solve_smallest(K, M, 3, options=options, start=start, precond=precond)
    assert given.method == "lobpcg-multigrid" and given.converged
    assert np.all(given.residuals <= options.tol)
    assert np.allclose(given.values, cold.values, rtol=1e-9, atol=0)
    with pytest.raises(EigenError, match=r"start block of shape \(3, 3\)"):
        solve_smallest(K, M, 3, options=options, start=np.ones((3, 3)), precond=precond)


@pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zeros", "nan"])
def test_lobpcg_breakdown_is_an_eigen_error(monkeypatch, fill):
    # a preconditioner whose output has no M-norm leaves no search direction
    K, M = square_operators(16, "dirichlet")
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    start = np.random.default_rng(0).standard_normal((225, 3))
    with pytest.raises(EigenError, match=(
        r"LOBPCG broke down at pair 1 of 3 eigenpairs of dimension 225: "
        r"a search direction has no M-norm left"
    )):
        solve_smallest(K, M, 3, start=start, precond=lambda r: np.full_like(r, fill))


def test_dense_and_iterative_paths_agree(monkeypatch):
    K, M = square_operators(16, "dirichlet")
    dense = solve_smallest(K, M, 5)
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    forced = SolverOptions()
    iterative = solve_smallest(K, M, 5, options=forced)
    assert dense.method == "dense"
    assert iterative.method == "shift-invert-lanczos"
    assert np.allclose(dense.values, iterative.values, rtol=1e-8)
    assert np.all(iterative.residuals <= 1e-9)


def test_iterative_path_deterministic(monkeypatch):
    K, M = square_operators(16, "dirichlet")
    monkeypatch.setattr(eigen, "DENSE_MAX_DIM", 10)
    forced = SolverOptions()
    a = solve_smallest(K, M, 5, options=forced)
    b = solve_smallest(K, M, 5, options=forced)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_refinement_monotone_with_second_order():
    values = []
    for n in (8, 16, 32):
        K, M = square_operators(n, "dirichlet")
        values.append(solve_smallest(K, M, 1).values[0])
    assert values[0] >= values[1] >= values[2] >= 2.0
    errors = [v - 2.0 for v in values]
    order = math.log2(errors[0] / errors[1])
    assert 1.8 <= order <= 2.2
    order = math.log2(errors[1] / errors[2])
    assert 1.8 <= order <= 2.2


def test_solver_validation():
    K = sp.identity(3, format="csr")
    with pytest.raises(EigenError, match="requested"):
        solve_smallest(K, K, 0)
    with pytest.raises(EigenError, match="requested"):
        solve_smallest(K, K, 4)
    with pytest.raises(EigenError, match="square"):
        solve_smallest(sp.csr_matrix(np.ones((2, 3))), K, 1)


# ---------------------------------------------------------------------------
# one-form spectrum


def scalar_union_oracle(mesh, count):
    """Dense positive Dirichlet and Neumann spectra, merged ascending."""
    ops = assemble_scalar(mesh, FLAT)
    red = apply_dirichlet(ops)
    import scipy.linalg as la

    neu = la.eigh(
        ops.stiffness.toarray(), ops.mass.toarray(), eigvals_only=True
    )
    dir_ = la.eigh(
        red.stiffness.toarray(), red.mass.toarray(), eigvals_only=True
    )
    merged = np.sort(np.concatenate([neu[1:], dir_]))  # drop Neumann zero
    return merged[:count]


def test_oneform_union_on_square():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 8))
    ops = assemble_oneform(assemble_scalar(mesh, FLAT))
    res = solve_oneform(ops, 10)
    want = scalar_union_oracle(mesh, 10)
    assert np.all(res.values > 0)
    assert np.allclose(res.values, want, rtol=1e-8)


def test_oneform_band_has_one_harmonic_mode():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 6))
    ops = assemble_oneform(assemble_scalar(mesh, FLAT))
    res = solve_oneform(ops, 8)
    assert mesh.betti1 == 1
    assert res.values[0] <= 1e-10 * res.values[-1]
    assert np.all(res.values[1:] > 1e-10 * res.values[-1])


@pytest.mark.parametrize(
    "domain",
    [DomainSpec.periodic_band(0, 1, 6), DomainSpec.annulus(0, 0, 1, 2, 6)],
    ids=["band", "annulus"],
)
def test_harmonic_basis_matches_null_space(domain):
    import scipy.linalg as la

    mesh = triangulate(domain)
    ops = assemble_oneform(assemble_scalar(mesh, FLAT))
    stiff = (ops.d0.T @ ops.mass1 @ ops.d0).tocsr()
    basis = eigen._natural_harmonics(ops, stiff, mesh.betti1, seed=42)
    # reference: the dense null space of (d1; d0^T M1), M1-orthonormalized
    constraints = sp.vstack([ops.d1, (ops.mass1 @ ops.d0).T]).toarray()
    ref = la.null_space(constraints)
    ref = ref @ np.linalg.inv(np.linalg.cholesky(ref.T @ (ops.mass1 @ ref))).T
    assert basis.shape[1] == ref.shape[1] == mesh.betti1 == 1
    cross = basis.T @ (ops.mass1 @ ref)
    assert np.min(np.linalg.svd(cross, compute_uv=False)) >= 1 - 1e-10


def test_oneform_residuals_judged_by_options_tol():
    mesh = triangulate(DomainSpec.rectangle(0, 2, 0, 1, 4))
    ops = assemble_oneform(assemble_scalar(mesh, FLAT))
    assert solve_oneform(ops, 5).converged
    strict = solve_oneform(ops, 5, options=SolverOptions(tol=1e-30))
    assert not strict.converged


def test_oneform_block_bookkeeping():
    mesh = triangulate(DomainSpec.rectangle(0, 2, 0, 1, 4))
    ops = assemble_oneform(assemble_scalar(mesh, FLAT))
    res = solve_oneform(ops, 5)
    assert res.values.shape == res.residuals.shape == (5,)
    assert np.all(np.diff(res.values) >= 0)
    assert res.vectors is None and res.bc == "oneform"
    with pytest.raises(EigenError, match="requested"):
        solve_oneform(ops, 10_000)


# ---------------------------------------------------------------------------
# multiplicity clustering


def test_cluster_examples():
    out = cluster_multiplicities([1.0, 1.0000001, 2.0])
    assert len(out) == 2
    assert out[0][1] == 2 and out[1] == (2.0, 1)
    assert out[0][0] == pytest.approx(1.00000005)
    assert cluster_multiplicities([]) == []


def test_cluster_square_neumann_degeneracy():
    K, M = square_operators(24, "neumann")
    res = solve_smallest(K, M, 4, bc="neumann")
    clusters = cluster_multiplicities(res.values, rel_gap=1e-3)
    # [0, 1, 1, 2] with the doubled mode merged
    assert [count for _, count in clusters] == [1, 2, 1]
    assert clusters[1][0] == pytest.approx(1.0, rel=0.01)


def test_cluster_rejects_descending():
    with pytest.raises(EigenError, match="ascending"):
        cluster_multiplicities([2.0, 1.0])
