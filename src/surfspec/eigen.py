"""Generalized symmetric eigensolvers for the assembled pencils.

``solve_smallest`` handles K x = lambda M x for the scalar problems:
dense reduction up to DENSE_MAX_DIM unknowns, and two sparse paths
above.  A cold solve (level 0 of a refinement chain, and every direct
caller) runs shift-invert Lanczos (ARPACK) from a start vector drawn
from ``options.seed``, on the factor of :func:`shifted_factor`, the one
rule for the shift: sigma = SIGMA_SCALE * mean(K_ii / M_ii).  Any sigma
> 0 keeps K + sigma M definite for these positive semi-definite
pencils, so it returns the k smallest pairs.  A nested solve
(``verify.LevelCache`` above level 0) passes a start block, the coarser
level's eigenvectors interpolated onto this one, and a preconditioner,
a multigrid V-cycle that smooths along lines of strong couplings and
whose coarse solve is the level-0 factor; it factors nothing.  It finds
the pairs one after another by single-vector LOBPCG (Knyazev, SIAM J.
Sci. Comput. 23, 2001), pair j from column j of the start block and
M-orthogonal to the pairs already found, so a pair that converges early
costs no further steps while a slower one converges.
Both start points are pure functions of the inputs, so runs are
reproducible.

``solve_oneform`` computes the 1-form Hodge-Laplacian spectrum through
its orthogonal decomposition.  A 1-form eigenfield is either

* exact, ``omega = d psi`` with psi a scalar Neumann eigenfunction,
  contributing the positive Neumann eigenvalues;
* co-exact, ``omega = *d phi`` with phi a scalar Dirichlet
  eigenfunction, contributing the Dirichlet eigenvalues; or
* harmonic with natural boundary conditions (curl-free and weakly
  divergence-free), contributing one zero eigenvalue per independent
  cycle of the domain.

The two scalar blocks reuse the Whitney stiffness identity
``K = d0^T M1 d0``, so the reported union is the spectrum of the same
discrete complex that the assembly module builds.  The checks read only
the eigenvalues and their residuals, so no 1-form eigenfield is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackNoConvergence

__all__ = [
    "EigenError",
    "SolverOptions",
    "SpectralResult",
    "shifted_factor",
    "solve_smallest",
    "uses_dense_path",
    "solve_fits",
    "solve_oneform",
    "cluster_multiplicities",
]

ZERO_MODE_FACTOR = 1e-10  # eta below this times max(eta) counts as harmonic
SIGMA_SCALE = 1e-6  # shift / mean(K_ii / M_ii); 1e-5 and up add LOBPCG iterations
LOBPCG_MAXITER = 100  # steps per pair; the perfbench configs' pairs take 0-12
# largest pencil solved densely: the measured crossover (2 cores, hyperbolic
# rectangle: dense = sparse at dim 220, 23.5 vs 8.2 ms at dim 476)
DENSE_MAX_DIM = 250
# the most floats the work arrays of one solve may hold, 0.8 GB: ARPACK's
# Lanczos basis, LOBPCG's blocks or the dense copies (see solve_fits)
MAX_SOLVE_FLOATS = 10**8
# dim x k blocks held by a nested LOBPCG solve: the found pairs and their M
# images, then the sorted, orthonormalized copies and the residual images
# (peak growth 5.0 and 5.9 dim x k floats measured on a flat square of
# dimension 9,409, k = 60 and 120)
LOBPCG_BLOCKS = 6
# dim x dim arrays held by a dense solve of every pair: K, M, LAPACK's copies
# of both and the eigenvectors (peak growth 5.4-5.6 dim^2 floats measured
# on flat squares of dimension 1,681 and 3,721)
DENSE_COPIES = 6


class EigenError(ValueError):
    """Invalid solve request or factorization breakdown."""


@dataclass
class SolverOptions:
    seed: int = 42
    tol: float = 1e-9  # residual above which a solve is not converged
    quad_rule: str = "midpoint"  # assembly rule used by the check drivers


@dataclass
class SpectralResult:
    """Smallest eigenpairs of a symmetric pencil.

    ``vectors`` columns are orthonormal in the pencil's M inner product,
    and None for the 1-form spectrum, which keeps no eigenfields;
    ``residuals`` hold ||K x - lambda M x|| / (1 + |lambda|) with x
    M-normalized.  ``iterations`` holds the LOBPCG steps each pair took
    in a nested solve, in the order of ``values``, and is None for dense
    and ARPACK solves.
    """

    values: np.ndarray
    vectors: Optional[np.ndarray]
    residuals: np.ndarray
    bc: str
    method: str
    shift: Optional[float] = None
    converged: bool = True
    iterations: Optional[Tuple[int, ...]] = None


def _orthonormalize(vectors: np.ndarray, mass) -> np.ndarray:
    gram = vectors.T @ (mass @ vectors)
    chol = np.linalg.cholesky(0.5 * (gram + gram.T))
    inv = la.solve_triangular(chol, np.eye(len(chol)), lower=True)
    return vectors @ inv.T


def _residuals(K, M, values, vectors) -> np.ndarray:
    resid = K @ vectors - (M @ vectors) * values[None, :]
    return np.linalg.norm(resid, axis=0) / (1.0 + np.abs(values))


def uses_dense_path(dim: int, k: int) -> bool:
    """Whether :func:`solve_smallest` reduces a dimension-``dim`` pencil densely."""
    return dim <= DENSE_MAX_DIM or k >= dim


def solve_fits(dim: int, k: int, nested: bool = False) -> bool:
    """Whether k pairs of a dimension-``dim`` pencil stay within
    ``MAX_SOLVE_FLOATS``: k >= dim is a dense solve of ``DENSE_COPIES``
    dim x dim arrays, a ``nested`` solve (LOBPCG from a start block) holds
    ``LOBPCG_BLOCKS`` dim x k arrays, and ARPACK keeps dim x min(dim,
    max(2k + 1, 20)) floats of Lanczos vectors."""
    if k >= dim:
        return DENSE_COPIES * dim * dim <= MAX_SOLVE_FLOATS
    if nested:
        return LOBPCG_BLOCKS * dim * k <= MAX_SOLVE_FLOATS
    return dim * min(dim, max(2 * k + 1, 20)) <= MAX_SOLVE_FLOATS


def shifted_factor(K, M) -> Tuple[float, spla.SuperLU]:
    """sigma = ``SIGMA_SCALE * mean(K_ii / M_ii)`` and the sparse LU of K +
    sigma M; a factorization breakdown raises :class:`EigenError` naming sigma."""
    K, M = sp.csr_matrix(K), sp.csr_matrix(M)
    shift = float(SIGMA_SCALE * np.mean(K.diagonal() / M.diagonal()))
    try:
        return shift, spla.splu((K + shift * M).tocsc())
    except RuntimeError as exc:
        raise EigenError(f"factorization of (K + {shift!r} M) failed: {exc}") from exc


def _lobpcg_pairs(K, M, start, precond, tol):
    """The pairs of K x = lambda M x that single-vector LOBPCG finds from
    the columns of ``start``, one after another: ``(values, vectors,
    steps)``.

    Pair j starts from column j, kept M-orthogonal to the pairs already
    found.  A step applies ``precond`` to the residual, projects that
    direction w M-orthogonally off the found pairs and off x, and moves x
    to the Rayleigh-Ritz minimum over span{x, w, p}, where p, the last
    step's update kept M-orthogonal to x, is left out when it has no
    M-norm left (Knyazev, SIAM J. Sci. Comput. 23, 2001).  A pair stops
    when ||K x - theta M x|| <= ``tol`` with x M-normalized, or after
    ``LOBPCG_MAXITER`` steps; the caller's residual check judges it.  A
    direction with no M-norm left, or a Gram matrix that is not positive
    definite, raises :class:`EigenError` naming the dimension, k and the
    pair.
    """
    dim, k = start.shape
    found, mfound = np.empty((dim, k)), np.empty((dim, k))
    values, steps = np.empty(k), []
    # rows x, w and p of the search space, each with its K and M images
    basis = np.empty((3, 3, dim))
    for j in range(k):
        X, MX = found[:, :j], mfound[:, :j]

        def fail(reason):
            return EigenError(
                f"LOBPCG broke down at pair {j + 1} of {k} eigenpairs of "
                f"dimension {dim}: {reason}"
            )

        def unit(v):
            """v M-orthogonal to the found pairs and M-normalized, with its
            K and M images."""
            v = v - X @ (MX.T @ v)
            mv = M @ v
            norm = np.sqrt(v @ mv)
            if not norm > 0:
                raise fail("a search direction has no M-norm left")
            return v / norm, (K @ v) / norm, mv / norm

        x = basis[0]
        x[:] = unit(start[:, j])
        theta, size, step = x[0] @ x[1], 2, 0
        r = x[1] - theta * x[2]
        while step < LOBPCG_MAXITER and np.linalg.norm(r) > tol:
            w = precond(r)
            basis[1] = unit(w - x[0] * (x[2] @ w))
            space = basis[:size]
            try:
                ritz, c = la.eigh(
                    space[:, 0] @ space[:, 1].T, space[:, 0] @ space[:, 2].T,
                    subset_by_index=(0, 0),
                )
            except la.LinAlgError as exc:
                raise fail(f"the Gram matrix is not positive definite: {exc}") from exc
            theta, c = ritz[0], c[:, 0]
            p = np.tensordot(c[1:], space[1:], axes=1)
            x *= c[0]
            x += p
            # p keeps only its part M-orthogonal to the new x
            p -= (x[2] @ p[0]) * x
            norm = np.sqrt(p[0] @ p[2])
            if norm > 0:
                basis[2], size = p / norm, 3
            else:
                size = 2
            r = x[1] - theta * x[2]
            step += 1
        found[:, j], mfound[:, j], values[j] = x[0], x[2], theta
        steps.append(step)
    return values, found, steps


def solve_smallest(
    K,
    M,
    k: int,
    bc: str = "generic",
    options: Optional[SolverOptions] = None,
    *,
    start: Optional[np.ndarray] = None,
    precond=None,
    factor: Optional[Tuple[float, spla.SuperLU]] = None,
) -> SpectralResult:
    """k smallest eigenpairs of K x = lambda M x.

    Dense reduction when :func:`uses_dense_path` says so (dimension at
    most ``DENSE_MAX_DIM`` or k reaching the dimension).  Otherwise, given
    a ``start`` block of shape (dim, k), single-vector LOBPCG for each
    pair in turn, from that block's column and deflated against the
    pairs already found, with ``precond``, a callable applied to a
    residual vector, as the preconditioner; each pair stops at ||K x -
    theta M x|| <= 0.1 ``options.tol`` with x M-normalized, or after
    ``LOBPCG_MAXITER`` steps, and ``iterations`` records its steps.
    Without a start block, shift-invert Lanczos from
    a standard normal start vector seeded with ``options.seed``, on
    ``factor``, the ``(sigma, lu)`` of :func:`shifted_factor` for this
    pencil, or on that function's factor made here.  Non-convergence,
    or a residual above ``options.tol``, returns the result with
    ``converged=False``; a factorization breakdown raises
    :class:`EigenError` naming the shift, and a LOBPCG breakdown one
    naming the dimension, k and the pair.
    """
    options = options or SolverOptions()
    K = sp.csr_matrix(K)
    M = sp.csr_matrix(M)
    dim = K.shape[0]
    if K.shape != M.shape or K.shape[0] != K.shape[1]:
        raise EigenError("pencil matrices must be square and matched")
    if not 1 <= k <= dim:
        raise EigenError(f"requested {k} eigenpairs from dimension {dim}")
    if start is not None and np.shape(start) != (dim, k):
        raise EigenError(
            f"start block of shape {np.shape(start)} for {k} eigenpairs "
            f"of dimension {dim}"
        )

    converged = True
    shift = steps = None
    if uses_dense_path(dim, k):
        method = "dense"
        values, vectors = la.eigh(
            K.toarray(), M.toarray(), subset_by_index=(0, k - 1)
        )
    elif start is not None:
        method = "lobpcg-multigrid"
        # LOBPCG's residual is not divided by 1 + |lambda|: a tenth of
        # options.tol keeps the check below clear of its stopping point
        values, vectors, steps = _lobpcg_pairs(
            K, M, np.asarray(start, dtype=float), precond, 0.1 * options.tol
        )
    else:
        method = "shift-invert-lanczos"
        shift, lu = factor if factor is not None else shifted_factor(K, M)
        opinv = spla.LinearOperator((dim, dim), matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(options.seed).standard_normal(dim)
        try:
            values, vectors = spla.eigsh(
                K, k=k, M=M, sigma=-shift, which="LM", v0=v0, OPinv=opinv
            )
        except ArpackNoConvergence as exc:
            values, vectors = exc.eigenvalues, exc.eigenvectors
            converged = False
            if values.size == 0:
                raise EigenError(
                    f"no eigenpairs converged (shift {-shift!r})"
                ) from exc

    order = np.argsort(values)
    values = np.asarray(values, dtype=float)[order]
    vectors = np.asarray(vectors, dtype=float)[:, order]
    vectors = _orthonormalize(vectors, M)
    residuals = _residuals(K, M, values, vectors)
    if converged and np.any(residuals > options.tol):
        converged = False
    return SpectralResult(
        values, vectors, residuals, bc, method, shift=shift, converged=converged,
        iterations=None if steps is None else tuple(steps[i] for i in order),
    )


# ---------------------------------------------------------------------------
# 1-form spectrum through the Hodge decomposition


def _natural_harmonics(ops, stiff, beta1: int, seed: int) -> np.ndarray:
    """M1-orthonormal basis of curl-free, weakly div-free edge fields.

    ``beta1`` fields drawn from ``seed`` are projected onto ker d1 by one
    d1 d1^T solve (definite: every face reaches the boundary), then lose
    their exact part d0 psi by one Neumann solve of ``stiff = d0^T M1 d0``
    pinned at vertex 0; random fields span the harmonic space left.
    """
    fields = np.random.default_rng(seed).standard_normal((ops.d1.shape[1], beta1))
    if beta1 == 0:
        return fields
    curl_gram = (ops.d1 @ ops.d1.T).tocsc()
    fields -= ops.d1.T @ spla.splu(curl_gram).solve(ops.d1 @ fields)
    div = (ops.d0.T @ (ops.mass1 @ fields))[1:]
    fields -= ops.d0[:, 1:] @ spla.splu(stiff[1:, 1:].tocsc()).solve(div)
    return _orthonormalize(fields, ops.mass1)


def solve_oneform(
    ops, k: int, options: Optional[SolverOptions] = None
) -> SpectralResult:
    """k smallest 1-form Hodge-Laplacian eigenvalues, zeros included.

    Assembles nothing new: the Neumann block solves
    ``(d0^T M1 d0) psi = eta M0 psi`` on all vertices, the Dirichlet
    block solves the same pencil restricted to interior vertices, and
    harmonics are seeded edge fields with their curl and exact parts
    projected out (:func:`_natural_harmonics`).  Returns the merged
    ascending values with their blocks' residuals (a harmonic field's
    residual is its Rayleigh quotient), the convergence flag of the two
    solves and the method, and no vectors; there are ``ops.mesh.betti1``
    zero modes.
    """
    options = options or SolverOptions()
    mesh = ops.mesh
    V = ops.mass0.shape[0]
    interior = mesh.interior
    n_int = len(interior)
    beta1 = mesh.betti1
    total = (V - 1) + n_int + beta1
    if not 1 <= k <= total:
        raise EigenError(f"requested {k} eigenvalues of {total} available")

    stiff = ops.d0.T @ (ops.mass1 @ ops.d0)
    stiff = (0.5 * (stiff + stiff.T)).tocsr()
    neu = solve_smallest(
        stiff, ops.mass0, min(k + 1, V), bc="neumann", options=options
    )
    blocks = [neu]
    if n_int > 0:
        blocks.append(solve_smallest(
            stiff[interior][:, interior], ops.mass0[interior][:, interior],
            min(k, n_int), bc="dirichlet", options=options,
        ))
    harmonics = _natural_harmonics(ops, stiff, beta1, options.seed)

    # harmonic Rayleigh quotients: tiny but honest, not hard zeros
    candidates = []  # (value, residual): harmonic, exact, then coexact
    for eta in harmonics.T:
        curl = ops.d1 @ eta
        div_rhs = ops.d0.T @ (ops.mass1 @ eta)
        sigma = spla.spsolve(ops.mass0.tocsc(), div_rhs)
        num = float(curl @ (ops.mass2 @ curl) + sigma @ (ops.mass0 @ sigma))
        rayleigh = num / float(eta @ (ops.mass1 @ eta))
        candidates.append((rayleigh, rayleigh))  # its own residual
    top = max(float(np.max(b.values)) for b in blocks)
    zero_cut = ZERO_MODE_FACTOR * max(top, 1e-300)
    for b in blocks:
        # drop the Neumann constant mode (d psi = 0), which falls below the cut
        candidates += [
            (float(v), float(r)) for v, r in zip(b.values, b.residuals)
            if b is not neu or v > zero_cut
        ]
    if len(candidates) < k:
        raise EigenError(
            f"only {len(candidates)} candidate modes for k={k}; "
            "increase the block solve depth"
        )
    # by value alone, and stable, so that residuals keep their order on ties
    values, residuals = np.array(sorted(candidates, key=lambda c: c[0])[:k]).T
    return SpectralResult(
        values, None, residuals, "oneform",
        method=f"hodge-split/{neu.method}",
        converged=all(b.converged for b in blocks),
    )


# ---------------------------------------------------------------------------
# multiplicity clustering


def cluster_multiplicities(
    values, rel_gap: float = 1e-6
) -> List[Tuple[float, int]]:
    """Greedy clustering of an ascending sequence.

    Consecutive values merge when their gap is at most ``rel_gap``
    times the larger magnitude; each cluster reports its mean and
    count.
    """
    vals = [float(v) for v in values]
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise EigenError("multiplicity clustering expects ascending input")
    clusters: List[List[float]] = []
    for v in vals:
        if clusters and v - clusters[-1][-1] <= rel_gap * max(
            abs(clusters[-1][-1]), abs(v)
        ):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]
