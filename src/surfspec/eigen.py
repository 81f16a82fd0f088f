"""Generalized symmetric eigensolvers for the assembled pencils.

``solve_smallest`` handles K x = lambda M x for the scalar problems by
the method that :func:`solve_plan` picks: dense reduction up to
DENSE_MAX_DIM unknowns, and two sparse paths above.  A cold solve
(level 0 of a refinement chain, a block beyond the coarser level's
spectrum, and every direct caller) runs shift-invert Lanczos (ARPACK)
from a start vector drawn from ``options.seed``, on the factor of
:func:`shifted_factor`, the one rule for the shift: sigma = SIGMA_SCALE
* mean(K_ii / M_ii), factored by SuperLU in symmetric mode (minimum
degree on A^T + A, diagonal pivots).  Any sigma > 0 keeps K + sigma M
definite for these positive semi-definite pencils, so it returns the k
smallest pairs.  A nested solve (``verify.LevelCache`` above level 0)
passes a start block, the coarser level's eigenvectors interpolated onto
this one, and a preconditioner, a multigrid V-cycle that smooths along
lines of strong couplings and whose coarse solve is the level-0 factor;
it factors nothing.  It finds the pairs one after another by
single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001), pair j
from column j of the start block and M-orthogonal to the pairs already
found, so a pair that converges early costs no further steps while a
slower one converges.
A pair stops at a tenth of ``options.tol`` in the relative residual
||K x - theta M x|| / (1 + |theta|) that the convergence check reads.
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

from .assembly import _solve_mass0

__all__ = [
    "EigenError",
    "SolverOptions",
    "SpectralResult",
    "shifted_factor",
    "solve_smallest",
    "solve_plan",
    "solve_oneform",
    "cluster_multiplicities",
]

SIGMA_SCALE = 1e-6  # shift / mean(K_ii / M_ii); 1e-5 and up add LOBPCG iterations
LOBPCG_MAXITER = 100  # steps per pair; the perfbench configs' pairs take 0-12
# largest pencil solved densely: the measured crossover (2 cores, hyperbolic
# rectangle: dense = sparse at dim 220, 23.5 vs 8.2 ms at dim 476)
DENSE_MAX_DIM = 250
# the most floats the work arrays of one solve may hold, 0.8 GB: ARPACK's
# Lanczos basis, LOBPCG's blocks or the dense copies (see solve_plan)
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


def solve_plan(dim: int, k: int, nested: bool = False) -> Tuple[str, int]:
    """The method :func:`solve_smallest` runs for k pairs of a dimension-
    ``dim`` pencil, and the floats its work arrays hold, as ``(method,
    floats)``: "dense" at most ``DENSE_MAX_DIM`` unknowns or when k reaches
    dim, ``DENSE_COPIES`` dim x dim arrays; else "lobpcg-multigrid" for a
    ``nested`` solve (given a start block), ``LOBPCG_BLOCKS`` dim x k
    arrays, or "shift-invert-lanczos", ARPACK's dim x min(dim, max(2k + 1,
    20)) floats of Lanczos vectors."""
    if dim <= DENSE_MAX_DIM or k >= dim:
        return "dense", DENSE_COPIES * dim * dim
    if nested:
        return "lobpcg-multigrid", LOBPCG_BLOCKS * dim * k
    return "shift-invert-lanczos", dim * min(dim, max(2 * k + 1, 20))


def shifted_factor(K, M) -> Tuple[float, spla.SuperLU]:
    """sigma = ``SIGMA_SCALE * mean(K_ii / M_ii)`` and the sparse LU of K +
    sigma M; a factorization breakdown raises :class:`EigenError` naming sigma.

    K + sigma M is symmetric positive definite, so SuperLU runs in its
    symmetric mode: a minimum degree ordering of A^T + A applied to rows
    and columns alike, and diagonal pivots (``diag_pivot_thresh=0``), so
    ``perm_r == perm_c`` and no row is exchanged.  On halfplane's level-0
    pencils this took the factor from about 11 to 6.5 ms against COLAMD
    with partial pivoting, with 30 % less fill."""
    K, M = sp.csr_matrix(K), sp.csr_matrix(M)
    shift = float(SIGMA_SCALE * np.mean(K.diagonal() / M.diagonal()))
    try:
        return shift, spla.splu(
            (K + shift * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0, options=dict(SymmetricMode=True),
        )
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
    when ||K x - theta M x|| <= ``tol`` (1 + |theta|) with x M-normalized,
    the relative residual that :func:`solve_smallest` checks, or after
    ``LOBPCG_MAXITER`` steps; the caller's residual check judges it.  x,
    w and p are rows of one preallocated block, each with its K and M
    images, and a step updates them in place.  A direction with no
    M-norm left, or a Gram matrix that is not positive definite, raises
    :class:`EigenError` naming the dimension, k and the pair.
    """
    dim, k = start.shape
    found, mfound = np.empty((dim, k)), np.empty((dim, k))
    values, steps = np.empty(k), []
    # rows x, w and p of the search space, each with its K and M images
    basis = np.empty((3, 3, dim))
    x, w, p = basis
    r = np.empty(dim)
    for j in range(k):
        X, MX = found[:, :j], mfound[:, :j]

        def fail(reason):
            return EigenError(
                f"LOBPCG broke down at pair {j + 1} of {k} eigenpairs of "
                f"dimension {dim}: {reason}"
            )

        def unit(row):
            """row[0] made M-orthogonal to the found pairs and M-normalized,
            with its K and M images in rows 1 and 2."""
            row[0] -= X @ (MX.T @ row[0])
            row[2] = M @ row[0]
            norm = np.sqrt(row[0] @ row[2])
            if not norm > 0:
                raise fail("a search direction has no M-norm left")
            row[1] = K @ row[0]
            row /= norm

        x[0] = start[:, j]
        unit(x)
        theta, size, step = x[0] @ x[1], 2, 0
        np.multiply(x[2], -theta, out=r)
        r += x[1]
        while step < LOBPCG_MAXITER and np.linalg.norm(r) > tol * (1 + abs(theta)):
            v = precond(r)
            np.multiply(x[0], -(x[2] @ v), out=w[0])
            w[0] += v
            unit(w)
            space = basis[:size]
            try:
                ritz, c = la.eigh(
                    space[:, 0] @ space[:, 1].T, space[:, 0] @ space[:, 2].T,
                    subset_by_index=(0, 0),
                )
            except la.LinAlgError as exc:
                raise fail(f"the Gram matrix is not positive definite: {exc}") from exc
            theta, c = ritz[0], c[:, 0]
            # p = c_w w + c_p p, then x = c_x x + p; w is free from here on
            if size == 3:
                p *= c[2]
                w *= c[1]
                p += w
            else:
                np.multiply(w, c[1], out=p)
            x *= c[0]
            x += p
            # p keeps only its part M-orthogonal to the new x
            np.multiply(x, x[2] @ p[0], out=w)
            p -= w
            norm = np.sqrt(p[0] @ p[2])
            if norm > 0:
                p /= norm
                size = 3
            else:
                size = 2
            np.multiply(x[2], -theta, out=r)
            r += x[1]
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

    The method is :func:`solve_plan`'s, nested when ``start`` is given:
    dense reduction at most ``DENSE_MAX_DIM`` unknowns or when k reaches
    the dimension.  Otherwise, given a ``start`` block of shape (dim, k),
    single-vector LOBPCG for each pair in turn, from that block's column
    and deflated against the pairs already found, with ``precond``, a
    callable applied to a residual vector, as the preconditioner; each
    pair stops at ||K x - theta M x|| <= 0.1 ``options.tol`` (1 +
    |theta|) with x M-normalized, a tenth of the relative residual
    checked below, or after ``LOBPCG_MAXITER`` steps, and ``iterations``
    records its steps.  Without a start block, shift-invert Lanczos from
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
    method, _ = solve_plan(dim, k, nested=start is not None)
    if method == "dense":
        values, vectors = la.eigh(
            K.toarray(), M.toarray(), subset_by_index=(0, k - 1)
        )
    elif method == "lobpcg-multigrid":
        # a tenth of options.tol keeps the check below clear of the stop
        values, vectors, steps = _lobpcg_pairs(
            K, M, np.asarray(start, dtype=float), precond, 0.1 * options.tol
        )
    else:
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


def _natural_harmonics(ops, stiff, seed: int) -> np.ndarray:
    """M1-orthonormal basis of curl-free, weakly div-free edge fields.

    b1 fields drawn from ``seed`` are projected onto ker d1 by one d1 d1^T
    solve (definite: every face reaches the boundary), then lose their
    exact part d0 psi by one Neumann solve of ``stiff = d0^T M1 d0``
    pinned at vertex 0; random fields span the harmonic space left.
    """
    mesh = ops.scalar.mesh
    d0, d1 = mesh.d0, mesh.d1
    fields = np.random.default_rng(seed).standard_normal((mesh.n_edges, mesh.betti1))
    if mesh.betti1 == 0:
        return fields
    curl_gram = (d1 @ d1.T).tocsc()
    fields -= d1.T @ spla.splu(curl_gram).solve(d1 @ fields)
    div = (d0.T @ (ops.mass1 @ fields))[1:]
    fields -= d0[:, 1:] @ spla.splu(stiff[1:, 1:].tocsc()).solve(div)
    return _orthonormalize(fields, ops.mass1)


def solve_oneform(
    ops, k: int, options: Optional[SolverOptions] = None
) -> SpectralResult:
    """k smallest 1-form Hodge-Laplacian eigenvalues, zeros included.

    Assembles nothing new: the Neumann block solves
    ``(d0^T M1 d0) psi = eta M0 psi`` on all vertices, the Dirichlet
    block solves the same pencil restricted to interior vertices, and
    harmonics are seeded edge fields with their curl and exact parts
    projected out (:func:`_natural_harmonics`); d0, d1 and M0 are those
    of ``ops.scalar``.  The Neumann block's first pair, the constant mode
    (d psi = 0), is dropped.  Returns the merged ascending values with
    their blocks' residuals (a harmonic field's residual is its Rayleigh
    quotient, whose divergence part takes one M0 solve by the assembly's
    CG), the convergence flag of the two solves and the method, and no
    vectors; there are ``betti1`` zero modes.
    """
    options = options or SolverOptions()
    mesh, mass0 = ops.scalar.mesh, ops.scalar.mass
    V = mesh.n_vertices
    interior = mesh.interior
    n_int = len(interior)
    total = (V - 1) + n_int + mesh.betti1
    if not 1 <= k <= total:
        raise EigenError(f"requested {k} eigenvalues of {total} available")

    stiff = mesh.d0.T @ (ops.mass1 @ mesh.d0)
    stiff = (0.5 * (stiff + stiff.T)).tocsr()
    neu = solve_smallest(stiff, mass0, min(k + 1, V), bc="neumann", options=options)
    blocks = [neu]
    if n_int > 0:
        blocks.append(solve_smallest(
            stiff[interior][:, interior], mass0[interior][:, interior],
            min(k, n_int), bc="dirichlet", options=options,
        ))
    harmonics = _natural_harmonics(ops, stiff, options.seed)

    # harmonic Rayleigh quotients: tiny but honest, not hard zeros
    candidates = []  # (value, residual): harmonic, exact, then coexact
    for eta in harmonics.T:
        curl = mesh.d1 @ eta
        div_rhs = mesh.d0.T @ (ops.mass1 @ eta)
        sigma = _solve_mass0(mass0, div_rhs, "a harmonic field")
        num = float(curl @ (ops.mass2 @ curl) + sigma @ (mass0 @ sigma))
        rayleigh = num / float(eta @ (ops.mass1 @ eta))
        candidates.append((rayleigh, rayleigh))  # its own residual
    for b in blocks:
        pairs = [(float(v), float(r)) for v, r in zip(b.values, b.residuals)]
        # the Neumann block's first pair is the constant mode (d psi = 0)
        candidates += pairs[1:] if b is neu else pairs
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
