"""Top-level numerical checks on chart domains.

The checks on refinement levels take their meshes, scalar operators
and spectra from a :class:`LevelCache`, their own or one shared by the
checks of a run.  Spectra are keyed on ``(level, bc, k)``, except that
every Neumann request of k <= NEUMANN_BLOCK reads the first k pairs of
one solve of the block max(k, min(NEUMANN_BLOCK, dim)), the inequality's
four Neumann pairs; a sparse solve above level 0 starts from the coarser
level's solve of the same block.  The block depends only on ``(bc, k,
dim)``, so a check's numbers do not depend on which other checks ran.
Every check returns a :class:`VerificationReport` built by one
constructor that sets the pass flag by the check's :func:`recompute_pass`
rule, so the flag is by construction a pure function of the recorded
numbers: given a report's dictionary form, :func:`recompute_pass`
re-derives it without touching any solver state.

A check's keyword defaults are also the defaults of its ``check_params``
in a run config (:mod:`surfspec.cli` reads them from the signatures).
A distance function ``f`` is given as text or as an expression.  The
inequality and lemma checks first screen it, |grad f| = 1 and the
curvature margin on a SCREEN_SAMPLES grid over the domain widened by
SCREEN_ENLARGE on each side, and return a refusal report when either
fails.

The main inequality check compares the first Dirichlet eigenvalue
against the Neumann eigenvalue of order 3 - b1 (b1 the first Betti
number).  Conforming P1 elements approach eigenvalues from above at
second order, so near-equality cases are judged against the band
tol_h = C h^2 (C defaults to twice the computed Dirichlet value).  A
positive extrapolated margin is reported as numerical evidence only,
never as a certification of strict inequality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from . import eigen
from .assembly import (
    apply_dirichlet,
    assemble_oneform,
    assemble_scalar,
    dirichlet_form_quadrature,
)
from .eigen import (
    ZERO_MODE_FACTOR,
    EigenError,
    SolverOptions,
    SpectralResult,
    shifted_factor,
    solve_fits,
    solve_oneform,
    solve_smallest,
    uses_dense_path,
)
from .expr import Expr
from .geometry import (
    UNIT_GRADIENT_TOL,
    ChartMetric,
    GridSpec,
    _as_expr,
    check_unit_gradient,
    curvature_condition_check,
)
from .mesh import MAX_VERTICES, DomainSpec, Mesh, prolongation, refine, triangulate

__all__ = [
    "VerifyError",
    "ParameterError",
    "VerificationReport",
    "verify_inequality",
    "lemma_check",
    "spectrum_union_check",
    "hodge_dimension_check",
    "curvature_check",
    "cylinder_oracle",
    "oracle_check",
    "convergence_study",
    "recompute_pass",
]

UNION_RTOL = 1e-8
LEMMA_SLACK = 0.05
SHRINK_SLACK = 1e-12
# Neumann pairs solved per level: mu_1..mu_4, the inequality's mu_{3-b1} for
# b1 <= 2 plus the constant mode; smaller Neumann requests read its prefix
NEUMANN_BLOCK = 4
# the tolerance of a report refused at the unit-gradient or curvature screening
REFUSAL_TOLERANCE = "preconditions: unit gradient 1e-10, margin >= -1e-9"
# the screening grid of the checks on f: samples per axis, and the share of
# the domain's bounding box added on each side
SCREEN_SAMPLES = 48
SCREEN_ENLARGE = 0.05
# the most points a curvature check samples: it holds about 40 bytes a point
# (coordinates, values and margins), 0.7 GB at this count
MAX_GRID_POINTS = 4096**2
# the most values the cylinder oracle lists: each takes about 130 bytes in the
# lists and the report, and 13 bytes of report text, 0.15 GB at this count
MAX_ORACLE_VALUES = 10**6
# damped line smoothing of the nested-solve V-cycle: weight, steps each side
VCYCLE_DAMPING = 0.6
VCYCLE_SMOOTHING = 2
# -a_ij / max_k(-a_ik) from which vertex j couples strongly to vertex i, the
# test for the lines of the smoother; 0.25 finds the same lines on the
# benchmark configs
LINE_STRENGTH = 0.5


class VerifyError(ValueError):
    """Check preconditions violated (sizes, levels, period mismatch)."""


class ParameterError(VerifyError):
    """A check parameter out of range for the domain, or predicted to
    need more than its limit; ``param`` is its keyword."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def _refuse_depth(domain: DomainSpec, finest: int, param: str) -> None:
    """Refuse a check that refines to level ``finest`` when that mesh could
    exceed ``MAX_VERTICES`` (``DomainSpec.vertex_bound``); builds nothing."""
    bound = domain.vertex_bound(finest)
    if bound > MAX_VERTICES:
        raise ParameterError(
            param,
            f"refining this far could make a mesh of {bound:.3g} vertices, "
            f"above the limit {MAX_VERTICES:.0e}",
        )


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


@dataclass
class VerificationReport:
    """Outcome of one named check.

    ``quantities`` holds every number the pass flag depends on; the
    wall time lives outside the serialized payload so identical runs
    produce identical dictionaries.
    """

    check: str
    description: str
    levels: List[int]
    quantities: dict
    tolerance: str
    passed: bool
    wall_time_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "description": self.description,
            "levels": [int(l) for l in self.levels],
            "quantities": _jsonify(self.quantities),
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }


def _report(check, desc, levels, quantities, tolerance, start) -> VerificationReport:
    """A check's report; its flag is the check's recompute rule, its wall
    time the seconds since ``start``."""
    return VerificationReport(
        check, desc, levels, quantities, tolerance,
        _RECOMPUTE[check](quantities), time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# helpers


def _grid(
    domain: DomainSpec, metric: ChartMetric, samples: int, enlarge: float = 0.0
) -> GridSpec:
    """A samples x samples grid over the domain's bounding box, widened by
    ``enlarge`` times its size on each side and clipped to the metric's
    validity rectangle."""
    u0, u1, v0, v1 = domain.chart_box
    du, dv = enlarge * (u1 - u0), enlarge * (v1 - v0)
    w0, w1, z0, z1 = metric.validity
    return GridSpec(
        (max(u0 - du, w0), min(u1 + du, w1)),
        (max(v0 - dv, z0), min(v1 + dv, z1)),
        samples,
        samples,
    )


def _check_period(domain: DomainSpec, metric: ChartMetric):
    if domain.shape != "periodic_band" or metric.theta_period is None:
        return
    if abs(domain.theta_period - metric.theta_period) > 1e-12:
        raise VerifyError(
            "band period does not match the metric's angular period"
        )


def _screen(
    check: str, domain: DomainSpec, metric: ChartMetric, f, start: float
) -> Tuple[Expr, str, Optional[VerificationReport]]:
    """The start of a check on f: the period check, f as an expression,
    the report description and the screening (see the module docstring).
    Returns f, the description and the refusal report, None if none."""
    _check_period(domain, metric)
    f = _as_expr(f)
    desc = f"{domain.shape} n={domain.n}, {metric.family} metric, f = {f}"
    grid = _grid(domain, metric, SCREEN_SAMPLES, SCREEN_ENLARGE)
    ok, deviation = check_unit_gradient(metric, f, grid)
    if not ok:
        refusal = {
            "refused": True,
            "reason": "distance function is not unit-gradient",
            "max_gradient_deviation": float(deviation),
            "grid": grid.to_dict(),
        }
    else:
        curvature = curvature_condition_check(metric, f, grid)
        if curvature.passed:
            return f, desc, None
        refusal = {
            "refused": True,
            "reason": "curvature condition fails on the enlarged region",
            "curvature": curvature.to_dict(),
        }
    return f, desc, _report(check, desc, [], refusal, REFUSAL_TOLERANCE, start)


class LevelCache:
    """Meshes, scalar operators and spectra of one domain's refinement levels.

    Level 0 is ``triangulate(domain)`` and level L + 1 refines level L.
    Each item is built on first request and kept; spectra are keyed on
    ``(level, bc, k)`` with ``bc`` "dirichlet", "neumann" or "oneform".  A
    Neumann pencil of dimension dim is solved for the block
    max(k, min(NEUMANN_BLOCK, dim)), so every Neumann request of k <=
    NEUMANN_BLOCK is the first k pairs of one solve per level.  The
    number of pairs (:meth:`pairs`) and the solver memory (:meth:`fits`)
    of a request are predicted from the level's mesh alone.  Every
    caller gets the same objects, which nothing may modify.
    """

    def __init__(
        self, domain: DomainSpec, metric: ChartMetric,
        options: Optional[SolverOptions] = None,
    ):
        self.domain = domain
        self.metric = metric
        self.options = options if options is not None else SolverOptions()
        self._built: dict = {}

    def _get(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def mesh(self, level: int) -> Mesh:
        if level < 0:
            raise VerifyError(f"refinement level {level} is negative")
        return self._get(("mesh", level), lambda: (
            triangulate(self.domain) if level == 0
            else refine(self.mesh(level - 1))
        ))

    def operators(self, level: int):
        """P1 mass and stiffness on all vertices: the Neumann pencil."""
        return self._get(("operators", level), lambda: assemble_scalar(
            self.mesh(level), self.metric, quad_rule=self.options.quad_rule
        ))

    def pencil(self, level: int, bc: str):
        """A level's Neumann operators, or for Dirichlet those operators
        restricted to interior vertices."""
        if bc != "dirichlet":
            return self.operators(level)
        return self._get(
            ("reduction", level), lambda: apply_dirichlet(self.operators(level))
        )

    def pairs(self, level: int, bc: str) -> int:
        """The number of eigenpairs of a level's ``bc`` spectrum: its interior
        vertices for Dirichlet, its vertices for Neumann, and for the 1-form
        spectrum the positive Neumann and the Dirichlet modes plus b1
        harmonics, V - 1 + n_int + b1."""
        mesh = self.mesh(level)
        if bc == "oneform":
            return mesh.n_vertices - 1 + len(mesh.interior) + mesh.betti1
        return len(mesh.interior) if bc == "dirichlet" else mesh.n_vertices

    def fits(self, level: int, bc: str, k: int) -> bool:
        """Whether the solves of ``spectrum(level, bc, k)`` fit
        ``MAX_SOLVE_FLOATS`` (:func:`solve_fits`): a scalar request's block,
        nested above level 0; a 1-form request's two cold blocks, k + 1
        pairs over the vertices and k pairs over the interior."""
        if bc == "oneform":
            v, n_int = self.pairs(level, "neumann"), self.pairs(level, "dirichlet")
            return solve_fits(v, k + 1) and solve_fits(n_int, k)
        dim = self.pairs(level, bc)
        return solve_fits(dim, _block(bc, k, dim), nested=level > 0)

    def spectrum(self, level: int, bc: str, k: int) -> SpectralResult:
        """The k smallest eigenpairs of a level's ``bc`` spectrum.

        k outside [1, :meth:`pairs`] raises :class:`EigenError` before
        anything is assembled.  The 1-form spectrum is
        :func:`solve_oneform` of the level's operators; it reads no scalar
        spectrum of the cache, so the spectrum union compares independent
        solves.  A Neumann request of k below its block (see the class) is
        the block's first k values, vectors and residuals, bit for bit,
        with the block's method, shift and convergence flag.

        Level 0, and every level on the dense path, is a cold solve: ARPACK
        or dense, as :func:`solve_smallest` decides alone; a sparse level 0
        runs ARPACK on :meth:`_factor`.  A sparse solve above level 0 is a
        nested iteration: it takes the coarser level's solve of the same
        block (see :meth:`_nested_start`) and runs LOBPCG from it, one
        pair after another, each from its own column and preconditioned by
        :meth:`_vcycle`, so no level above 0 is factored, and a level's
        solve always derives from the same coarser solve, whichever checks
        asked for it.  Such a result records each pair's LOBPCG steps in
        ``iterations``.
        """
        dim = self.pairs(level, bc)
        if not 1 <= k <= dim:
            raise EigenError(
                f"requested {k} eigenpairs; the level-{level} {bc} spectrum has {dim}"
            )
        key = ("spectrum", level, bc, k)
        if bc == "oneform":
            return self._get(key, lambda: solve_oneform(
                assemble_oneform(self.operators(level)), k, options=self.options
            ))
        block = _block(bc, k, dim)
        if k < block:
            return self._get(key, lambda: _leading(self.spectrum(level, bc, block), k))

        def solve():
            pencil = self.pencil(level, bc)
            start, given = self._nested_start(level, bc, k), {}
            if start is not None:
                given = dict(start=start, precond=self._vcycle(level, bc))
            elif level == 0 and not uses_dense_path(dim, k):
                given = dict(factor=self._factor(bc))
            return solve_smallest(
                pencil.stiffness, pencil.mass, k, bc=bc, options=self.options, **given
            )

        return self._get(key, solve)

    def _factor(self, bc: str):
        """:func:`shifted_factor` of the level-0 ``bc`` pencil, ``(sigma, lu)``:
        the one factorization that level 0's ARPACK solve and every V-cycle
        of this bc share."""
        pencil = self.pencil(0, bc)
        return self._get(
            ("factor", bc), lambda: shifted_factor(pencil.stiffness, pencil.mass)
        )

    def _transfer(self, level: int, bc: str) -> sp.csr_matrix:
        """Interpolation from level - 1 onto ``level`` in the ``bc`` unknowns.

        :func:`prolongation` for Neumann; for Dirichlet the cached Neumann
        transfer's rows and columns restricted to interior vertices, which
        drops only the (zero) boundary values.
        """

        def build():
            if bc != "dirichlet":
                return prolongation(self.mesh(level - 1), self.mesh(level))
            P = self._transfer(level, "neumann")
            fine, coarse = self.mesh(level).interior, self.mesh(level - 1).interior
            return P[fine][:, coarse].tocsr()

        return self._get(("transfer", level, bc), build)

    def _nested_start(self, level: int, bc: str, k: int):
        """Start block of a nested sparse solve, or None for a cold one.

        The start block is the coarser level's k eigenvectors, each
        interpolated by :meth:`_transfer` (Knyazev & Neymeyr, ETNA 15,
        2003).  None at level 0, on the dense path, and when the coarser
        pencil has fewer than k unknowns.
        """
        fine_dim = self.pencil(level, bc).stiffness.shape[0]
        if level == 0 or uses_dense_path(fine_dim, k):
            return None
        if self.pencil(level - 1, bc).stiffness.shape[0] < k:
            return None
        return self._transfer(level, bc) @ self.spectrum(level - 1, bc, k).vectors

    def _vcycle(self, level: int, bc: str) -> Callable:
        """One multigrid V-cycle for A_l = K_l + sigma M_l over levels level..0.

        sigma and the exact level-0 solve are :meth:`_factor`'s; each
        level's A_l is built from the cache's own pencil, P_l is
        :meth:`_transfer`.  Damped line smoothing (weight VCYCLE_DAMPING,
        VCYCLE_SMOOTHING steps before and after the coarse correction) is
        block Jacobi whose blocks are the lines of strong couplings: x =
        weight B^-1 r, B being A_l's diagonal plus its couplings along
        lines.  :func:`_lines` finds the lines and factors B in one pass,
        cached per level and bc, so a smoothing step is one LAPACK solve
        on that factor.  A vertex on no line keeps the diagonal, so a
        level without lines is smoothed by damped point Jacobi.  B is
        symmetric positive definite, and with equal pre- and
        post-smoothing the V-cycle is symmetric.  Applies to a vector or
        a block.

        A level with lines is worked in line order: its line vertices
        first, as :func:`_lines` orders them, then the others.  A_l and
        the rows of P_l are permuted by it once, here, and so are the
        columns of P_{l + 1}; level 0 keeps the natural order.  A block
        is gathered into that order once on entering the finest level
        and scattered back once on leaving it, and each smoothing step
        reads and writes the line vertices as one slice.
        """
        shift, coarsest = self._factor(bc)
        A, P, jacobi, lines, perm = {}, {}, {}, {}, {}
        for l in range(1, level + 1):
            pencil = self.pencil(l, bc)
            a = (pencil.stiffness + shift * pencil.mass).tocsr()
            found = self._get(("lines", l, bc), lambda: _lines(a))
            p = self._transfer(l, bc)
            if found is not None:
                order, factor = found
                rest = np.ones(a.shape[0], dtype=bool)
                rest[order] = False
                perm[l] = np.concatenate([order, np.flatnonzero(rest)])
                a, p = a[perm[l]][:, perm[l]], p[perm[l]]
                lines[l] = (len(order), dpttrs if len(factor) == 2 else dpbtrs, factor)
            if l - 1 in perm:
                p = p[:, perm[l - 1]]
            A[l], P[l] = a, p
            jacobi[l] = VCYCLE_DAMPING / a.diagonal()[:, None]

        def smooth(l, r):
            if l not in lines:
                return jacobi[l] * r
            m, solve, factor = lines[l]
            x = np.empty_like(r)
            np.multiply(solve(*factor, r[:m])[0], VCYCLE_DAMPING, out=x[:m])
            np.multiply(jacobi[l][m:], r[m:], out=x[m:])
            return x

        # a loop, not a recursive closure: that closure would be a reference
        # cycle, which keeps A and the smoothers alive after the solve until
        # the cyclic garbage collector happens to run
        def apply(block):
            r = block.reshape(block.shape[0], -1)
            if level in perm:
                r = r[perm[level]]
            down = []
            for l in range(level, 0, -1):
                x = smooth(l, r)
                for _ in range(VCYCLE_SMOOTHING - 1):
                    x += smooth(l, r - A[l] @ x)
                down.append((l, r, x))
                r = P[l].T @ (r - A[l] @ x)
            x = coarsest.solve(r)
            for l, r, fine in reversed(down):
                fine += P[l] @ x
                for _ in range(VCYCLE_SMOOTHING):
                    fine += smooth(l, r - A[l] @ fine)
                x = fine
            if level in perm:
                x = np.empty_like(fine)
                x[perm[level]] = fine
            return x.reshape(block.shape)

        return apply


def _lines(A: sp.csr_matrix):
    """The lines of strong couplings of a symmetric A, or None if it has none.

    j couples strongly to i when -a_ij > 0 and -a_ij >= LINE_STRENGTH times
    the largest -a_ik, k != i (Trottenberg, Oosterlee & Schueller,
    *Multigrid*, 2001, section 5.1).  i and j are linked when each couples
    strongly to the other and neither has more than two strong couplings,
    so the links form paths and rings; a line is such a component of at
    least 3 vertices (two-vertex ones appear at the corners of isotropic
    grids).  Returns ``(order, factor)``: the line vertices in reverse
    Cuthill-McKee order, which gives a path bandwidth w = 1 and a ring
    w = 2, and the factor of B, A's diagonal and its couplings along
    links on those vertices, as the leading arguments of its LAPACK
    solve: ``dpttrf``'s (d, e) of B = L D L^T for ``dpttrs`` when w = 1,
    and ``dpbtrf``'s (U,) of B = U^T U, in upper band storage, for
    ``dpbtrs`` when w = 2.  None also when B is not positive definite,
    since LOBPCG needs a symmetric positive definite preconditioner.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    pull = np.where(A.indices == rows, -np.inf, -A.data)  # -a_ij, i != j
    strongest = np.maximum.reduceat(pull, A.indptr[:-1])
    strong = (pull > 0) & (pull >= LINE_STRENGTH * strongest[rows])
    few = np.add.reduceat(strong, A.indptr[:-1], dtype=np.intp) <= 2
    at = np.flatnonzero(strong & few[rows] & few[A.indices])
    cand = sp.csr_matrix(
        (A.data[at], A.indices[at], np.searchsorted(at, A.indptr)), shape=(n, n)
    )
    # a_ij = a_ji < 0 at every candidate, so the maximum keeps exactly the
    # pairs that are candidates both ways, with their couplings
    links = cand.maximum(cand.T)
    # both graph routines read only the pattern, not the couplings
    _, label = connected_components(links, directed=False)
    on_line = np.flatnonzero(np.bincount(label)[label] >= 3)
    if on_line.size == 0:
        return None
    perm = reverse_cuthill_mckee(links[on_line][:, on_line], symmetric_mode=True)
    order = on_line[perm]
    pairs = sp.triu(links[order][:, order], k=1).tocoo()
    offset = pairs.col - pairs.row
    if offset.max() == 1:
        e = np.zeros(len(order) - 1)
        e[pairs.row] = pairs.data
        d, e, info = dpttrf(A.diagonal()[order], e)
        factor = (d, e)
    else:
        band = np.zeros((3, len(order)))
        band[2] = A.diagonal()[order]
        band[2 - offset, pairs.col] = pairs.data
        upper, info = dpbtrf(band)
        factor = (upper,)
    return (order.astype(np.int32), factor) if info == 0 else None


def _block(bc: str, k: int, dim: int) -> int:
    """The pairs solved for a request of k scalar pairs of a dimension-``dim``
    pencil: k, or for Neumann at least min(NEUMANN_BLOCK, dim)."""
    return max(k, min(NEUMANN_BLOCK, dim)) if bc == "neumann" else k


def _leading(block: SpectralResult, k: int) -> SpectralResult:
    """The first k pairs of a solved block; everything else is the block's."""
    return SpectralResult(
        block.values[:k], block.vectors[:, :k], block.residuals[:k], block.bc,
        block.method, shift=block.shift, converged=block.converged,
        iterations=None if block.iterations is None else block.iterations[:k],
    )


def _spectrum(cache: LevelCache, level: int, bc: str, k: int) -> SpectralResult:
    """The cache's spectrum for a check, if its solve converged; otherwise
    :class:`EigenError` naming the level, the bc, the worst residual and the
    solver tolerance, so that no check reports a spectrum that did not
    converge."""
    result = cache.spectrum(level, bc, k)
    if not result.converged:
        raise EigenError(
            f"the level-{level} {bc} eigensolve did not converge: worst "
            f"residual {float(np.max(result.residuals)):.3g}, tolerance "
            f"{cache.options.tol:g}"
        )
    return result


def solve_limit_refusal(request: str) -> str:
    """The refusal of ``request``, whose solves :meth:`LevelCache.fits`
    predicts to exceed ``eigen.MAX_SOLVE_FLOATS``; names the limit in force."""
    limit = eigen.MAX_SOLVE_FLOATS
    return f"{request} need solver arrays above the limit {limit:.0e} floats"


def _level_cache(domain, metric, options, cache) -> LevelCache:
    """The caller's cache, or a new one; refuses a cache for other inputs."""
    if cache is None:
        return LevelCache(domain, metric, options)
    if (
        cache.domain is not domain
        or cache.metric is not metric
        or (options is not None and options != cache.options)
    ):
        raise VerifyError(
            "level cache was built for another domain, metric or options"
        )
    return cache


# ---------------------------------------------------------------------------
# main inequality


def verify_inequality(
    domain: DomainSpec,
    metric: ChartMetric,
    f,
    levels: int = 3,
    options: Optional[SolverOptions] = None,
    *,
    cache: Optional[LevelCache] = None,
) -> VerificationReport:
    """Dirichlet-vs-Neumann comparison over a refinement chain.

    Per level: first Dirichlet eigenvalue, first four Neumann
    eigenvalues, and the margin lambda_1 - mu_{3-b1}.  A level passes
    when the margin is at least -tol_h with tol_h = 2 lambda_1 h^2.
    The margin sequence is Richardson-extrapolated (second order) and
    the report records whether the levels approach that limit
    monotonically; for b1 = 0 the extrapolated value doubles as the
    strict margin, reported as numerical evidence only.

    Refuses to run (passed = False, quantities explain why) when the
    unit-gradient or curvature screening fails around the domain.
    """
    start = time.perf_counter()
    if levels < 1:
        raise VerifyError("inequality check needs at least 1 level")
    _refuse_depth(domain, levels - 1, "levels")
    f, desc, refused = _screen("inequality", domain, metric, f, start)
    if refused is not None:
        return refused

    cache = _level_cache(domain, metric, options, cache)
    beta1 = cache.mesh(0).betti1
    mu_order = 3 - beta1
    rows = []
    for lvl in range(levels):
        mesh = cache.mesh(lvl)
        lam1 = float(_spectrum(cache, lvl, "dirichlet", 1).values[0])
        mu = [
            float(x) for x in _spectrum(cache, lvl, "neumann", NEUMANN_BLOCK).values
        ]
        target = mu[mu_order - 1]
        h = mesh.h_max
        tol_h = 2.0 * lam1 * h * h
        margin = lam1 - target
        rows.append(
            {
                "level": lvl,
                "n_faces": mesh.n_faces,
                "h": h,
                "lambda1": lam1,
                "mu": mu,
                "mu_target": target,
                "margin": margin,
                "tol_h": tol_h,
                "passed": bool(margin >= -tol_h),
            }
        )

    margins = [r["margin"] for r in rows]
    if len(margins) >= 2:
        extrapolated = (4.0 * margins[-1] - margins[-2]) / 3.0
    else:
        extrapolated = margins[0]
    gaps = [abs(m - extrapolated) for m in margins]
    approach = all(b <= a + SHRINK_SLACK for a, b in zip(gaps, gaps[1:]))

    quantities = {
        "betti1": beta1,
        "mu_order": mu_order,
        "levels": rows,
        "extrapolated_margin": extrapolated,
        "margin_approach_monotone": approach,
    }
    if beta1 == 0:
        quantities["strict_margin"] = extrapolated
        quantities["strictness_note"] = (
            "positive margin is numerical evidence, not a certification"
        )
    return _report(
        "inequality", desc, list(range(levels)), quantities,
        "margin >= -2*lambda1*h^2 at every level", start,
    )


# ---------------------------------------------------------------------------
# trial-field energy bound


def lemma_check(
    domain: DomainSpec,
    metric: ChartMetric,
    f,
    level: int = 0,
    options: Optional[SolverOptions] = None,
    *,
    cache: Optional[LevelCache] = None,
) -> VerificationReport:
    """Energy bounds for the two trial 1-forms built from the ground state.

    At the requested level: alpha_nu and alpha_star_nu must not exceed
    lambda_1 (1 + 0.05) and |cross| must stay below 0.05 lambda_1.
    The three normalized excesses must shrink (within 1e-12 slack)
    after one refinement.
    """
    start = time.perf_counter()
    _refuse_depth(domain, level + 1, "level")
    f, desc, refused = _screen("lemma", domain, metric, f, start)
    if refused is not None:
        return refused

    cache = _level_cache(domain, metric, options, cache)

    def stage(lvl):
        mesh = cache.mesh(lvl)
        ground = _spectrum(cache, lvl, "dirichlet", 1)
        lam1 = float(ground.values[0])
        phi = np.zeros(mesh.n_vertices)
        phi[mesh.interior] = ground.vectors[:, 0]
        out = dirichlet_form_quadrature(cache.operators(lvl), f, phi, lam1)
        return {
            "lambda1": lam1,
            "alpha_nu": out["alpha_nu"],
            "alpha_star_nu": out["alpha_star_nu"],
            "cross": out["cross"],
            "dphi_norm2": out["dphi_norm2"],
            "excess_nu": max(out["alpha_nu"] - lam1, 0.0) / lam1,
            "excess_star_nu": max(out["alpha_star_nu"] - lam1, 0.0) / lam1,
            "cross_ratio": abs(out["cross"]) / lam1,
        }

    coarse = stage(level)
    fine = stage(level + 1)
    quantities = {"coarse": coarse, "fine": fine, "slack": LEMMA_SLACK}
    return _report(
        "lemma", desc, [level, level + 1], quantities,
        "alpha <= 1.05*lambda1, |cross| <= 0.05*lambda1, "
        "excesses shrink under refinement", start,
    )


def _lemma_pass(q) -> bool:
    if q.get("refused"):
        return False
    c, fq = q["coarse"], q["fine"]
    lam = c["lambda1"]
    bounds = (
        c["alpha_nu"] <= (1 + LEMMA_SLACK) * lam
        and c["alpha_star_nu"] <= (1 + LEMMA_SLACK) * lam
        and abs(c["cross"]) <= LEMMA_SLACK * lam
    )
    shrink = all(
        fq[key] <= c[key] + SHRINK_SLACK
        for key in ("excess_nu", "excess_star_nu", "cross_ratio")
    )
    return bool(bounds and shrink)


# ---------------------------------------------------------------------------
# 1-form spectrum vs scalar spectra


def spectrum_union_check(
    domain: DomainSpec,
    metric: ChartMetric,
    level: int = 0,
    count: int = 10,
    options: Optional[SolverOptions] = None,
    *,
    cache: Optional[LevelCache] = None,
) -> VerificationReport:
    """Positive 1-form spectrum against the merged scalar spectra.

    Both sides are computed on the same mesh, so the comparison is a
    discrete identity and must hold to solver tolerance (1e-8
    relative), not merely in the refinement limit.  Zero modes must
    number exactly b1.

    The scalar pencils are solved twice on purpose: the 1-form side (the
    cache's "oneform" spectrum) solves the pencils of ``d0^T M1 d0`` built
    from the Whitney mass, the scalar side takes the cache's spectra of
    the assembled P1 stiffness K.  That ``d0^T M1 d0 = K`` is the
    identity under test, so neither side may reuse the other's solve.
    """
    start = time.perf_counter()
    _check_period(domain, metric)
    _refuse_depth(domain, level, "level")
    cache = _level_cache(domain, metric, options, cache)
    mesh = cache.mesh(level)
    desc = f"{domain.shape} n={domain.n}, {metric.family} metric"
    n_int = cache.pairs(level, "dirichlet")
    if count > n_int:
        raise ParameterError(
            "count",
            f"more eigenvalues requested than the {n_int} of "
            f"the Dirichlet problem at level {level}",
        )
    beta1 = mesh.betti1
    # the 1-form side's count + b1 values, zeros included, and the scalar
    # side's count Dirichlet and count + 1 Neumann pairs
    solves = (("oneform", count + beta1), ("dirichlet", count), ("neumann", count + 1))
    if not all(cache.fits(level, bc, k) for bc, k in solves):
        raise ParameterError("count", solve_limit_refusal(
            f"{count} eigenvalues of {mesh.n_vertices} vertices at level {level}"
        ))
    one, dirichlet, neumann = (_spectrum(cache, level, bc, k) for bc, k in solves)
    top = float(np.max(one.values))
    zero_count = int(np.sum(one.values < ZERO_MODE_FACTOR * top))
    positive = [float(v) for v in one.values[zero_count:]]

    # the Neumann side drops its constant mode
    union = np.sort(np.concatenate([dirichlet.values, neumann.values[1:]]))[:count]

    quantities = {
        "betti1": beta1,
        "zero_modes": zero_count,
        "oneform_positive": positive,
        "scalar_union": [float(v) for v in union],
        "max_rel_difference": float(
            np.max(np.abs(np.array(positive) - union) / union)
        ),
    }
    return _report(
        "spectrum-union", desc, [level], quantities,
        f"relative difference <= {UNION_RTOL}, zero modes == betti1", start,
    )


def _union_pass(q) -> bool:
    return bool(
        q["max_rel_difference"] <= UNION_RTOL
        and q["zero_modes"] == q["betti1"]
    )


# ---------------------------------------------------------------------------
# Hodge dimension identity


def hodge_dimension_check(mesh: Mesh) -> VerificationReport:
    """Rank bookkeeping of the incidence complex on one mesh.

    rank d0 + rank d1 + b1 must equal the number of logical edges; the
    cohomology dimension E - rank d0 - rank d1 must equal b1.  As every
    edge borders one or two consistently oriented faces (``Mesh`` checks),
    the ranks are exact graph counts on the mesh's incidence matrices:
    rank d0 = V - (components of the edge graph d0^T d0), rank d1 = F -
    (components of the dual graph |d1| |d1|^T, faces joined across
    interior edges, without a boundary edge).
    """
    start = time.perf_counter()
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_faces
    rank_d0 = V - connected_components(mesh.d0.T @ mesh.d0, directed=False)[0]
    face_edge = abs(mesh.d1)
    n_dual, label = connected_components(face_edge @ face_edge.T, directed=False)
    bordered = np.unique(label[face_edge @ mesh.boundary_edge_mask > 0])
    rank_d1 = F - (n_dual - len(bordered))
    beta1 = mesh.betti1
    harmonic = E - rank_d0 - rank_d1
    dom = mesh.domain.to_dict() if mesh.domain else {"shape": "custom"}
    quantities = {
        "n_vertices": V,
        "n_edges": E,
        "n_faces": F,
        "euler_characteristic": mesh.euler_characteristic,
        "betti1": beta1,
        "rank_d0": rank_d0,
        "rank_d1": rank_d1,
        "harmonic_dimension": harmonic,
    }
    return _report(
        "hodge-dimension",
        f"{dom.get('shape')} mesh, {V} vertices / {E} edges / {F} faces",
        [mesh.level], quantities,
        "rank d0 + rank d1 + betti1 == n_edges (exact integers)", start,
    )


def _hodge_pass(q) -> bool:
    return bool(
        q["rank_d0"] + q["rank_d1"] + q["betti1"] == q["n_edges"]
        and q["harmonic_dimension"] == q["betti1"]
    )


# ---------------------------------------------------------------------------
# pointwise curvature condition as a standalone check


def curvature_check(
    domain: DomainSpec,
    metric: ChartMetric,
    f,
    samples: int = 64,
) -> VerificationReport:
    """Unit-gradient and curvature-margin sampling over the domain.

    Samples a regular grid covering the domain's bounding box (clipped
    to the metric's validity rectangle).  Passes when |grad f| = 1
    within 1e-10 everywhere and the margin -(K + |Hess f|^2) stays
    above -1e-9; a failure records the worst sample point.
    """
    start = time.perf_counter()
    _check_period(domain, metric)
    if samples * samples > MAX_GRID_POINTS:
        raise ParameterError(
            "samples", f"samples^2 grid points exceed the limit {MAX_GRID_POINTS}"
        )
    f = _as_expr(f)
    grid = _grid(domain, metric, samples)
    _, deviation = check_unit_gradient(metric, f, grid)
    report = curvature_condition_check(metric, f, grid)
    quantities = {
        "max_gradient_deviation": float(deviation),
        "gradient_tol": UNIT_GRADIENT_TOL,
        "curvature": report.to_dict(),
    }
    return _report(
        "curvature",
        f"{domain.shape}, {metric.family} metric, f = {f}",
        [], quantities,
        "|grad f| within 1e-10 of 1 and margin >= -1e-9 on the grid", start,
    )


def _curvature_pass(q) -> bool:
    c = q["curvature"]
    return bool(
        q["max_gradient_deviation"] <= q["gradient_tol"]
        and c["min_margin"] >= -c["tol"]
    )


# ---------------------------------------------------------------------------
# closed-form oracle for the flat cylinder band


def cylinder_oracle(max_index: int) -> Tuple[List[int], List[int]]:
    """Separable spectra of the flat band with circumference 2*pi.

    Dirichlet values are i^2 + j^2 over i in [-m, m], j in [1, m];
    Neumann values take j down to 0.  Both lists come back sorted.
    """
    if max_index < 1:
        raise ParameterError("max_index", "max_index must be at least 1")
    if (2 * max_index + 1) ** 2 > MAX_ORACLE_VALUES:
        raise ParameterError(
            "max_index", f"(2 max_index + 1)^2 oracle values exceed the limit "
            f"{MAX_ORACLE_VALUES}",
        )
    m = max_index
    dirichlet = sorted(
        i * i + j * j for i in range(-m, m + 1) for j in range(1, m + 1)
    )
    neumann = sorted(
        i * i + k * k for i in range(-m, m + 1) for k in range(0, m + 1)
    )
    return dirichlet, neumann


def oracle_check(max_index: int = 10) -> VerificationReport:
    """Cylinder-band oracle packaged with its interlacing self-test.

    The enumerated lists are complete only up to the value
    max_index^2, so the one-step interlacing mu_{m+1} <= lambda_m is
    asserted on that reliable prefix alone.
    """
    start = time.perf_counter()
    dirichlet, neumann = cylinder_oracle(max_index)
    cap = max_index * max_index
    d_head = [v for v in dirichlet if v <= cap]
    n_head = [v for v in neumann if v <= cap]
    limit = min(len(d_head), len(n_head) - 1)
    violations = sum(
        1 for m in range(1, limit + 1) if n_head[m] > d_head[m - 1]
    )
    quantities = {
        "max_index": int(max_index),
        "dirichlet": dirichlet,
        "neumann": neumann,
        "compared_pairs": int(limit),
        "interlacing_violations": int(violations),
    }
    return _report(
        "oracle",
        f"flat cylinder band closed form, max_index={max_index}",
        [], quantities,
        "mu_{m+1} <= lambda_m on the reliable prefix (exact integers)", start,
    )


def _oracle_pass(q) -> bool:
    return bool(q["interlacing_violations"] == 0 and q["compared_pairs"] > 0)


# ---------------------------------------------------------------------------
# refinement convergence


def convergence_study(
    domain: DomainSpec,
    metric: ChartMetric,
    bc: str = "dirichlet",
    levels: int = 3,
    options: Optional[SolverOptions] = None,
    *,
    cache: Optional[LevelCache] = None,
) -> VerificationReport:
    """First nonzero eigenvalue over a refinement chain with a rate fit.

    Richardson-extrapolates the two finest values with a second-order
    ansatz and fits the slope of log error against log h.  A
    non-monotone sequence is reported without a fit.
    """
    start = time.perf_counter()
    _check_period(domain, metric)
    if levels < 3:
        raise VerifyError("convergence study needs at least 3 levels")
    _refuse_depth(domain, levels - 1, "levels")
    if bc not in ("dirichlet", "neumann"):
        raise VerifyError(f"unknown boundary condition tag '{bc}'")

    cache = _level_cache(domain, metric, options, cache)
    index = 0 if bc == "dirichlet" else 1  # skip the constant Neumann mode
    rows = [
        {
            "level": lvl,
            "h": cache.mesh(lvl).h_max,
            "value": float(_spectrum(cache, lvl, bc, index + 1).values[index]),
        }
        for lvl in range(levels)
    ]

    values = [r["value"] for r in rows]
    hs = [r["h"] for r in rows]
    monotone = all(b <= a for a, b in zip(values, values[1:]))
    extrapolated = (4.0 * values[-1] - values[-2]) / 3.0
    errors = [v - extrapolated for v in values]
    fitted = None
    if monotone and all(e > 0 for e in errors):
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        fitted = float(slope)

    quantities = {
        "bc": bc,
        "table": rows,
        "extrapolated": extrapolated,
        "monotone": monotone,
        "fitted_order": fitted,
    }
    return _report(
        "convergence",
        f"{domain.shape} n={domain.n}, {metric.family} metric, {bc}",
        list(range(levels)), quantities,
        "monotone from above with fitted order in [1.8, 2.2]", start,
    )


def _convergence_pass(q) -> bool:
    return bool(
        q["monotone"]
        and q["fitted_order"] is not None
        and 1.8 <= q["fitted_order"] <= 2.2
    )


# ---------------------------------------------------------------------------
# pass-flag recomputation


def _inequality_pass(q) -> bool:
    if q.get("refused"):
        return False
    return all(
        lv["margin"] >= -lv["tol_h"] for lv in q["levels"]
    )


_RECOMPUTE: Dict[str, Callable[[dict], bool]] = {
    "inequality": _inequality_pass,
    "lemma": _lemma_pass,
    "spectrum-union": _union_pass,
    "hodge-dimension": _hodge_pass,
    "curvature": _curvature_pass,
    "oracle": _oracle_pass,
    "convergence": _convergence_pass,
}


def recompute_pass(report) -> bool:
    """Re-derive a report's pass flag from its recorded quantities."""
    data = report.to_dict() if isinstance(report, VerificationReport) else report
    name = data["check"]
    if name not in _RECOMPUTE:
        raise VerifyError(f"no recompute rule for check '{name}'")
    return _RECOMPUTE[name](data["quantities"])
