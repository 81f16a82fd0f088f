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
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .assembly import (
    apply_dirichlet,
    assemble_oneform,
    assemble_scalar,
    dirichlet_form_quadrature,
)
from .eigen import (
    SIGMA_SCALE,
    ZERO_MODE_FACTOR,
    EigenError,
    SolverOptions,
    SpectralResult,
    solve_oneform,
    solve_smallest,
    uses_dense_path,
)
from .geometry import (
    UNIT_GRADIENT_TOL,
    ChartMetric,
    DistanceFunction,
    GridSpec,
    check_unit_gradient,
    curvature_condition_check,
)
from .mesh import DomainSpec, Mesh, prolongation, refine, triangulate

__all__ = [
    "VerifyError",
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
# damped Jacobi smoothing of the nested-solve V-cycle: weight, steps each side
VCYCLE_DAMPING = 0.6
VCYCLE_SMOOTHING = 2


class VerifyError(ValueError):
    """Check preconditions violated (sizes, levels, period mismatch)."""


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


def _as_distance(metric: ChartMetric, f) -> DistanceFunction:
    if isinstance(f, DistanceFunction):
        return f
    return DistanceFunction.from_text(metric, str(f))


def _domain_bbox(domain: DomainSpec) -> Tuple[float, float, float, float]:
    ext = domain.extents
    if domain.shape == "rectangle":
        return ext
    if domain.shape == "periodic_band":
        return (ext[0], ext[1], 0.0, domain.theta_period)
    if domain.shape == "disk":
        cx, cy, r = ext
        return (cx - r, cx + r, cy - r, cy + r)
    if domain.shape == "annulus":
        cx, cy, _, r = ext
        return (cx - r, cx + r, cy - r, cy + r)
    raise VerifyError(f"unknown domain shape '{domain.shape}'")


def _check_period(domain: DomainSpec, metric: ChartMetric):
    if domain.shape != "periodic_band" or metric.theta_period is None:
        return
    if abs(domain.theta_period - metric.theta_period) > 1e-12:
        raise VerifyError(
            "band period does not match the metric's angular period"
        )


def _precondition_failure(domain, metric, f, samples=48, enlarge=0.05):
    """Curvature and gradient screening on a slightly enlarged region.

    Returns None when the preconditions hold, otherwise the quantities
    of a refusal report.  The enlargement is clipped to the metric's
    validity rectangle.
    """
    u0, u1, v0, v1 = _domain_bbox(domain)
    du, dv = enlarge * (u1 - u0), enlarge * (v1 - v0)
    w0, w1, z0, z1 = metric.validity
    grid = GridSpec(
        (max(u0 - du, w0), min(u1 + du, w1)),
        (max(v0 - dv, z0), min(v1 + dv, z1)),
        samples,
        samples,
    )
    ok, deviation = check_unit_gradient(metric, f, grid)
    if not ok:
        return {
            "refused": True,
            "reason": "distance function is not unit-gradient",
            "max_gradient_deviation": float(deviation),
            "grid": grid.to_dict(),
        }
    report = curvature_condition_check(metric, f, grid)
    if not report.passed:
        return {
            "refused": True,
            "reason": "curvature condition fails on the enlarged region",
            "curvature": report.to_dict(),
        }
    return None


class LevelCache:
    """Meshes, scalar operators and spectra of one domain's refinement levels.

    Level 0 is ``triangulate(domain)`` and level L + 1 refines level L.
    Each item is built on first request and kept; spectra are keyed on
    ``(level, bc, k)`` with ``bc`` either "dirichlet" or "neumann".  A
    Neumann pencil of dimension dim is solved for the block
    max(k, min(NEUMANN_BLOCK, dim)), so every Neumann request of k <=
    NEUMANN_BLOCK is the first k pairs of one solve per level.  Every
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

    def reduction(self, level: int):
        """The operators restricted to interior vertices: the Dirichlet pencil."""
        return self._get(
            ("reduction", level), lambda: apply_dirichlet(self.operators(level))
        )

    def pencil(self, level: int, bc: str):
        """A level's Dirichlet (reduced) or Neumann (full) operators."""
        return self.reduction(level) if bc == "dirichlet" else self.operators(level)

    def spectrum(self, level: int, bc: str, k: int) -> SpectralResult:
        """The k smallest eigenpairs of a level's ``bc`` pencil.

        k outside [1, dim] raises :class:`EigenError`.  A Neumann request
        of k below its block (see the class) is the block's first k
        values, vectors and residuals, bit for bit, with the block's
        method, shift and convergence flag.

        Level 0, and every level on the dense path, is a cold solve: ARPACK
        or dense, as :func:`solve_smallest` decides alone.  A sparse solve
        above level 0 is a nested iteration: it first takes the coarser
        level's solve of the same block and runs LOBPCG from it with a
        V-cycle preconditioner (see :meth:`_nested_start`), so no level
        above 0 is factored, and a level's solve always derives from the
        same coarser solve, whichever checks asked for it.
        """
        pencil = self.pencil(level, bc)
        dim = pencil.stiffness.shape[0]
        if not 1 <= k <= dim:
            raise EigenError(f"requested {k} eigenpairs from dimension {dim}")
        block = max(k, min(NEUMANN_BLOCK, dim)) if bc == "neumann" else k
        if k < block:
            return self._get(
                ("spectrum", level, bc, k),
                lambda: _leading(self.spectrum(level, bc, block), k),
            )

        def solve():
            nested = self._nested_start(level, bc, k)
            if nested is None:
                return solve_smallest(
                    pencil.stiffness, pencil.mass, k, bc=bc, options=self.options,
                )
            start, precond, shift = nested
            result = solve_smallest(
                pencil.stiffness, pencil.mass, k, bc=bc, options=self.options,
                start=start, precond=precond,
            )
            result.shift = shift
            return result

        return self._get(("spectrum", level, bc, k), solve)

    def _transfer(self, level: int, bc: str) -> sp.csr_matrix:
        """Interpolation from level - 1 onto ``level`` in the ``bc`` unknowns.

        :func:`prolongation` for Neumann; for Dirichlet its rows and
        columns restricted to interior vertices, which drops only the
        (zero) boundary values.
        """

        def build():
            P = prolongation(self.mesh(level - 1), self.mesh(level))
            if bc != "dirichlet":
                return P
            fine = self.reduction(level).interior
            return P[fine][:, self.reduction(level - 1).interior].tocsr()

        return self._get(("transfer", level, bc), build)

    def _nested_start(self, level: int, bc: str, k: int):
        """Start block, preconditioner and shift for a nested sparse solve.

        The start block is the coarser level's k eigenvectors, each
        interpolated by :meth:`_transfer` (Knyazev & Neymeyr, ETNA 15,
        2003).  The shift sigma is SIGMA_SCALE times the smallest positive
        coarser eigenvalue, so unlike the diagonal-ratio rule it does not
        grow as h^-2; the preconditioner is :meth:`_vcycle` for K + sigma
        M.  None (a cold solve) at level 0, on the dense path, when the
        coarser pencil has fewer than k unknowns, and when a Neumann
        spectrum holds only its constant mode, which gives no shift.
        """
        fine_dim = self.pencil(level, bc).stiffness.shape[0]
        if level == 0 or uses_dense_path(fine_dim, k):
            return None
        if self.pencil(level - 1, bc).stiffness.shape[0] < k:
            return None
        coarse = self.spectrum(level - 1, bc, k)
        # the Neumann pencil of a connected mesh has one zero mode, the constant
        positive = coarse.values[1:] if bc == "neumann" else coarse.values
        if not positive.size:
            return None
        shift = SIGMA_SCALE * float(positive[0])
        start = self._transfer(level, bc) @ coarse.vectors
        return start, self._vcycle(level, bc, shift), shift

    def _vcycle(self, level: int, bc: str, shift: float) -> Callable:
        """One multigrid V-cycle for A_l = K_l + shift M_l over levels level..0.

        Each level's A_l is the cache's own pencil, P_l is :meth:`_transfer`;
        damped Jacobi (weight VCYCLE_DAMPING, VCYCLE_SMOOTHING steps before
        and after the coarse correction) smooths, and level 0 is solved
        exactly by one sparse LU.  Applies to a vector or a block.
        """
        A = [
            (self.pencil(l, bc).stiffness + shift * self.pencil(l, bc).mass).tocsr()
            for l in range(level + 1)
        ]
        jacobi = [VCYCLE_DAMPING / a.diagonal()[:, None] for a in A]
        coarsest = spla.splu(A[0].tocsc())

        def cycle(l, r):
            if l == 0:
                return coarsest.solve(r)
            x = jacobi[l] * r
            for _ in range(VCYCLE_SMOOTHING - 1):
                x += jacobi[l] * (r - A[l] @ x)
            P = self._transfer(l, bc)
            x += P @ cycle(l - 1, P.T @ (r - A[l] @ x))
            for _ in range(VCYCLE_SMOOTHING):
                x += jacobi[l] * (r - A[l] @ x)
            return x

        def apply(r):
            return cycle(level, r.reshape(r.shape[0], -1)).reshape(r.shape)

        return apply


def _leading(block: SpectralResult, k: int) -> SpectralResult:
    """The first k pairs of a solved block; everything else is the block's."""
    return SpectralResult(
        block.values[:k], block.vectors[:, :k], block.residuals[:k], block.bc,
        block.mass, block.method, shift=block.shift, converged=block.converged,
    )


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
    _check_period(domain, metric)
    if levels < 1:
        raise VerifyError("inequality check needs at least 1 level")
    f = _as_distance(metric, f)
    desc = (
        f"{domain.shape} n={domain.n}, {metric.family} metric, f = {f.expr}"
    )
    refusal = _precondition_failure(domain, metric, f)
    if refusal is not None:
        return _report("inequality", desc, [], refusal, REFUSAL_TOLERANCE, start)

    cache = _level_cache(domain, metric, options, cache)
    beta1 = cache.mesh(0).betti1
    mu_order = 3 - beta1
    rows = []
    for lvl in range(levels):
        mesh = cache.mesh(lvl)
        lam1 = float(cache.spectrum(lvl, "dirichlet", 1).values[0])
        mu = [
            float(x) for x in cache.spectrum(lvl, "neumann", NEUMANN_BLOCK).values
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
    _check_period(domain, metric)
    f = _as_distance(metric, f)
    desc = (
        f"{domain.shape} n={domain.n}, {metric.family} metric, f = {f.expr}"
    )
    refusal = _precondition_failure(domain, metric, f)
    if refusal is not None:
        return _report("lemma", desc, [], refusal, REFUSAL_TOLERANCE, start)

    cache = _level_cache(domain, metric, options, cache)

    def stage(lvl):
        mesh = cache.mesh(lvl)
        ground = cache.spectrum(lvl, "dirichlet", 1)
        lam1 = float(ground.values[0])
        phi = np.zeros(mesh.n_vertices)
        phi[cache.reduction(lvl).interior] = ground.vectors[:, 0]
        out = dirichlet_form_quadrature(
            mesh, metric, f, phi, lam1, quad_rule=cache.options.quad_rule,
            scalar=cache.operators(lvl),
        )
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

    The scalar pencils are solved twice on purpose: the 1-form side
    (:func:`solve_oneform`) solves the pencils of ``d0^T M1 d0`` built
    from the Whitney mass, the scalar side takes the cache's spectra of
    the assembled P1 stiffness K.  That ``d0^T M1 d0 = K`` is the
    identity under test, so neither side may reuse the other's solve.
    """
    start = time.perf_counter()
    _check_period(domain, metric)
    cache = _level_cache(domain, metric, options, cache)
    mesh = cache.mesh(level)
    desc = f"{domain.shape} n={domain.n}, {metric.family} metric"

    beta1 = mesh.betti1
    one_ops = assemble_oneform(
        mesh, metric, quad_rule=cache.options.quad_rule,
        scalar=cache.operators(level),
    )
    one = solve_oneform(one_ops, count + beta1, options=cache.options)
    top = float(np.max(one.values))
    zero_count = int(np.sum(one.values < ZERO_MODE_FACTOR * top))
    positive = [float(v) for v in one.values[zero_count:]]

    dir_values = cache.spectrum(level, "dirichlet", count).values
    # the Neumann side drops its constant mode
    neu_positive = cache.spectrum(level, "neumann", count + 1).values[1:]
    union = np.sort(np.concatenate([dir_values, neu_positive]))[:count]

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
    the ranks are exact graph counts: rank d0 = V - (components of the
    edge graph), rank d1 = F - (components of the dual graph, faces joined
    across interior edges, without a boundary edge).
    """
    start = time.perf_counter()
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_faces
    primal = sp.coo_matrix((np.ones(E), tuple(mesh.edges.T)), shape=(V, V))
    rank_d0 = V - connected_components(primal, directed=False)[0]
    faces = np.repeat(np.arange(F), 3)
    edges = mesh.tri_edges.ravel()
    edge_face = sp.csr_matrix((np.ones(3 * F), (edges, faces)), shape=(E, F))
    n_dual, label = connected_components(edge_face.T @ edge_face, directed=False)
    bordered = np.unique(label[faces[mesh.boundary_edge_mask[edges]]])
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
    f = _as_distance(metric, f)
    u0, u1, v0, v1 = _domain_bbox(domain)
    w0, w1, z0, z1 = metric.validity
    grid = GridSpec(
        (max(u0, w0), min(u1, w1)), (max(v0, z0), min(v1, z1)), samples, samples
    )
    _, deviation = check_unit_gradient(metric, f, grid)
    report = curvature_condition_check(metric, f, grid)
    quantities = {
        "max_gradient_deviation": float(deviation),
        "gradient_tol": UNIT_GRADIENT_TOL,
        "curvature": report.to_dict(),
    }
    return _report(
        "curvature",
        f"{domain.shape}, {metric.family} metric, f = {f.expr}",
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
        raise VerifyError("max_index must be at least 1")
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
    if bc not in ("dirichlet", "neumann"):
        raise VerifyError(f"unknown boundary condition tag '{bc}'")

    cache = _level_cache(domain, metric, options, cache)
    index = 0 if bc == "dirichlet" else 1  # skip the constant Neumann mode
    rows = [
        {
            "level": lvl,
            "h": cache.mesh(lvl).h_max,
            "value": float(cache.spectrum(lvl, bc, index + 1).values[index]),
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
