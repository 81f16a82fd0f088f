"""Metric-weighted finite element operators on chart meshes.

Lowest-order complex only: P1 hat functions on logical vertices,
Whitney edge elements on logical edges, piecewise constants on faces.
The metric never deforms the mesh; it enters through quadrature-point
evaluation of the first fundamental form, so curvature lives entirely
in the coefficients.

Conventions:

* the Laplacian is positive (stiffness = Dirichlet energy);
* an edge (a, b) with a < b is oriented a -> b; :mod:`surfspec.mesh`
  owns that convention, the face-edge order, the edge numbering, the
  interior vertex set and the incidence matrices ``d0``/``d1``;
* orientation of the chart is du ^ dv, so the Hodge star rotates
  ``*(p du + q dv) = -sqrt(g)(g^{12}p + g^{22}q) du
  + sqrt(g)(g^{11}p + g^{12}q) dv``.

Default quadrature is the 3-point edge-midpoint rule (degree-2 exact
in the chart).  A 7-point degree-5 rule is available for strongly
varying metrics.  Each operator computes the entries of all faces in one
vectorised pass of array arithmetic: three diagonal entries and three
corner (or edge) pairs per face, as the element blocks are symmetric.
One scatter sums them by ``np.bincount`` onto a fixed pattern, the
diagonal plus both orientations of each pair; for P1 the pairs are the
mesh's edges, so the pattern is the vertex-edge graph (nnz = V + 2E),
and for the Whitney mass they are the pairs of edges sharing a face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .expr import Expr
from .geometry import (
    UNIT_GRADIENT_TOL,
    ChartMetric,
    _as_expr,
    evaluate_on_f,
    gradient_norm2_expr,
    inverse_exprs,
    laplacian_expr,
    sqrt_det_expr,
)
from .mesh import LOCAL_EDGES, _unique_pairs, face_edges

__all__ = [
    "AssemblyError",
    "ScalarOperators",
    "DirichletReduction",
    "OneFormOperators",
    "assemble_scalar",
    "apply_dirichlet",
    "assemble_oneform",
    "dirichlet_form_quadrature",
    "star_exprs",
]

M_NORMALIZATION_TOL = 1e-8
# relative residual of the cross term's M0 solve; its solutions agree with a
# sparse LU's to about 4e-15
MASS_CG_RTOL = 1e-14

# reference-triangle quadrature: points in (xi, eta), weights sum to 1/2
_RULES = {
    "midpoint": (
        np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 6.0,
    ),
}


def _degree5_rule():
    a, wa = 0.470142064105115, 0.132394152788506
    b, wb = 0.101286507323456, 0.125939180544827
    pts = np.array(
        [
            [1 / 3, 1 / 3],
            [a, a], [1 - 2 * a, a], [a, 1 - 2 * a],
            [b, b], [1 - 2 * b, b], [b, 1 - 2 * b],
        ]
    )
    wts = 0.5 * np.array([0.225, wa, wa, wa, wb, wb, wb])
    return pts, wts


_RULES["degree5"] = _degree5_rule()

# 4-point Gauss-Legendre on [0, 1] for edge line integrals
_EDGE_T = 0.5 + 0.5 * np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_EDGE_W = 0.5 * np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)

# LOCAL_EDGES[k] is the corner pair (k, _NEXT[k]); a face's pairs of local
# edges are taken the same way
_NEXT = [b for _, b in LOCAL_EDGES]


class AssemblyError(ValueError):
    """Quadrature input outside the operator preconditions."""


@dataclass
class ScalarOperators:
    """P1 mass and stiffness over all logical vertices (Neumann space)."""

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    mesh: object
    metric: ChartMetric
    quad_rule: str


@dataclass
class DirichletReduction:
    """Interior-vertex restriction of a scalar operator pair; unknown i is
    the logical vertex ``mesh.interior[i]``."""

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix


@dataclass
class OneFormOperators:
    """Whitney complex operators: vertices -> edges -> faces."""

    mass1: sp.csr_matrix  # edge-element mass
    d0: sp.csr_matrix  # signed incidence, vertices to edges
    d1: sp.csr_matrix  # signed incidence, edges to faces
    mass0: sp.csr_matrix  # P1 vertex mass
    mass2: sp.dia_matrix  # face mass, weight 1/sqrt(det g)
    mesh: object


# ---------------------------------------------------------------------------
# per-face chart data


def _rule(name: str):
    try:
        return _RULES[name]
    except KeyError:
        raise AssemblyError(f"unknown quadrature rule '{name}'") from None


def _chart_data(mesh, metric: ChartMetric, rule: str):
    """Geometry and metric samples for every face at the rule points.

    Gradients and inverse-metric entries are kept as component arrays:
    ``grads`` is (du, dv) of the three corner hats, each (F, 3), and
    ``ginv`` is (g^11, g^12, g^22), each (F, nq).
    """
    pts, wts = _rule(rule)
    x, y = mesh.verts[:, 0][mesh.tris], mesh.verts[:, 1][mesh.tris]  # (F, 3)
    e1u, e1v = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
    e2u, e2v = x[:, 2] - x[:, 0], y[:, 2] - y[:, 0]
    detJ = e1u * e2v - e1v * e2u  # positive, validated
    # corner 1 and 2 gradients are the columns of J^{-T}; corner 0 closes the sum
    gu, gv = np.empty_like(x), np.empty_like(y)
    gu[:, 1], gv[:, 1] = e2v / detJ, -e2u / detJ
    gu[:, 2], gv[:, 2] = -e1v / detJ, e1u / detJ
    gu[:, 0] = -(gu[:, 1] + gu[:, 2])
    gv[:, 0] = -(gv[:, 1] + gv[:, 2])

    lam = np.column_stack([1 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    u, v = x @ lam.T, y @ lam.T  # (F, nq)
    if not metric.contains(u, v):
        raise AssemblyError("mesh leaves the metric validity region")
    g11, g12, g22 = metric.evaluate((metric.g11, metric.g12, metric.g22), u, v)
    det = g11 * g22 - g12 * g12
    if np.any(det <= 0) or np.any(g11 <= 0):
        raise AssemblyError("metric not positive definite at a quadrature point")
    sqrtdet = np.sqrt(det)
    return {
        "wts": wts,
        "lam": lam,  # (nq, 3) hat values at rule points
        "grads": (gu, gv),
        "detJ": detJ,
        "u": u,
        "v": v,
        "sqrtdet": sqrtdet,
        "ginv": (g22 / det, -g12 / det, g11 / det),
        # Riemannian measure weight per (face, point)
        "dA": wts * sqrtdet * detJ[:, None],
    }


def _scatter(diag_idx, pair_ids, pairs, n: int, *blocks) -> list:
    """Sum per-face entries into n x n symmetric CSR matrices.

    Each block is a pair of (F, 3) arrays: ``diag`` holds entries (i, i)
    with i from ``diag_idx`` (F, 3), and ``off`` holds entries of the
    unordered index pairs ``pairs[pair_ids]`` (``pairs`` is (P, 2), each
    pair distinct).  Diagonal entries are summed by index and
    off-diagonal ones by pair id, and each pair's sum is written to both
    (a, b) and (b, a), so every matrix is symmetric to bit equality.
    The CSR layout, the diagonal plus both orientations of every pair, is
    built once and shared by all blocks.
    """
    ids = np.arange(n)
    rows = np.concatenate([ids, pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([ids, pairs[:, 1], pairs[:, 0]])
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[order]
    out = []
    for diag, off in blocks:
        d = np.bincount(diag_idx.ravel(), weights=diag.ravel(), minlength=n)
        o = np.bincount(pair_ids.ravel(), weights=off.ravel(), minlength=len(pairs))
        data = np.concatenate([d, o, o])[order]
        out.append(sp.csr_matrix((data, indices, indptr), shape=(n, n)))
    return out


# ---------------------------------------------------------------------------
# scalar operators


def assemble_scalar(
    mesh, metric: ChartMetric, quad_rule: str = "midpoint"
) -> ScalarOperators:
    """P1 mass and stiffness on the full logical vertex set.

    Periodic identifications are inherited from the mesh: seam copies
    scatter into one shared row, so no extra constraint handling is
    needed.  The off-diagonal entries of a face are those of its
    ``LOCAL_EDGES`` corner pairs, summed by ``mesh.tri_edges`` onto the
    mesh's edges, so the pattern is the vertex-edge graph.
    """
    data = _chart_data(mesh, metric, quad_rule)
    lam = data["lam"]
    # hat products at the rule points: the three diagonal, then the three pairs
    local = data["dA"] @ np.hstack([lam * lam, lam * lam[:, _NEXT]])  # (F, 6)
    # the dA-weighted inverse metric, summed over the rule points
    w11, w12, w22 = (np.sum(g * data["dA"], axis=1)[:, None] for g in data["ginv"])
    gu, gv = data["grads"]
    tu, tv = w11 * gu + w12 * gv, w12 * gu + w22 * gv
    mass, stiff = _scatter(
        mesh.logical_tris, mesh.tri_edges, mesh.edges, mesh.n_vertices,
        (local[:, :3], local[:, 3:]),
        (gu * tu + gv * tv, gu[:, _NEXT] * tu + gv[:, _NEXT] * tv),
    )
    return ScalarOperators(mass, stiff, mesh, metric, quad_rule)


def apply_dirichlet(ops: ScalarOperators) -> DirichletReduction:
    """Restrict mass and stiffness to the mesh's interior vertices."""
    if not ops.mesh.boundary_vertex_mask.any():
        raise AssemblyError("mesh has no boundary vertices to eliminate")
    interior = ops.mesh.interior
    if len(interior) == 0:
        raise AssemblyError("every vertex is on the boundary")
    mass = ops.mass[interior][:, interior].tocsr()
    stiff = ops.stiffness[interior][:, interior].tocsr()
    return DirichletReduction(mass, stiff)


# ---------------------------------------------------------------------------
# Whitney one-form operators


def _whitney_masses(mesh, data) -> Tuple[sp.csr_matrix, sp.dia_matrix]:
    """M1 and M2 of a mesh from its ``_chart_data``.

    The Whitney form of edge (a, b) on a triangle is
    ``lambda_a d lambda_b - lambda_b d lambda_a`` times the sign
    relating local traversal to the global a -> b orientation.  The
    face mass uses the basis 2-form that integrates to one over its
    face, giving the diagonal weight
    ``area^{-2} \\int du dv / sqrt(det g)``.
    """
    lam, nq = data["lam"], len(data["lam"])
    # the Whitney form of local edge k = (a, b), lam_a grad_b - lam_b grad_a,
    # is the corner gradients times basis: (F, 3) @ (3, 3 nq) per component
    basis = np.zeros((3, 3, nq))
    for k, (a, b) in enumerate(LOCAL_EDGES):
        basis[b, k], basis[a, k] = lam[:, a], -lam[:, b]
    gu, gv = data["grads"]
    wu = (gu @ basis.reshape(3, -1)).reshape(-1, 3, nq)
    wv = (gv @ basis.reshape(3, -1)).reshape(-1, 3, nq)
    # each form's dA-weighted inverse-metric image, (F, 3, nq)
    c11, c12, c22 = ((g * data["dA"])[:, None, :] for g in data["ginv"])
    pu, pv = c11 * wu + c12 * wv, c12 * wu + c22 * wv
    diag = np.sum(wu * pu + wv * pv, axis=2)
    # the local edge pairs (k, _NEXT[k]), signed by the edge orientations
    off = np.sum(wu[:, _NEXT] * pu + wv[:, _NEXT] * pv, axis=2)
    off *= mesh.tri_edge_signs * mesh.tri_edge_signs[:, _NEXT]
    # the face-local edge pairs as sorted pairs of edge ids, numbered
    edge_pairs = face_edges(mesh.tri_edges)
    edge_pairs.sort(axis=1)
    pairs, pair_ids = _unique_pairs(edge_pairs, mesh.n_edges)
    (mass1,) = _scatter(
        mesh.tri_edges, pair_ids.reshape(3, -1).T, pairs, mesh.n_edges, (diag, off)
    )
    area = 0.5 * data["detJ"]
    inv_sqrt = np.sum(data["wts"][None, :] / data["sqrtdet"], axis=1) * data["detJ"]
    return mass1, sp.diags(inv_sqrt / area**2)


def assemble_oneform(scalar: ScalarOperators) -> OneFormOperators:
    """Edge-element mass, the mesh's incidence operators, and face mass
    on the mesh, metric and rule of the P1 operators ``scalar``, whose
    mass is the vertex mass."""
    mesh = scalar.mesh
    mass1, mass2 = _whitney_masses(
        mesh, _chart_data(mesh, scalar.metric, scalar.quad_rule)
    )
    return OneFormOperators(mass1, mesh.d0, mesh.d1, scalar.mass, mass2, mesh)


# ---------------------------------------------------------------------------
# Hodge star


def star_exprs(metric: ChartMetric, comp_u, comp_v) -> Tuple[Expr, Expr]:
    """Symbolic components of the Hodge star of ``comp_u du + comp_v dv``."""
    iu, im, iv = inverse_exprs(metric)
    sq = sqrt_det_expr(metric)
    su = -(sq * (im * comp_u + iv * comp_v))
    sv = sq * (iu * comp_u + im * comp_v)
    return su, sv


# ---------------------------------------------------------------------------
# Dirichlet-form quadrature for the comparison argument


def _edge_representatives(mesh) -> Tuple[np.ndarray, np.ndarray]:
    """One raw vertex pair per logical edge, oriented with the edge: its
    first face edge in :func:`surfspec.mesh.face_edges` order, reversed
    where ``tri_edge_signs`` says the face runs against the edge."""
    _, first = np.unique(mesh.tri_edges.T, return_index=True)
    raw = face_edges(mesh.tris)[first]
    flip = mesh.tri_edge_signs.T.ravel()[first] < 0
    raw = np.where(flip[:, None], raw[:, ::-1], raw)
    return raw[:, 0], raw[:, 1]


def _whitney_interpolate(mesh, metric: ChartMetric, f, forms, phi) -> list:
    """Edge degrees of freedom of ``phi * rho`` by 4-point Gauss lines.

    ``forms`` are pairs of expressions built from f, the du and dv
    components of each 1-form rho, all evaluated in one plan at the Gauss
    points of every logical edge's :func:`_edge_representatives` pair;
    ``phi`` holds P1 values on logical vertices, linear along each edge.
    Returns one array of edge values per form.
    """
    a, b = _edge_representatives(mesh)
    pa, pb = mesh.verts[a], mesh.verts[b]
    delta = pb - pa
    pts = pa[:, None, :] + _EDGE_T[None, :, None] * delta[:, None, :]
    comps = evaluate_on_f(
        metric, tuple(c for form in forms for c in form), f, pts[..., 0], pts[..., 1]
    )
    phi_line = (
        phi[mesh.raw_to_logical[a]][:, None] * (1 - _EDGE_T)[None, :]
        + phi[mesh.raw_to_logical[b]][:, None] * _EDGE_T[None, :]
    )
    return [
        (phi_line * (cu * delta[:, None, 0] + cv * delta[:, None, 1])) @ _EDGE_W
        for cu, cv in zip(comps[::2], comps[1::2])
    ]


def dirichlet_form_quadrature(
    scalar: ScalarOperators, f, phi: np.ndarray, lambda_ref: float
) -> dict:
    """Quadrature of the 1-form Dirichlet energy of the two trial fields
    on the mesh, metric and rule of the P1 operators ``scalar``.

    For a scalar eigenfunction phi and a unit-gradient function f, the
    trial fields are ``phi df`` and ``phi (*df)``.  Writing
    ``a = <dphi, df>`` and ``b^2 = |dphi|^2 - a^2``, the energy of the
    first field is ``int b^2 + (a - phi Lap f)^2`` and the second field
    gives the same closed form with the roles of the exterior and
    co-differential parts swapped.  The two are computed by separate
    routes (the second through the starred components and their curl),
    so agreement is a check rather than an identity of the code.

    The cross term uses the discrete route: both fields are
    interpolated onto Whitney edges by line quadrature and paired
    through ``(d., d.)_{M2} + (delta., delta.)_{M0}`` with the discrete
    codifferential ``delta = M0^{-1} d0^T M1``; it tends to zero under
    refinement.

    ``lambda_ref`` is the eigenvalue of phi; it is echoed in the
    diagnostic when the normalization check fails.  The chart data is
    built once, for the quadrature and the Whitney masses alike.
    """
    mesh, metric, mass0 = scalar.mesh, scalar.metric, scalar.mass
    fe = _as_expr(f)
    data = _chart_data(mesh, metric, scalar.quad_rule)
    u, v, dA, lam = data["u"], data["v"], data["dA"], data["lam"]

    gn2 = evaluate_on_f(metric, gradient_norm2_expr(metric, fe), fe, u, v)
    dev = float(np.max(np.abs(gn2 - 1.0)))
    if dev > UNIT_GRADIENT_TOL:
        raise AssemblyError(
            f"distance function is not unit-gradient (max deviation {dev:.3e})"
        )

    mass1, mass2 = _whitney_masses(mesh, data)
    norm = float(phi @ (mass0 @ phi))
    if abs(norm - 1.0) > M_NORMALIZATION_TOL:
        raise AssemblyError(
            f"phi is not M-normalized: phi'M phi = {norm!r} "
            f"(eigenvalue reference {lambda_ref!r})"
        )

    lt = mesh.logical_tris
    phi_nodes = phi[lt]  # (F, 3)
    # dphi is constant per face
    dphi_u, dphi_v = (np.sum(phi_nodes * g, axis=1)[:, None] for g in data["grads"])
    phi_q = phi_nodes @ lam.T  # (F, nq)

    # df, Lap f (analytic, in flux-divergence form), the curl of *df
    # (its d(*df) coefficient on du^dv) and *df, in one plan
    du, dv = metric.u, metric.v
    fu, fv = fe.diff(du), fe.diff(dv)
    su_e, sv_e = star_exprs(metric, fu, fv)
    curl_s = sv_e.diff(du) - su_e.diff(dv)
    df_u, df_v, lap_q, curl_q, sdf_u, sdf_v = evaluate_on_f(
        metric, (fu, fv, laplacian_expr(metric, fe), curl_s, su_e, sv_e), fe, u, v
    )

    i11, i12, i22 = data["ginv"]

    def pair(au, av, bu, bv):
        return au * (i11 * bu + i12 * bv) + av * (i12 * bu + i22 * bv)

    a_q = pair(dphi_u, dphi_v, df_u, df_v)
    dphi_norm2_q = pair(dphi_u, dphi_v, dphi_u, dphi_v)
    b2_q = np.maximum(dphi_norm2_q - a_q**2, 0.0)

    # route 1: exterior part b^2, codifferential part (a - phi Lap f)^2
    alpha_nu = float(np.sum((b2_q + (a_q - phi_q * lap_q) ** 2) * dA))

    # route 2: same energy through the starred field phi (*df); its
    # exterior part is the wedge dphi ^ *df plus phi d(*df) with the
    # latter taken as the curl of the starred components, and its
    # codifferential part is -<dphi, *df>
    sqrtdet = data["sqrtdet"]
    dstar_q = curl_q / sqrtdet  # equals -Lap f
    wedge_q = (dphi_u * sdf_v - dphi_v * sdf_u) / sqrtdet
    c_q = pair(dphi_u, dphi_v, sdf_u, sdf_v)
    alpha_star_nu = float(
        np.sum(((wedge_q + phi_q * dstar_q) ** 2 + c_q**2) * dA)
    )

    dphi_norm2 = float(np.sum(dphi_norm2_q * dA))

    # discrete cross term
    w_a, w_b = _whitney_interpolate(
        mesh, metric, fe, ((fu, fv), (su_e, sv_e)), phi
    )
    curl_part = float((mesh.d1 @ w_a) @ (mass2 @ (mesh.d1 @ w_b)))
    rhs_a = mesh.d0.T @ (mass1 @ w_a)
    rhs_b = mesh.d0.T @ (mass1 @ w_b)
    # M0 is well conditioned: Jacobi-preconditioned CG costs less than a
    # sparse LU of it on every call
    delta_b, info = spla.cg(
        mass0, rhs_b, rtol=MASS_CG_RTOL, atol=0.0, M=sp.diags(1.0 / mass0.diagonal())
    )
    if info != 0:
        raise AssemblyError(
            f"CG on the vertex mass matrix of dimension {mass0.shape[0]} did "
            f"not reach rtol {MASS_CG_RTOL} for the cross term (info {info})"
        )
    div_part = float(rhs_a @ delta_b)
    cross = curl_part + div_part

    return {
        "alpha_nu": alpha_nu,
        "alpha_star_nu": alpha_star_nu,
        "cross": cross,
        "dphi_norm2": dphi_norm2,
    }
