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
varying metrics.  Each operator computes its (F, 3, 3) element blocks
for all faces in one vectorised pass and sums them in one scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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
from .mesh import LOCAL_EDGES, face_edges

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

_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class AssemblyError(ValueError):
    """Quadrature input outside the operator preconditions."""


@dataclass
class ScalarOperators:
    """P1 mass and stiffness over all logical vertices (Neumann space)."""

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    mesh: object
    metric: ChartMetric


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
    metric: ChartMetric


# ---------------------------------------------------------------------------
# per-face chart data


def _rule(name: str):
    try:
        return _RULES[name]
    except KeyError:
        raise AssemblyError(f"unknown quadrature rule '{name}'") from None


def _chart_data(mesh, metric: ChartMetric, rule: str):
    """Geometry and metric samples for every face at the rule points."""
    pts, wts = _rule(rule)
    p = mesh.verts[mesh.tris]  # (F, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    detJ = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # positive, validated
    inv_t = np.empty((len(p), 2, 2))
    inv_t[:, 0, 0] = e2[:, 1]
    inv_t[:, 1, 0] = -e2[:, 0]
    inv_t[:, 0, 1] = -e1[:, 1]
    inv_t[:, 1, 1] = e1[:, 0]
    inv_t /= detJ[:, None, None]
    grads = np.einsum("fab,ib->fia", inv_t, _REF_GRADS)  # (F, 3, 2)

    qpts = p[:, None, 0, :] + np.einsum("qk,fkx->fqx", pts, np.stack([e1, e2], 1))
    u, v = qpts[..., 0], qpts[..., 1]
    if not metric.contains(u, v):
        raise AssemblyError("mesh leaves the metric validity region")
    g11, g12, g22 = metric.evaluate((metric.g11, metric.g12, metric.g22), u, v)
    det = g11 * g22 - g12 * g12
    if np.any(det <= 0) or np.any(g11 <= 0):
        raise AssemblyError("metric not positive definite at a quadrature point")
    ginv = np.empty(det.shape + (2, 2))
    ginv[..., 0, 0] = g22 / det
    ginv[..., 0, 1] = -g12 / det
    ginv[..., 1, 0] = -g12 / det
    ginv[..., 1, 1] = g11 / det
    lam = np.column_stack([1 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    return {
        "wts": wts,
        "lam": lam,  # (nq, 3) hat values at rule points
        "grads": grads,
        "detJ": detJ,
        "qpts": qpts,
        "sqrtdet": np.sqrt(det),
        "ginv": ginv,
        # Riemannian measure weight per (face, point)
        "dA": wts[None, :] * np.sqrt(det) * detJ[:, None],
    }


def _scatter(local, idx, n: int) -> sp.csr_matrix:
    """Sum the (F, 3, 3) element blocks ``local`` into an n x n matrix.

    ``idx`` (F, 3) gives each block's global rows and columns.  Blocks
    are symmetrized first, so the sum is symmetric to bit equality.
    """
    local = 0.5 * (local + np.swapaxes(local, -1, -2))
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# scalar operators


def assemble_scalar(
    mesh, metric: ChartMetric, quad_rule: str = "midpoint"
) -> ScalarOperators:
    """P1 mass and stiffness on the full logical vertex set.

    Periodic identifications are inherited from the mesh: seam copies
    scatter into one shared row, so no extra constraint handling is
    needed.  Element blocks are symmetrized before scatter, which makes
    the assembled matrices symmetric to bit equality.
    """
    data = _chart_data(mesh, metric, quad_rule)
    lt, V = mesh.logical_tris, mesh.n_vertices
    lam, grads, ginv, dA = data["lam"], data["grads"], data["ginv"], data["dA"]
    mass = _scatter(np.einsum("qi,qj,fq->fij", lam, lam, dA), lt, V)
    # sum the weighted inverse metric over the rule points first
    weighted = np.einsum("fqab,fq->fab", ginv, dA)
    stiff = _scatter(np.einsum("fia,fab,fjb->fij", grads, weighted, grads), lt, V)
    return ScalarOperators(mass, stiff, mesh, metric)


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


def assemble_oneform(
    mesh,
    metric: ChartMetric,
    quad_rule: str = "midpoint",
    scalar: Optional[ScalarOperators] = None,
    *,
    _chart: Optional[dict] = None,
) -> OneFormOperators:
    """Edge-element mass, the mesh's incidence operators, and face mass.

    The vertex mass comes from ``scalar``, the P1 operators of the same
    mesh, metric and rule when the caller has them, and is assembled
    here otherwise.  ``_chart`` is private: the ``_chart_data`` of the
    same mesh, metric and rule, from a caller in this module that built
    it already.

    The Whitney form of edge (a, b) on a triangle is
    ``lambda_a d lambda_b - lambda_b d lambda_a`` times the sign
    relating local traversal to the global a -> b orientation.  The
    face mass uses the basis 2-form that integrates to one over its
    face, giving the diagonal weight
    ``area^{-2} \\int du dv / sqrt(det g)``.
    """
    data = _chart_data(mesh, metric, quad_rule) if _chart is None else _chart
    lam, grads, ginv, dA = data["lam"], data["grads"], data["ginv"], data["dA"]
    vec = np.empty((mesh.n_faces, lam.shape[0], 3, 2))
    for k, (a, b) in enumerate(LOCAL_EDGES):
        vec[:, :, k, :] = (
            lam[None, :, a, None] * grads[:, None, b, :]
            - lam[None, :, b, None] * grads[:, None, a, :]
        )
    vec *= mesh.tri_edge_signs[:, None, :, None]
    local = np.einsum("fqka,fqab,fqlb,fq->fkl", vec, ginv, vec, dA)
    mass1 = _scatter(local, mesh.tri_edges, mesh.n_edges)

    if scalar is None:
        scalar = assemble_scalar(mesh, metric, quad_rule)
    elif scalar.mesh is not mesh or scalar.metric is not metric:
        raise AssemblyError("scalar operators belong to another mesh or metric")
    area = 0.5 * data["detJ"]
    inv_sqrt = np.sum(data["wts"][None, :] / data["sqrtdet"], axis=1) * data["detJ"]
    mass2 = sp.diags(inv_sqrt / area**2)
    return OneFormOperators(mass1, mesh.d0, mesh.d1, scalar.mass, mass2, mesh, metric)


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
    mesh,
    metric: ChartMetric,
    f,
    phi: np.ndarray,
    lambda_ref: float,
    quad_rule: str = "midpoint",
    scalar: Optional[ScalarOperators] = None,
) -> dict:
    """Quadrature of the 1-form Dirichlet energy of the two trial fields.

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
    diagnostic when the normalization check fails.  ``scalar`` is
    passed on to :func:`assemble_oneform`, which reuses this function's
    chart data.
    """
    fe = _as_expr(f)
    data = _chart_data(mesh, metric, quad_rule)
    u, v = data["qpts"][..., 0], data["qpts"][..., 1]
    ginv, dA, lam = data["ginv"], data["dA"], data["lam"]

    gn2 = evaluate_on_f(metric, gradient_norm2_expr(metric, fe), fe, u, v)
    dev = float(np.max(np.abs(gn2 - 1.0)))
    if dev > UNIT_GRADIENT_TOL:
        raise AssemblyError(
            f"distance function is not unit-gradient (max deviation {dev:.3e})"
        )

    ops = assemble_oneform(mesh, metric, quad_rule, scalar, _chart=data)
    norm = float(phi @ (ops.mass0 @ phi))
    if abs(norm - 1.0) > M_NORMALIZATION_TOL:
        raise AssemblyError(
            f"phi is not M-normalized: phi'M phi = {norm!r} "
            f"(eigenvalue reference {lambda_ref!r})"
        )

    lt = mesh.logical_tris
    phi_nodes = phi[lt]  # (F, 3)
    dphi = np.einsum("fi,fia->fa", phi_nodes, data["grads"])  # constant per face
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

    def pair(au, av, bu, bv):
        return (
            au * (ginv[..., 0, 0] * bu + ginv[..., 0, 1] * bv)
            + av * (ginv[..., 1, 0] * bu + ginv[..., 1, 1] * bv)
        )

    dphi_u, dphi_v = dphi[:, None, 0], dphi[:, None, 1]
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
    curl_part = float((ops.d1 @ w_a) @ (ops.mass2 @ (ops.d1 @ w_b)))
    rhs_a = ops.d0.T @ (ops.mass1 @ w_a)
    rhs_b = ops.d0.T @ (ops.mass1 @ w_b)
    div_part = float(rhs_a @ spla.spsolve(ops.mass0.tocsc(), rhs_b))
    cross = curl_part + div_part

    return {
        "alpha_nu": alpha_nu,
        "alpha_star_nu": alpha_star_nu,
        "cross": cross,
        "dphi_norm2": dphi_norm2,
    }
