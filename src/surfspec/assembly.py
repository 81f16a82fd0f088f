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
varying metrics.  Each operator computes the entries of its faces by
vectorised array arithmetic: three diagonal entries and three corner
(or edge) pairs per face, as the element blocks are symmetric.  Every
quadrature over the mesh takes the faces in blocks of one
expression-evaluator chunk of rule points (:func:`_face_blocks`), so
its chart data is held one block at a time.  One scatter sums the
entries by ``np.bincount`` onto a fixed pattern, the
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

from . import expr
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
from .mesh import LOCAL_EDGES, _unique_pairs, _vertex_slots, face_edges

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
# relative residual of every M0 solve (the cross term's and the harmonic
# fields'); its solutions agree with a sparse LU's to about 4e-15
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


def _solve_mass0(mass0, rhs: np.ndarray, term: str) -> np.ndarray:
    """M0^-1 rhs by Jacobi-preconditioned CG to ``MASS_CG_RTOL``; stopping
    short raises :class:`AssemblyError` naming the dimension and ``term``,
    what the solve is for.  M0 is well conditioned, so this costs less
    than a sparse LU of it on every call."""
    x, info = spla.cg(
        mass0, rhs, rtol=MASS_CG_RTOL, atol=0.0, M=sp.diags(1.0 / mass0.diagonal())
    )
    if info != 0:
        raise AssemblyError(
            f"CG on the vertex mass matrix of dimension {mass0.shape[0]} did "
            f"not reach rtol {MASS_CG_RTOL} for {term} (info {info})"
        )
    return x


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
    """Whitney complex operators: vertices -> edges -> faces.  The
    incidences d0 and d1 are ``scalar.mesh``'s, and the vertex mass is
    ``scalar.mass``."""

    mass1: sp.csr_matrix  # edge-element mass
    mass2: sp.dia_matrix  # face mass, weight 1/sqrt(det g)
    scalar: ScalarOperators


# ---------------------------------------------------------------------------
# per-face chart data


def _rule(name: str):
    try:
        return _RULES[name]
    except KeyError:
        raise AssemblyError(f"unknown quadrature rule '{name}'") from None


def _face_blocks(mesh, metric: ChartMetric, rule: str):
    """``(faces, chart data)`` per slice of ``expr._CHUNK // nq`` faces
    (read at call time), one evaluator chunk of rule points."""
    block = expr._CHUNK // len(_rule(rule)[1])
    for start in range(0, mesh.n_faces, block):
        faces = slice(start, start + block)
        yield faces, _chart_data(mesh, metric, rule, faces)


def _chart_data(mesh, metric: ChartMetric, rule: str, faces: slice):
    """Geometry and metric samples at the rule points of the faces
    ``mesh.tris[faces]``.

    Gradients and inverse-metric entries are kept as component arrays:
    ``grads`` is (du, dv) of the three corner hats, each (F, 3), and
    ``ginv`` is (g^11, g^12, g^22), each (F, nq), F being the number of
    faces taken.  Each face's samples depend on that face alone, so any
    walk of the faces gets every face's samples bit for bit.
    """
    pts, wts = _rule(rule)
    tris = mesh.tris[faces]
    x, y = mesh.verts[:, 0][tris], mesh.verts[:, 1][tris]  # (F, 3)
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
    pairs ``pairs[pair_ids]`` (``pairs`` is (P, 2), distinct sorted pairs
    a < b in lexicographic order).  Diagonal entries are summed by index
    and off-diagonal ones by pair id, and each pair's sum is written to
    both (a, b) and (b, a), so every matrix is symmetric to bit equality.
    The CSR layout, row by row the pairs with b = i, the diagonal and the
    pairs with a = i, is read off the sorted pairs
    (:func:`surfspec.mesh._vertex_slots`), and every matrix of one call
    shares its ``indices`` and ``indptr``.
    """
    at_b, diag_at, at_a, indptr = _vertex_slots(pairs, n, 1)
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    indices[diag_at] = np.arange(n)
    indices[at_b], indices[at_a] = pairs[:, 0], pairs[:, 1]
    out = []
    for diag, off in blocks:
        data = np.empty(len(indices))
        data[diag_at] = np.bincount(diag_idx.ravel(), weights=diag.ravel(), minlength=n)
        o = np.bincount(pair_ids.ravel(), weights=off.ravel(), minlength=len(pairs))
        data[at_b], data[at_a] = o, o
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
    mesh's edges, so the pattern is the vertex-edge graph.  Each block of
    :func:`_face_blocks` writes its entries into four whole-mesh (F, 3)
    arrays, and one scatter sums them.
    """
    mass_diag, mass_off, stiff_diag, stiff_off = (
        np.empty((mesh.n_faces, 3)) for _ in range(4)
    )
    for faces, data in _face_blocks(mesh, metric, quad_rule):
        lam = data["lam"]
        # hat products at the rule points: the three diagonal, then the pairs
        local = data["dA"] @ np.hstack([lam * lam, lam * lam[:, _NEXT]])  # (F, 6)
        mass_diag[faces], mass_off[faces] = local[:, :3], local[:, 3:]
        # the dA-weighted inverse metric, summed over the rule points
        w11, w12, w22 = (
            np.sum(g * data["dA"], axis=1)[:, None] for g in data["ginv"]
        )
        gu, gv = data["grads"]
        tu, tv = w11 * gu + w12 * gv, w12 * gu + w22 * gv
        stiff_diag[faces] = gu * tu + gv * tv
        stiff_off[faces] = gu[:, _NEXT] * tu + gv[:, _NEXT] * tv
    mass, stiff = _scatter(
        mesh.logical_tris, mesh.tri_edges, mesh.edges, mesh.n_vertices,
        (mass_diag, mass_off), (stiff_diag, stiff_off),
    )
    return ScalarOperators(mass, stiff, mesh, metric, quad_rule)


def apply_dirichlet(ops: ScalarOperators) -> DirichletReduction:
    """Restrict mass and stiffness to the mesh's interior vertices.

    M and K share one pattern (:func:`assemble_scalar`'s), so one pass
    over it keeps the entries of interior rows and columns of both, and
    the two restrictions share their pattern too.
    """
    if not ops.mesh.boundary_vertex_mask.any():
        raise AssemblyError("mesh has no boundary vertices to eliminate")
    interior = ops.mesh.interior
    if len(interior) == 0:
        raise AssemblyError("every vertex is on the boundary")
    K, inside = ops.stiffness, ~ops.mesh.boundary_vertex_mask
    keep = inside[K.indices]
    keep &= np.repeat(inside, np.diff(K.indptr))
    renumber = np.cumsum(inside, dtype=K.indices.dtype) - 1
    indices = renumber[K.indices[keep]]
    kept = np.zeros(len(keep) + 1, dtype=K.indptr.dtype)  # entries kept before
    np.cumsum(keep, out=kept[1:])
    indptr = kept[K.indptr[np.append(interior, len(inside))]]
    mass, stiff = (
        sp.csr_matrix((A.data[keep], indices, indptr), shape=(len(interior),) * 2)
        for A in (ops.mass, K)
    )
    return DirichletReduction(mass, stiff)


# ---------------------------------------------------------------------------
# Whitney one-form operators


def assemble_oneform(scalar: ScalarOperators) -> OneFormOperators:
    """Edge-element mass M1 and face mass M2 on the mesh, metric and rule
    of the P1 operators ``scalar``; the one constructor of both.

    The Whitney form of edge (a, b) on a triangle is
    ``lambda_a d lambda_b - lambda_b d lambda_a`` times the sign
    relating local traversal to the global a -> b orientation.  The
    face mass uses the basis 2-form that integrates to one over its
    face, giving the diagonal weight
    ``area^{-2} \\int du dv / sqrt(det g)``.  Each block of
    :func:`_face_blocks` writes its entries into two whole-mesh (F, 3)
    arrays and its faces' M2 weights, and one scatter sums the entries.
    """
    mesh = scalar.mesh
    diag, off = np.empty((mesh.n_faces, 3)), np.empty((mesh.n_faces, 3))
    face_mass = np.empty(mesh.n_faces)
    for faces, data in _face_blocks(mesh, scalar.metric, scalar.quad_rule):
        lam, nq = data["lam"], len(data["lam"])
        # the Whitney form of local edge k = (a, b), lam_a grad_b - lam_b
        # grad_a, is the corner gradients times basis: (F, 3) @ (3, 3 nq)
        basis = np.zeros((3, 3, nq))
        for k, (a, b) in enumerate(LOCAL_EDGES):
            basis[b, k], basis[a, k] = lam[:, a], -lam[:, b]
        gu, gv = data["grads"]
        wu = (gu @ basis.reshape(3, -1)).reshape(-1, 3, nq)
        wv = (gv @ basis.reshape(3, -1)).reshape(-1, 3, nq)
        # each form's dA-weighted inverse-metric image, (F, 3, nq)
        c11, c12, c22 = ((g * data["dA"])[:, None, :] for g in data["ginv"])
        pu, pv = c11 * wu + c12 * wv, c12 * wu + c22 * wv
        diag[faces] = np.sum(wu * pu + wv * pv, axis=2)
        # the local edge pairs (k, _NEXT[k])
        off[faces] = np.sum(wu[:, _NEXT] * pu + wv[:, _NEXT] * pv, axis=2)
        area = 0.5 * data["detJ"]
        face_mass[faces] = (
            np.sum(data["wts"] / data["sqrtdet"], axis=1) * data["detJ"] / area**2
        )
    # signed by the edge orientations
    off *= mesh.tri_edge_signs * mesh.tri_edge_signs[:, _NEXT]
    # the face-local edge pairs as sorted pairs of edge ids, numbered
    edge_pairs = face_edges(mesh.tri_edges)
    edge_pairs.sort(axis=1)
    pairs, pair_ids = _unique_pairs(edge_pairs, mesh.n_edges)
    (mass1,) = _scatter(
        mesh.tri_edges, pair_ids.reshape(3, -1).T, pairs, mesh.n_edges, (diag, off)
    )
    return OneFormOperators(mass1, sp.diags(face_mass), scalar)


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
    points of every logical edge's :func:`_edge_representatives` pair,
    one expression-evaluator chunk of points (``expr._CHUNK // 4`` edges)
    at a time; ``phi`` holds P1 values on logical vertices, linear along
    each edge.  Returns one array of edge values per form.
    """
    a, b = _edge_representatives(mesh)
    comps = tuple(c for form in forms for c in form)
    out = [np.empty(len(a)) for _ in forms]
    block = expr._CHUNK // len(_EDGE_T)
    for start in range(0, len(a), block):
        ea, eb = a[start:start + block], b[start:start + block]
        pa, pb = mesh.verts[ea], mesh.verts[eb]
        delta = pb - pa
        pts = pa[:, None, :] + _EDGE_T[None, :, None] * delta[:, None, :]
        vals = evaluate_on_f(metric, comps, f, pts[..., 0], pts[..., 1])
        phi_line = (
            phi[mesh.raw_to_logical[ea]][:, None] * (1 - _EDGE_T)[None, :]
            + phi[mesh.raw_to_logical[eb]][:, None] * _EDGE_T[None, :]
        )
        for w, cu, cv in zip(out, vals[::2], vals[1::2]):
            w[start:start + block] = (
                phi_line * (cu * delta[:, None, 0] + cv * delta[:, None, 1])
            ) @ _EDGE_W
    return out


def dirichlet_form_quadrature(
    whitney: OneFormOperators, f, phi: np.ndarray, lambda_ref: float
) -> dict:
    """Quadrature of the 1-form Dirichlet energy of the two trial fields
    on the mesh, metric and rule of the Whitney operators ``whitney``
    (:func:`assemble_oneform`'s), that is of their P1 operators
    ``whitney.scalar``.

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
    diagnostic when the normalization check fails.  Each block of
    :func:`_face_blocks` evaluates the integrands, |grad f|^2 among them,
    in one plan; the unit-gradient, then the normalization refusal
    follow the walk.
    """
    scalar = whitney.scalar
    mesh, metric, mass0 = scalar.mesh, scalar.metric, scalar.mass
    fe = _as_expr(f)
    # |grad f|^2, df, Lap f (analytic, in flux-divergence form), the curl
    # of *df (its d(*df) coefficient on du^dv) and *df
    du, dv = metric.u, metric.v
    fu, fv = fe.diff(du), fe.diff(dv)
    su_e, sv_e = star_exprs(metric, fu, fv)
    curl_s = sv_e.diff(du) - su_e.diff(dv)
    integrands = (
        gradient_norm2_expr(metric, fe), fu, fv, laplacian_expr(metric, fe),
        curl_s, su_e, sv_e,
    )
    nq, dev = len(_rule(scalar.quad_rule)[1]), 0.0
    route_1, route_2, dphi_sq = (np.empty((mesh.n_faces, nq)) for _ in range(3))
    for faces, data in _face_blocks(mesh, metric, scalar.quad_rule):
        gn2, df_u, df_v, lap_q, curl_q, sdf_u, sdf_v = evaluate_on_f(
            metric, integrands, fe, data["u"], data["v"]
        )
        dev = max(dev, float(np.max(np.abs(gn2 - 1.0))))
        dA, phi_nodes = data["dA"], phi[mesh.logical_tris[faces]]  # (F, 3)
        # dphi is constant per face
        dphi_u, dphi_v = (np.sum(phi_nodes * g, axis=1)[:, None] for g in data["grads"])
        phi_q = phi_nodes @ data["lam"].T  # (F, nq)
        i11, i12, i22 = data["ginv"]

        def pair(au, av, bu, bv):
            return au * (i11 * bu + i12 * bv) + av * (i12 * bu + i22 * bv)

        a_q = pair(dphi_u, dphi_v, df_u, df_v)
        dphi_norm2_q = pair(dphi_u, dphi_v, dphi_u, dphi_v)
        b2_q = np.maximum(dphi_norm2_q - a_q**2, 0.0)
        # route 1: exterior part b^2, codifferential part (a - phi Lap f)^2
        route_1[faces] = (b2_q + (a_q - phi_q * lap_q) ** 2) * dA
        # route 2: same energy through the starred field phi (*df); its
        # exterior part is the wedge dphi ^ *df plus phi d(*df) with the
        # latter taken as the curl of the starred components, and its
        # codifferential part is -<dphi, *df>
        sqrtdet = data["sqrtdet"]
        dstar_q = curl_q / sqrtdet  # equals -Lap f
        wedge_q = (dphi_u * sdf_v - dphi_v * sdf_u) / sqrtdet
        c_q = pair(dphi_u, dphi_v, sdf_u, sdf_v)
        route_2[faces] = ((wedge_q + phi_q * dstar_q) ** 2 + c_q**2) * dA
        dphi_sq[faces] = dphi_norm2_q * dA

    if dev > UNIT_GRADIENT_TOL:
        raise AssemblyError(
            f"distance function is not unit-gradient (max deviation {dev:.3e})"
        )
    norm = float(phi @ (mass0 @ phi))
    if abs(norm - 1.0) > M_NORMALIZATION_TOL:
        raise AssemblyError(
            f"phi is not M-normalized: phi'M phi = {norm!r} "
            f"(eigenvalue reference {lambda_ref!r})"
        )
    alpha_nu, alpha_star_nu, dphi_norm2 = (
        float(np.sum(q)) for q in (route_1, route_2, dphi_sq)
    )

    # discrete cross term
    w_a, w_b = _whitney_interpolate(
        mesh, metric, fe, ((fu, fv), (su_e, sv_e)), phi
    )
    curl_part = float((mesh.d1 @ w_a) @ (whitney.mass2 @ (mesh.d1 @ w_b)))
    rhs_a = mesh.d0.T @ (whitney.mass1 @ w_a)
    rhs_b = mesh.d0.T @ (whitney.mass1 @ w_b)
    div_part = float(rhs_a @ _solve_mass0(mass0, rhs_b, "the cross term"))
    cross = curl_part + div_part

    return {
        "alpha_nu": alpha_nu,
        "alpha_star_nu": alpha_star_nu,
        "cross": cross,
        "dphi_norm2": dphi_norm2,
    }
