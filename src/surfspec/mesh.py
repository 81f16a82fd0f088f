"""Structured triangulations of chart domains.

Supported shapes: axis-aligned rectangles, disks and annuli on polar
grids, and periodic bands (a rectangle with its theta edges glued).
Quad cells split along the fixed lower-left to upper-right diagonal.

A mesh keeps two vertex layers:

* raw vertices with chart coordinates, including the duplicated seam
  column of a periodic band, so every triangle has honest coordinates;
* logical vertices, the quotient after seam identification, which is
  what degrees of freedom, edges, and topology counts refer to.

For non-periodic shapes the two layers coincide.  ``raw_to_logical``
maps the first onto the second.

Edges are stored as sorted logical vertex pairs in lexicographic
order; the orientation of an edge (a, b) with a < b is a -> b, and
``tri_edge_signs`` records whether each face traversal agrees with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "MeshError",
    "DomainSpec",
    "Mesh",
    "triangulate",
    "refine",
    "prolongation",
    "export_off",
]


class MeshError(ValueError):
    """Degenerate domain spec or broken mesh invariant."""


@dataclass(frozen=True)
class DomainSpec:
    """Shape + resolution.  ``n`` subdivides the shortest side."""

    shape: str
    n: int
    extents: Tuple[float, ...]
    theta_period: float = 2.0 * math.pi

    @classmethod
    def rectangle(cls, u0, u1, v0, v1, n) -> "DomainSpec":
        return cls("rectangle", int(n), (float(u0), float(u1), float(v0), float(v1)))

    @classmethod
    def periodic_band(cls, u0, u1, n, theta_period=2.0 * math.pi) -> "DomainSpec":
        return cls(
            "periodic_band", int(n), (float(u0), float(u1)), float(theta_period)
        )

    @classmethod
    def disk(cls, cx, cy, radius, n) -> "DomainSpec":
        return cls("disk", int(n), (float(cx), float(cy), float(radius)))

    @classmethod
    def annulus(cls, cx, cy, r_in, r_out, n) -> "DomainSpec":
        return cls(
            "annulus", int(n), (float(cx), float(cy), float(r_in), float(r_out))
        )

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "n": self.n,
            "extents": [float(x) for x in self.extents],
            "theta_period": float(self.theta_period),
        }


@dataclass(eq=False)
class Mesh:
    """Triangulated domain; see the module docstring for the layers."""

    verts: np.ndarray  # (Nraw, 2) chart coordinates
    tris: np.ndarray  # (F, 3) raw indices, counterclockwise
    raw_to_logical: np.ndarray  # (Nraw,)
    domain: Optional[DomainSpec] = None
    level: int = 0

    # derived topology, filled by _finalize
    n_vertices: int = 0
    edges: np.ndarray = field(default=None, repr=False)
    tri_edges: np.ndarray = field(default=None, repr=False)
    tri_edge_signs: np.ndarray = field(default=None, repr=False)
    boundary_edge_mask: np.ndarray = field(default=None, repr=False)
    boundary_vertex_mask: np.ndarray = field(default=None, repr=False)

    @classmethod
    def from_arrays(cls, verts, tris, raw_to_logical=None, domain=None, level=0):
        verts = np.asarray(verts, dtype=float)
        tris = np.asarray(tris, dtype=np.int64)
        if raw_to_logical is None:
            raw_to_logical = np.arange(len(verts), dtype=np.int64)
        mesh = cls(verts, tris, np.asarray(raw_to_logical, dtype=np.int64),
                   domain=domain, level=level)
        mesh._finalize()
        return mesh

    # -- counts ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.tris)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def betti1(self) -> int:
        return 1 - self.euler_characteristic

    @property
    def logical_tris(self) -> np.ndarray:
        return self.raw_to_logical[self.tris]

    @property
    def h_max(self) -> float:
        p = self.verts[self.tris]
        lengths = [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ]
        return float(np.max(lengths))

    def chart_areas(self) -> np.ndarray:
        p = self.verts[self.tris]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    # -- construction ----------------------------------------------------

    def _finalize(self):
        if self.tris.size and self.tris.max() >= len(self.verts):
            raise MeshError("triangle references a missing vertex")
        areas = self.chart_areas()
        if np.any(areas <= 0):
            bad = int(np.argmin(areas))
            raise MeshError(
                f"triangle {bad} has non-positive chart area {areas[bad]:.3e}"
            )
        self.n_vertices = int(self.raw_to_logical.max()) + 1
        lt = self.logical_tris
        if np.any(
            (lt[:, 0] == lt[:, 1]) | (lt[:, 1] == lt[:, 2]) | (lt[:, 0] == lt[:, 2])
        ):
            raise MeshError("triangle collapses under seam identification")

        pairs = np.concatenate(
            [lt[:, [0, 1]], lt[:, [1, 2]], lt[:, [2, 0]]], axis=0
        )
        flipped = pairs[:, 0] > pairs[:, 1]
        sorted_pairs = np.where(flipped[:, None], pairs[:, ::-1], pairs)
        self.edges, inverse = _unique_pairs(sorted_pairs, self.n_vertices)
        F = len(self.tris)
        self.tri_edges = inverse.reshape(3, F).T.copy()
        signs = np.where(flipped, -1, 1).astype(np.int8)
        self.tri_edge_signs = signs.reshape(3, F).T.copy()

        counts = np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))
        if np.any(counts > 2):
            raise MeshError("edge shared by more than two triangles")
        self.boundary_edge_mask = counts == 1
        # Interior edges must be traversed once in each direction.
        sign_sums = np.zeros(len(self.edges), dtype=np.int64)
        np.add.at(sign_sums, self.tri_edges.ravel(), self.tri_edge_signs.ravel())
        if np.any(sign_sums[~self.boundary_edge_mask] != 0):
            raise MeshError("inconsistent triangle orientation across an edge")

        self.boundary_vertex_mask = np.zeros(self.n_vertices, dtype=bool)
        self.boundary_vertex_mask[self.edges[self.boundary_edge_mask].ravel()] = True

        self._check_connected()

    def _check_connected(self):
        n = self.n_vertices
        graph = sp.coo_matrix(
            (np.ones(len(self.edges)), (self.edges[:, 0], self.edges[:, 1])),
            shape=(n, n),
        )
        n_components, _ = connected_components(graph, directed=False)
        if n_components != 1:
            raise MeshError("mesh is not connected")


def _unique_pairs(pairs: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(pairs, axis=0, return_inverse=True)`` for entries in [0, n),
    from one sort of the keys a * n + b (their order is the rows' order)."""
    keys, inverse = np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)
    return np.stack([keys // n, keys % n], axis=1), inverse


# ---------------------------------------------------------------------------
# triangulation


def _grid_counts(n: int, len_u: float, len_v: float) -> Tuple[int, int]:
    if len_u <= len_v:
        nu = n
        nv = max(2, int(round(n * len_v / len_u)))
    else:
        nv = n
        nu = max(2, int(round(n * len_u / len_v)))
    return nu, nv


def _split_cells(cell_ids: np.ndarray) -> np.ndarray:
    """cell_ids: (ncells, 4) corners (ll, lr, ur, ul) -> (2*ncells, 3)."""
    ll, lr, ur, ul = cell_ids.T
    lower = np.stack([ll, lr, ur], axis=1)
    upper = np.stack([ll, ur, ul], axis=1)
    return np.concatenate([lower, upper], axis=0)


def triangulate(domain: DomainSpec) -> Mesh:
    """Build the structured mesh for a domain spec.

    Raises :class:`MeshError` for degenerate extents or ``n < 2``.
    """
    if domain.n < 2:
        raise MeshError("resolution must be at least 2")
    if domain.shape == "rectangle":
        return _triangulate_rectangle(domain)
    if domain.shape == "periodic_band":
        return _triangulate_band(domain)
    if domain.shape == "disk":
        return _triangulate_disk(domain)
    if domain.shape == "annulus":
        return _triangulate_annulus(domain)
    raise MeshError(f"unknown domain shape '{domain.shape}'")


def _triangulate_rectangle(domain: DomainSpec) -> Mesh:
    u0, u1, v0, v1 = domain.extents
    if not (u1 > u0 and v1 > v0):
        raise MeshError("rectangle extents are degenerate")
    nu, nv = _grid_counts(domain.n, u1 - u0, v1 - v0)
    upts = np.linspace(u0, u1, nu + 1)
    vpts = np.linspace(v0, v1, nv + 1)
    uu, vv = np.meshgrid(upts, vpts, indexing="ij")
    verts = np.column_stack([uu.ravel(), vv.ravel()])

    def vid(i, j):
        return i * (nv + 1) + j

    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    i, j = i.ravel(), j.ravel()
    cells = np.stack(
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)], axis=1
    )
    return Mesh.from_arrays(verts, _split_cells(cells), domain=domain)


def _triangulate_band(domain: DomainSpec) -> Mesh:
    u0, u1 = domain.extents
    if not u1 > u0:
        raise MeshError("band extents are degenerate")
    period = domain.theta_period
    if not period > 0:
        raise MeshError("band requires a positive theta period")
    nu = domain.n
    ntheta = max(3, domain.n)  # below 3 the glued mesh is not edge-manifold
    upts = np.linspace(u0, u1, nu + 1)
    vpts = np.linspace(0.0, period, ntheta + 1)  # seam column duplicated
    uu, vv = np.meshgrid(upts, vpts, indexing="ij")
    verts = np.column_stack([uu.ravel(), vv.ravel()])

    def vid(i, j):
        return i * (ntheta + 1) + j

    i, j = np.meshgrid(np.arange(nu + 1), np.arange(ntheta + 1), indexing="ij")
    raw_to_logical = (i * ntheta + j % ntheta).ravel()

    i, j = np.meshgrid(np.arange(nu), np.arange(ntheta), indexing="ij")
    i, j = i.ravel(), j.ravel()
    cells = np.stack(
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)], axis=1
    )
    return Mesh.from_arrays(verts, _split_cells(cells), raw_to_logical, domain=domain)


def _polar_points(cx, cy, radius, ntheta):
    angles = 2.0 * math.pi * np.arange(ntheta) / ntheta
    return np.column_stack(
        [cx + radius * np.cos(angles), cy + radius * np.sin(angles)]
    )


def _ring_cells(rid, rings, ntheta) -> np.ndarray:
    """Triangles (a, b, c), (a, c, d) of each cell between ring k and k + 1.

    Cells run over k in ``rings`` and then angle j; a = rid(k, j), b =
    rid(k + 1, j), c = rid(k + 1, j + 1), d = rid(k, j + 1).
    """
    k, j = np.meshgrid(rings, np.arange(ntheta), indexing="ij")
    a, b = rid(k, j), rid(k + 1, j)
    c, d = rid(k + 1, j + 1), rid(k, j + 1)
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def _triangulate_disk(domain: DomainSpec) -> Mesh:
    cx, cy, radius = domain.extents
    if not radius > 0:
        raise MeshError("disk radius must be positive")
    n = domain.n
    ntheta = max(3, n)
    verts = [np.array([[cx, cy]])]
    for k in range(1, n + 1):
        verts.append(_polar_points(cx, cy, radius * k / n, ntheta))
    verts = np.concatenate(verts, axis=0)

    def rid(k, j):  # ring k >= 1
        return 1 + (k - 1) * ntheta + (j % ntheta)

    j = np.arange(ntheta)
    fan = np.stack([np.zeros_like(j), rid(1, j), rid(1, j + 1)], axis=1)
    tris = np.concatenate([fan, _ring_cells(rid, np.arange(1, n), ntheta)])
    return Mesh.from_arrays(verts, tris, domain=domain)


def _triangulate_annulus(domain: DomainSpec) -> Mesh:
    cx, cy, r_in, r_out = domain.extents
    if not (0 < r_in < r_out):
        raise MeshError("annulus radii must satisfy 0 < r_in < r_out")
    n = domain.n
    ntheta = max(3, n)
    rows = [
        _polar_points(cx, cy, r, ntheta)
        for r in np.linspace(r_in, r_out, n + 1)
    ]
    verts = np.concatenate(rows, axis=0)

    def rid(k, j):
        return k * ntheta + (j % ntheta)

    return Mesh.from_arrays(
        verts, _ring_cells(rid, np.arange(n), ntheta), domain=domain
    )


# ---------------------------------------------------------------------------
# refinement


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement: every triangle splits into four.

    Midpoints of raw edges become new raw vertices; a midpoint's logical
    identity is keyed by the logical edge, so seam identifications carry
    over to the refined mesh.  The Euler characteristic is unchanged.
    """
    verts, tris = mesh.verts, mesh.tris
    raw_pairs = np.concatenate(
        [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=0
    )
    raw_pairs.sort(axis=1)
    raw_edges, inverse = _unique_pairs(raw_pairs, len(verts))
    F = len(tris)
    tri_raw_edges = inverse.reshape(3, F).T  # midpoint ids per local edge

    midpoints = 0.5 * (verts[raw_edges[:, 0]] + verts[raw_edges[:, 1]])
    new_verts = np.concatenate([verts, midpoints], axis=0)

    # mesh.edges is sorted lexicographically, so the encoded keys a * V + b
    # of its (a, b) pairs are ascending and searchsorted finds each one.
    V = mesh.n_vertices
    logical = np.sort(mesh.raw_to_logical[raw_edges], axis=1)
    edge_keys = mesh.edges[:, 0] * V + mesh.edges[:, 1]
    mid_logical = V + np.searchsorted(edge_keys, logical[:, 0] * V + logical[:, 1])
    new_raw_to_logical = np.concatenate([mesh.raw_to_logical, mid_logical])

    m01 = len(verts) + tri_raw_edges[:, 0]
    m12 = len(verts) + tri_raw_edges[:, 1]
    m20 = len(verts) + tri_raw_edges[:, 2]
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    children = np.concatenate(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([m01, v1, m12], axis=1),
            np.stack([m20, m12, v2], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ],
        axis=0,
    )
    # Compact logical ids (identified midpoints leave gaps otherwise).
    _, compact = np.unique(new_raw_to_logical, return_inverse=True)
    return Mesh.from_arrays(
        new_verts, children, compact, domain=mesh.domain, level=mesh.level + 1
    )


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 interpolation from ``coarse`` onto ``fine = refine(coarse)``.

    In the refined logical numbering vertex i < V is coarse vertex i and
    vertex V + e is the midpoint of coarse edge e, so the matrix is
    ``[I; 0.5 |d0|]`` with shape (V + E, V).  Raises :class:`MeshError`
    when ``fine`` does not have that many vertices.
    """
    V, E = coarse.n_vertices, coarse.n_edges
    if fine.n_vertices != V + E:
        raise MeshError(
            f"{fine.n_vertices} vertices do not refine a mesh with "
            f"{V} vertices and {E} edges"
        )
    rows = np.concatenate([np.arange(V), V + np.repeat(np.arange(E), 2)])
    cols = np.concatenate([np.arange(V), coarse.edges.ravel()])
    vals = np.concatenate([np.ones(V), np.full(2 * E, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(V + E, V))


# ---------------------------------------------------------------------------
# export


def export_off(mesh: Mesh) -> str:
    """Plain-text OFF-style listing of the raw mesh.

    Header line is "V E F" (raw counts; a periodic seam stays
    duplicated so viewers see honest coordinates), then V vertex lines
    and F face lines.  Deterministic ordering.
    """
    raw_pairs = np.concatenate(
        [mesh.tris[:, [0, 1]], mesh.tris[:, [1, 2]], mesh.tris[:, [2, 0]]], axis=0
    )
    raw_pairs.sort(axis=1)
    n_raw_edges = len(_unique_pairs(raw_pairs, len(mesh.verts))[0])
    lines = [f"{len(mesh.verts)} {n_raw_edges} {len(mesh.tris)}"]
    for x, y in mesh.verts:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.tris:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"
