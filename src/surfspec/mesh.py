"""Structured triangulations of chart domains.

Supported shapes: axis-aligned rectangles, disks and annuli on polar
grids, and periodic bands (a rectangle with its theta edges glued).
Two builders make them: ``_grid_mesh`` the (u, v) grid of a rectangle or
band, ``_ring_mesh`` the rings of an annulus or disk (a disk adds a fan
around its centre).  Cells split along the fixed lower-left to
upper-right diagonal.  ``_grid_dims`` gives each shape's cells per axis,
and it is the one source of the builders' sizes and of the vertex count
that ``DomainSpec`` predicts to refuse a mesh before building it.

A mesh keeps two vertex layers:

* raw vertices with chart coordinates, including the duplicated seam
  column of a periodic band, so every triangle has honest coordinates;
* logical vertices, the quotient after seam identification, which is
  what degrees of freedom, edges, and topology counts refer to.

For non-periodic shapes the two layers coincide.  ``raw_to_logical``
maps the first onto the second.

Edges are stored as sorted logical vertex pairs in lexicographic
order; the orientation of an edge (a, b) with a < b is a -> b.  Column
k of ``tri_edges`` is each face's corner pair ``LOCAL_EDGES[k]`` =
(k, ``NEXT[k]``), and ``tri_edge_signs`` records whether it runs with
the edge.  ``_face_pairs`` is the one numbering of face-edge pairs:
edges, raw edges, a refinement's inner edges and ``Mesh.edge_pairs``.
Other modules read these orders and numberings and ``Mesh.interior``.
The signed incidence matrices of that convention, ``Mesh.d0``
(vertices to edges, -1 at a and +1 at b) and ``Mesh.d1`` (edges to
faces, the traversal signs), are built here on first use, from the
topology alone; assembly, refinement transfer and the Hodge rank check
read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "MeshError",
    "MeshSizeError",
    "EXTENT_COUNT",
    "MAX_VERTICES",
    "MAX_CHART_COORDINATE",
    "LOCAL_EDGES",
    "NEXT",
    "DomainSpec",
    "Mesh",
    "triangulate",
    "refine",
    "prolongation",
    "export_off",
]


class MeshError(ValueError):
    """Degenerate domain spec or broken mesh invariant.  ``cause`` names
    the domain field a spec refusal is about (``"shape"``, ``"extents"``
    or ``"resolution"``), and is None when it is about no single field."""

    def __init__(self, message: str, cause: Optional[str] = None):
        super().__init__(message)
        self.cause = cause


class MeshSizeError(MeshError):
    """A domain spec too large to mesh: an extent above
    ``MAX_CHART_COORDINATE``, or a mesh of more than ``MAX_VERTICES``
    vertices.  ``cause`` is ``"extents"`` when no resolution makes the
    extents meshable (an extent too large, or a rectangle's aspect ratio
    alone too large) and ``"resolution"`` otherwise."""


# shape -> number of extents: (u0, u1, v0, v1), (u0, u1), (cx, cy, radius)
# and (cx, cy, r_in, r_out)
EXTENT_COUNT = {"rectangle": 4, "periodic_band": 2, "disk": 3, "annulus": 4}

# a level-0 mesh predicted to have more raw vertices than this is refused
# before any array is allocated: its vertex, triangle, edge and incidence
# arrays alone take about 340 bytes a vertex, 34 GB at this count
MAX_VERTICES = 10**8

# the largest magnitude of a domain extent or theta period, and of a metric's
# validity bound or r_range end: squared chart lengths stay below the float
# limit 1.8e308
MAX_CHART_COORDINATE = 1e150

# a face's corner pairs, in the order of the tri_edges and tri_edge_signs columns
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))
# the next-edge order: face edge NEXT[k] follows k, as corner NEXT[k] follows k
NEXT = tuple(b for _, b in LOCAL_EDGES)


@dataclass(frozen=True)
class DomainSpec:
    """Shape + resolution.  ``n`` subdivides the shortest side.

    Construction raises :class:`MeshError` for an unknown shape, a wrong
    number of extents, ``n < 2``, non-finite or degenerate extents, a
    theta period above ``MAX_CHART_COORDINATE``, and
    :class:`MeshSizeError` for an extent above it or a mesh predicted to
    exceed ``MAX_VERTICES``, so a spec that exists can be meshed.
    """

    shape: str
    n: int
    extents: Tuple[float, ...]
    theta_period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.shape not in EXTENT_COUNT:
            raise MeshError(f"unknown domain shape '{self.shape}'", "shape")
        want = EXTENT_COUNT[self.shape]
        if len(self.extents) != want:
            raise MeshError(
                f"shape '{self.shape}' takes {want} extents, "
                f"got {len(self.extents)}",
                "extents",
            )
        if self.n < 2:
            raise MeshError("resolution must be at least 2", "resolution")
        if not all(map(math.isfinite, self.extents)):
            raise MeshError("extents must be finite", "extents")
        if not math.isfinite(self.theta_period):
            raise MeshError("theta period must be finite")
        if self.shape == "rectangle":
            u0, u1, v0, v1 = self.extents
            if not (u1 > u0 and v1 > v0):
                raise MeshError("rectangle extents are degenerate", "extents")
        elif self.shape == "periodic_band":
            u0, u1 = self.extents
            if not u1 > u0:
                raise MeshError("band extents are degenerate", "extents")
            if not self.theta_period > 0:
                raise MeshError("band requires a positive theta period")
        elif self.shape == "disk":
            _, _, radius = self.extents
            if not radius > 0:
                raise MeshError("disk radius must be positive", "extents")
        else:
            _, _, r_in, r_out = self.extents
            if not (0 < r_in < r_out):
                raise MeshError(
                    "annulus radii must satisfy 0 < r_in < r_out", "extents"
                )
        if self.n > MAX_VERTICES:  # every shape has more vertices than n
            raise MeshSizeError(
                f"resolution {self.n} exceeds the vertex limit {MAX_VERTICES:.0e}",
                "resolution",
            )
        count = _vertex_count(self.shape, self.n, self.extents)
        if count > MAX_VERTICES:
            at_two = _vertex_count(self.shape, 2, self.extents)
            raise MeshSizeError(
                f"a {self.shape} on extents {list(self.extents)} at resolution "
                f"{self.n} would have {count:.3g} vertices, above the limit "
                f"{MAX_VERTICES:.0e}",
                "extents" if at_two > MAX_VERTICES else "resolution",
            )
        # a mesh within the vertex limit can still have squared lengths that overflow
        if max(map(abs, self.extents)) > MAX_CHART_COORDINATE:
            raise MeshSizeError(
                f"extents {list(self.extents)} exceed the magnitude limit "
                f"{MAX_CHART_COORDINATE:.0e}",
                "extents",
            )
        if self.theta_period > MAX_CHART_COORDINATE:
            raise MeshError(
                f"theta period {self.theta_period:g} exceeds the limit "
                f"{MAX_CHART_COORDINATE:.0e}"
            )

    def vertex_bound(self, level: int) -> float:
        """An upper bound on the raw vertices of this domain's mesh refined
        ``level`` times, without building it.  Refinement adds one vertex
        per raw edge, and a raw mesh is planar, with at most three edges
        per vertex, so each level at most quadruples the count.  Levels
        above 64 count as 64, whose bound is already far above
        ``MAX_VERTICES``."""
        count = _vertex_count(self.shape, self.n, self.extents)
        return count * 4.0 ** min(level, 64)

    @property
    def chart_box(self) -> Tuple[float, float, float, float]:
        """(u_min, u_max, v_min, v_max): a band's extents by [0, theta
        period], the outer circle's box for a disk or annulus."""
        ext = self.extents
        if self.shape == "rectangle":
            return ext
        if self.shape == "periodic_band":
            return (ext[0], ext[1], 0.0, self.theta_period)
        cx, cy, r = ext[0], ext[1], ext[-1]
        return (cx - r, cx + r, cy - r, cy + r)

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

    @cached_property
    def h_max(self) -> float:
        """The longest edge in chart coordinates: one square root of the
        largest squared length, read off the coordinate columns."""
        x, y = self.verts[:, 0], self.verts[:, 1]
        longest = 0.0
        for a, b in LOCAL_EDGES:
            dx = x[self.tris[:, b]] - x[self.tris[:, a]]
            dy = y[self.tris[:, b]] - y[self.tris[:, a]]
            longest = max(longest, float(np.max(dx * dx + dy * dy)))
        return math.sqrt(longest)

    @cached_property
    def interior(self) -> np.ndarray:
        """Ascending logical ids of the vertices off the boundary."""
        return np.nonzero(~self.boundary_vertex_mask)[0]

    @cached_property
    def d0(self) -> sp.csr_matrix:
        """Signed incidence, vertices to edges: edge (a, b) is -1 at a, +1 at b."""
        E, rows = self.n_edges, np.arange(self.n_edges)
        return sp.coo_matrix(
            (
                np.concatenate([np.ones(E), -np.ones(E)]),
                (
                    np.concatenate([rows, rows]),
                    np.concatenate([self.edges[:, 1], self.edges[:, 0]]),
                ),
            ),
            shape=(E, self.n_vertices),
        ).tocsr()

    @cached_property
    def d1(self) -> sp.csr_matrix:
        """Signed incidence, edges to faces: ``tri_edge_signs`` in face rows."""
        F = self.n_faces
        return sp.coo_matrix(
            (
                self.tri_edge_signs.ravel().astype(float),
                (np.repeat(np.arange(F), 3), self.tri_edges.ravel()),
            ),
            shape=(F, self.n_edges),
        ).tocsr()

    def edge_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs of edges sharing a face, ``(pairs, pair_ids)`` of
        :func:`_face_pairs` of ``tri_edges``, built on each call."""
        return _face_pairs(self.tri_edges, self.n_edges)[:2]

    def chart_areas(self) -> np.ndarray:
        """Signed chart area of every face, read off the coordinate columns."""
        x, y = self.verts[:, 0], self.verts[:, 1]
        t0, t1, t2 = self.tris.T
        e1u, e1v = x[t1] - x[t0], y[t1] - y[t0]
        e2u, e2v = x[t2] - x[t0], y[t2] - y[t0]
        return 0.5 * (e1u * e2v - e1v * e2u)

    # -- construction ----------------------------------------------------

    def _finalize(self, topology=None):
        """Check the mesh and fill its topology: ``(edges, tri_edges,
        tri_edge_signs)`` as :func:`refine` derives it, or else
        :func:`_face_pairs` of the logical faces, as arbitrary triangles
        need."""
        if self.tris.size and self.tris.max() >= len(self.verts):
            raise MeshError("triangle references a missing vertex")
        areas = self.chart_areas()
        if np.any(areas <= 0):
            bad = int(np.argmin(areas))
            raise MeshError(
                f"triangle {bad} has non-positive chart area {areas[bad]:.3e}"
            )
        del areas  # the checks below hold face arrays of their own
        self.n_vertices = int(self.raw_to_logical.max()) + 1
        lt = self.logical_tris
        if np.any(
            (lt[:, 0] == lt[:, 1]) | (lt[:, 1] == lt[:, 2]) | (lt[:, 0] == lt[:, 2])
        ):
            raise MeshError("triangle collapses under seam identification")

        if topology is None:
            topology = _face_pairs(lt, self.n_vertices)
        del lt
        self.edges, self.tri_edges, self.tri_edge_signs = topology

        counts = np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))
        if np.any(counts > 2):
            raise MeshError("edge shared by more than two triangles")
        self.boundary_edge_mask = counts == 1
        # Interior edges must be traversed once in each direction.
        sign_sums = np.bincount(
            self.tri_edges.ravel(),
            weights=self.tri_edge_signs.ravel(),
            minlength=len(self.edges),
        )
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


def face_edges(tris: np.ndarray) -> np.ndarray:
    """The (3F, 2) corner pairs of every face edge of ``tris`` (F, 3),
    ``LOCAL_EDGES``-major: row k * F + f is edge k of face f."""
    return np.concatenate([tris[:, [a, b]] for a, b in LOCAL_EDGES], axis=0)


def _face_pairs(ids: np.ndarray, n: int):
    """For faces ``ids`` (F, 3) with entries in [0, n): the distinct
    sorted pairs a < b of their face edges in lexicographic order, each
    face edge's pair id as a C-contiguous (F, 3) array (column k is corner
    pair ``LOCAL_EDGES[k]``), and its int8 sign, -1 where it runs from the
    larger id; of logical faces, ``(edges, tri_edges, tri_edge_signs)``."""
    pairs, inverse = _unique_pairs(face_edges(ids), n)
    signs = np.where(ids > ids[:, NEXT], -1, 1).astype(np.int8)
    return pairs, inverse.reshape(3, len(ids)).T.copy(), signs


def _edge_representatives(mesh: "Mesh") -> Tuple[np.ndarray, np.ndarray]:
    """One raw vertex pair per logical edge, oriented with the edge: its
    first face edge in :func:`face_edges` order, reversed where
    ``tri_edge_signs`` says the face runs against the edge."""
    _, first = np.unique(mesh.tri_edges.T, return_index=True)
    raw = face_edges(mesh.tris)[first]
    flip = mesh.tri_edge_signs.T.ravel()[first] < 0
    raw = np.where(flip[:, None], raw[:, ::-1], raw)
    return raw[:, 0], raw[:, 1]


def _vertex_slots(pairs: np.ndarray, n: int, own: int):
    """Slots of the sorted pairs (a, b), a < b, of vertices in [0, n) when
    each vertex v in turn lists its pairs with b = v, then ``own`` slots
    of its own, then its pairs with a = v, each group in pair order: the
    layout of CSR rows (``own`` = 1, the diagonal) or of the half edges
    of :func:`refine`.  The pairs with a = v are consecutive; those with
    b = v come from one stable argsort of the b column, the only sort.

    Returns ``(at_b, at_own, at_a, start)``: every pair's slot at b, each
    vertex's first own slot, every pair's slot at a, and each vertex's
    first slot, the total last; int32 unless the total needs int64.
    """
    a, b = pairs[:, 0], pairs[:, 1]
    count_a = np.bincount(a, minlength=n)
    count_b = np.bincount(b, minlength=n)
    total = len(pairs) * 2 + own * n
    index = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    start = np.zeros(n + 1, dtype=index)
    np.cumsum(count_a + count_b + own, out=start[1:])
    first = start[:-1]
    at_own = first + count_b.astype(index)
    before_a = np.cumsum(count_a) - count_a  # the pairs with a < v
    before_b = np.cumsum(count_b) - count_b
    # a pair's slot is its group's first slot plus its rank in the group
    ids = np.arange(len(pairs), dtype=index)
    at_b = np.empty(len(pairs), dtype=index)
    at_b[np.argsort(b, kind="stable")] = ids + np.repeat(
        (first - before_b).astype(index), count_b
    )
    at_a = ids + np.repeat((at_own + own - before_a).astype(index), count_a)
    return at_b, at_own, at_a, start


def _unique_pairs(pairs: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)`` for
    entries in [0, n), from one sort of the keys min * n + max (their order
    is the sorted rows' order); ``pairs`` itself is not reordered."""
    a, b = pairs[:, 0], pairs[:, 1]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    keys, inverse = np.unique(keys, return_inverse=True)
    return np.stack([keys // n, keys % n], axis=1), inverse


# ---------------------------------------------------------------------------
# triangulation


def _grid_dims(shape: str, n: int, extents) -> Tuple[int, int]:
    """(ns, nt), the cells of a shape's grid: u by v for a rectangle, whose
    shorter side gets n and its longer side that length's share of n (at
    least 2); u by theta for a band; rings by angles for a disk or
    annulus.  Both ``triangulate`` and the size prediction read it.  A
    rectangle whose aspect ratio times n is not finite has inf cells on its
    longer side, a size that only the prediction sees."""
    if shape != "rectangle":
        return n, max(3, n)  # below 3 angles a glued band is not edge-manifold
    u0, u1, v0, v1 = extents
    len_u, len_v = u1 - u0, v1 - v0
    cells = n * max(len_u, len_v) / min(len_u, len_v)
    longer = max(2, int(round(cells))) if math.isfinite(cells) else math.inf
    return (n, longer) if len_u <= len_v else (longer, n)


def _vertex_count(shape: str, n: int, extents) -> float:
    """The number of raw vertices ``triangulate`` makes, without making
    them; inf when a rectangle's aspect ratio times ``n`` overflows."""
    ns, nt = _grid_dims(shape, n, extents)
    if shape == "disk":
        return float(1 + ns * nt)
    if shape == "annulus":
        return float((ns + 1) * nt)
    return (ns + 1.0) * (nt + 1.0)  # a band's seam column is duplicated


def triangulate(domain: DomainSpec) -> Mesh:
    """Build the structured mesh for a domain spec."""
    ns, nt = _grid_dims(domain.shape, domain.n, domain.extents)
    ext = domain.extents
    if domain.shape == "rectangle":
        upts, vpts = np.linspace(*ext[:2], ns + 1), np.linspace(*ext[2:], nt + 1)
        return _grid_mesh(domain, upts, vpts)
    if domain.shape == "periodic_band":
        # theta runs over [0, period] with the seam column duplicated: raw
        # vertex (i, j) is logical vertex i * nt + j mod nt
        i, j = np.divmod(np.arange((ns + 1) * (nt + 1)), nt + 1)
        thetas = np.linspace(0.0, domain.theta_period, nt + 1)
        return _grid_mesh(domain, np.linspace(*ext, ns + 1), thetas, i * nt + j % nt)
    if domain.shape == "disk":
        return _ring_mesh(domain, ext[2] * np.arange(1, ns + 1) / ns, nt)
    return _ring_mesh(domain, np.linspace(ext[2], ext[3], ns + 1), nt)


def _grid_mesh(domain: DomainSpec, upts, vpts, raw_to_logical=None) -> Mesh:
    """The grid ``upts`` x ``vpts``, vertex (i, j) numbered i * len(vpts) + j.
    Cell (i, j) has corners ll = (i, j), lr = (i + 1, j), ur = (i + 1, j + 1)
    and ul = (i, j + 1); the triangles are every cell's (ll, lr, ur), then
    every cell's (ll, ur, ul)."""
    uu, vv = np.meshgrid(upts, vpts, indexing="ij")
    ids = np.arange(uu.size).reshape(uu.shape)
    ll, lr, ur, ul = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    tris = np.array([[ll, lr, ur], [ll, ur, ul]]).transpose(0, 2, 3, 1).reshape(-1, 3)
    verts = np.column_stack([uu.ravel(), vv.ravel()])
    return Mesh.from_arrays(verts, tris, raw_to_logical, domain=domain)


def _ring_mesh(domain: DomainSpec, radii, nt: int) -> Mesh:
    """Rings of ``nt`` points at ``radii`` about the domain's centre, point
    j of a ring at angle 2 pi j / nt.  The cell between rings k and k + 1
    at angle j splits into (a, b, c) and (a, c, d), with a = (k, j), b =
    (k + 1, j), c = (k + 1, j + 1) and d = (k, j + 1), cell after cell.  A
    disk numbers its centre first and joins it to the innermost ring by a
    fan of triangles, which come first."""
    cx, cy = domain.extents[:2]
    angles = 2.0 * math.pi * np.arange(nt) / nt
    xs = cx + radii[:, None] * np.cos(angles)
    ys = cy + radii[:, None] * np.sin(angles)
    centre = domain.shape == "disk"
    ids = centre + np.arange(xs.size).reshape(xs.shape)
    ids = np.column_stack([ids, ids[:, 0]])  # angle nt is angle 0
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    tris = np.array([[a, b, c], [a, c, d]]).transpose(2, 3, 0, 1).reshape(-1, 3)
    verts = np.column_stack([xs.ravel(), ys.ravel()])
    if centre:
        fan = np.column_stack([np.zeros(nt, dtype=np.int64), ids[0, :-1], ids[0, 1:]])
        verts = np.concatenate([[[cx, cy]], verts])
        tris = np.concatenate([fan, tris])
    return Mesh.from_arrays(verts, tris, domain=domain)


# ---------------------------------------------------------------------------
# refinement


def refine(mesh: Mesh) -> Mesh:
    """Uniform red refinement: every triangle splits into four.

    Midpoints of raw edges become new raw vertices, numbered after the
    coarse ones by raw edge (the logical edges, where the raw numbering
    is logical: every mesh without a seam).  The midpoint of logical edge
    e is logical vertex V + e (as :func:`prolongation` reads it), so seam
    identifications carry over.  Face (v0, v1, v2) with edge midpoints
    m01, m12 and m20 has the children (v0, m01, m20), (m01, v1, m12),
    (m20, m12, v2) and (m01, m12, m20): all first children, then all
    second ones, and so on.  The Euler characteristic is unchanged.

    The fine topology is derived from the coarse numbering, without
    sorting fine edges.  Coarse edge e = (a, b) gives the half edges
    (a, V + e) and (b, V + e), and each face three inner edges joining
    its midpoints.  The fine edges, sorted as always, are the half edges
    first: for each vertex v in turn, its coarse edges with b = v, then
    those with a = v, each in ascending e.  The inner edges follow, as
    :func:`_face_pairs` numbers the pairs of coarse edges sharing a face.
    A child's edges and signs follow from its face's ``tri_edges`` and
    ``tri_edge_signs``.  Every :class:`Mesh` check still runs.
    """
    verts, tris = mesh.verts, mesh.tris
    V, F = mesh.n_vertices, mesh.n_faces
    if np.array_equal(mesh.raw_to_logical, np.arange(len(verts))):
        raw_edges, tri_raw_edges = mesh.edges, mesh.tri_edges
    else:
        raw_edges, tri_raw_edges = _face_pairs(tris, len(verts))[:2]
    midpoints = 0.5 * (verts[raw_edges[:, 0]] + verts[raw_edges[:, 1]])
    new_verts = np.concatenate([verts, midpoints], axis=0)
    mid_logical = np.empty(len(raw_edges), dtype=np.int64)
    mid_logical[tri_raw_edges] = V + mesh.tri_edges
    new_raw_to_logical = np.concatenate([mesh.raw_to_logical, mid_logical])

    m01, m12, m20 = (len(verts) + tri_raw_edges[:, k] for k in range(3))
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    children = _by_child(
        ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20)),
        F, np.int64,
    )
    del m01, m12, m20, midpoints, mid_logical  # before the checks' arrays

    fine = Mesh(new_verts, children, new_raw_to_logical, mesh.domain, mesh.level + 1)
    fine._finalize(_refined_topology(mesh))
    return fine


def _refined_topology(mesh: Mesh):
    """``(edges, tri_edges, tri_edge_signs)`` of ``refine(mesh)``, derived
    from the coarse topology as :func:`refine` states."""
    V, E, F = mesh.n_vertices, mesh.n_edges, mesh.n_faces
    at_b, _, at_a, _ = _vertex_slots(mesh.edges, V, 0)
    edges = np.empty((2 * E, 2), dtype=np.int64)
    edges[at_a, 0], edges[at_b, 0] = mesh.edges[:, 0], mesh.edges[:, 1]
    edges[at_a, 1] = edges[at_b, 1] = V + np.arange(E)

    te = mesh.tri_edges
    forward = mesh.tri_edge_signs > 0  # corner k is edge k's end a
    # the half edge of face edge k at corner k, and at corner k + 1
    head = np.where(forward, at_a[te], at_b[te])
    tail = np.where(forward, at_b[te], at_a[te])
    # inner edge k joins the midpoints of face edges k and NEXT[k]; the middle
    # child runs it in that direction, with its orientation where up is 1
    inner_edges, inner, up = _face_pairs(te, E)
    inner += 2 * E
    edges = np.concatenate([edges, V + inner_edges])

    # a corner child leaves its coarse corner along a head, crosses an inner
    # edge against the middle child and returns along a tail; a half edge
    # runs out of its coarse end
    tri_edges = _by_child((
        (head[:, 0], inner[:, 2], tail[:, 2]),
        (tail[:, 0], head[:, 1], inner[:, 0]),
        (inner[:, 1], tail[:, 1], head[:, 2]),
        (inner[:, 0], inner[:, 1], inner[:, 2]),
    ), F, np.int64)
    signs = _by_child((
        (1, -up[:, 2], -1),
        (-1, 1, -up[:, 0]),
        (-up[:, 1], -1, 1),
        (up[:, 0], up[:, 1], up[:, 2]),
    ), F, np.int8)
    return edges, tri_edges, signs


def _by_child(columns, F: int, dtype) -> np.ndarray:
    """The (4F, 3) array whose rows c F to (c + 1) F hold the three
    columns, arrays or scalars, of child c."""
    out = np.empty((4 * F, 3), dtype=dtype)
    for c, child in enumerate(columns):
        for k, column in enumerate(child):
            out[c * F:(c + 1) * F, k] = column
    return out


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 interpolation from ``coarse`` onto ``fine = refine(coarse)``.

    In the refined logical numbering vertex i < V is coarse vertex i and
    vertex V + e is the midpoint of coarse edge e, so the matrix is
    ``[I; 0.5 |d0|]`` with shape (V + E, V), written row by row from
    ``coarse.edges``.  Raises :class:`MeshError`
    when ``fine`` does not have that many vertices.
    """
    V, E = coarse.n_vertices, coarse.n_edges
    if fine.n_vertices != V + E:
        raise MeshError(
            f"{fine.n_vertices} vertices do not refine a mesh with "
            f"{V} vertices and {E} edges"
        )
    # row i < V is (i: 1), row V + e is (a: 0.5, b: 0.5) for edge e = (a, b)
    indptr = np.concatenate([np.arange(V + 1), V + 2 * np.arange(1, E + 1)])
    indices = np.concatenate([np.arange(V), coarse.edges.ravel()])
    data = np.concatenate([np.ones(V), np.full(2 * E, 0.5)])
    return sp.csr_matrix((data, indices, indptr), shape=(V + E, V))


# ---------------------------------------------------------------------------
# export


def export_off(mesh: Mesh) -> str:
    """Plain-text OFF-style listing of the raw mesh.

    Header line is "V E F" (raw counts; a periodic seam stays
    duplicated so viewers see honest coordinates), then V vertex lines
    and F face lines.  Deterministic ordering.
    """
    n_raw_edges = len(_face_pairs(mesh.tris, len(mesh.verts))[0])
    lines = [f"{len(mesh.verts)} {n_raw_edges} {len(mesh.tris)}"]
    for x, y in mesh.verts:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.tris:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"
