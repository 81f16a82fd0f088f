"""Mesh construction, identification, refinement, and topology checks."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from surfspec.mesh import (
    MAX_VERTICES,
    DomainSpec,
    Mesh,
    MeshError,
    MeshSizeError,
    _vertex_count,
    export_off,
    prolongation,
    refine,
    triangulate,
)


def canonical(mesh):
    """Sort raw vertices lexicographically and re-index the triangles.

    Triangles are rotated so the smallest vertex comes first (leaving
    orientation intact) and then sorted row-wise, so two meshes of the
    same domain can be compared regardless of construction order.
    """
    keys = np.round(mesh.verts, 9)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    verts = mesh.verts[order]
    tris = rank[mesh.tris]
    rolled = np.array([np.roll(t, -int(np.argmin(t))) for t in tris])
    rolled = rolled[np.lexsort((rolled[:, 2], rolled[:, 1], rolled[:, 0]))]
    return verts, rolled


# ---------------------------------------------------------------------------
# structured counts


def test_rectangle_counts_n4():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 4))
    assert mesh.n_vertices == 25
    assert mesh.n_edges == 56
    assert mesh.n_faces == 32
    assert mesh.euler_characteristic == 1
    assert mesh.betti1 == 0
    assert len(mesh.verts) == 25  # no seam, raw == logical


def test_rectangle_boundary_n4():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 4))
    assert int(mesh.boundary_vertex_mask.sum()) == 16
    assert int(mesh.boundary_edge_mask.sum()) == 16
    on_edge = (
        np.isclose(mesh.verts[:, 0], 0)
        | np.isclose(mesh.verts[:, 0], math.pi)
        | np.isclose(mesh.verts[:, 1], 0)
        | np.isclose(mesh.verts[:, 1], math.pi)
    )
    assert np.array_equal(mesh.boundary_vertex_mask, on_edge)


def test_rectangle_aspect_ratio_scales_long_side():
    mesh = triangulate(DomainSpec.rectangle(0, 2, 0, 1, 4))
    # shortest side gets 4 cells, the other side keeps cells near-square
    assert mesh.n_vertices == 9 * 5
    assert mesh.n_faces == 2 * 8 * 4


def test_rectangle_h_max():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 4))
    assert mesh.h_max == pytest.approx(math.sqrt(2) * math.pi / 4, rel=1e-12)


@pytest.mark.parametrize("domain", [
    DomainSpec.rectangle(0, 1, 1, math.e, 5),
    DomainSpec.periodic_band(-1, 0, 6),
    DomainSpec.disk(0.2, -0.1, 1.5, 5),
    DomainSpec.annulus(0, 0, 0.5, 1.0, 5),
], ids=["rectangle", "band", "disk", "annulus"])
def test_h_max_is_the_longest_edge_norm_bit_for_bit(domain):
    # the square root of the largest squared length is the largest norm
    mesh = triangulate(domain)
    for _ in range(2):
        p = mesh.verts[mesh.tris]
        want = float(max(
            np.max(np.linalg.norm(p[:, b] - p[:, a], axis=1))
            for a, b in ((0, 1), (1, 2), (2, 0))
        ))
        assert mesh.h_max == want
        mesh = refine(mesh)


def test_periodic_band_counts_n4():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4))
    assert len(mesh.verts) == 25  # raw grid keeps the duplicated seam
    assert mesh.n_vertices == 20
    assert mesh.n_edges == 52
    assert mesh.n_faces == 32
    assert mesh.euler_characteristic == 0
    assert mesh.betti1 == 1


def test_periodic_band_boundary():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4))
    assert int(mesh.boundary_vertex_mask.sum()) == 8  # two circles of 4
    assert int(mesh.boundary_edge_mask.sum()) == 8


def test_periodic_band_seam_identified():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4, theta_period=2 * math.pi))
    at_zero = np.isclose(mesh.verts[:, 1], 0.0)
    at_period = np.isclose(mesh.verts[:, 1], 2 * math.pi)
    assert at_zero.sum() == 5 and at_period.sum() == 5
    left = mesh.raw_to_logical[at_zero]
    right = mesh.raw_to_logical[at_period]
    assert np.array_equal(np.sort(left), np.sort(right))


def test_disk_mesh_n2():
    mesh = triangulate(DomainSpec.disk(0, 0, 1, 2))
    assert mesh.n_vertices == 7
    assert mesh.n_faces == 9
    assert mesh.euler_characteristic == 1
    assert np.all(mesh.chart_areas() > 0)
    radii = np.linalg.norm(mesh.verts[mesh.boundary_vertex_mask], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_annulus_topology():
    mesh = triangulate(DomainSpec.annulus(0, 0, 0.5, 1.0, 4))
    assert mesh.euler_characteristic == 0
    assert mesh.betti1 == 1
    assert np.all(mesh.chart_areas() > 0)
    r = np.linalg.norm(mesh.verts, axis=1)
    assert np.all(r > 0.5 - 1e-12)
    assert np.all(r < 1.0 + 1e-12)


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, math.pi, 0, math.pi, 3),
        DomainSpec.periodic_band(0.25, 1.5, 5),
        DomainSpec.disk(0, 0, 2, 3),
        DomainSpec.annulus(0, 0, 1, 2, 4),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_betti1_is_zero_or_one(domain):
    mesh = triangulate(domain)
    assert mesh.betti1 in (0, 1)


# ---------------------------------------------------------------------------
# edge table


def test_edges_sorted_and_consistent():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4))
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    # lexicographic order
    keys = mesh.edges[:, 0] * mesh.n_vertices + mesh.edges[:, 1]
    assert np.all(np.diff(keys) > 0)
    lt = mesh.logical_tris
    for f in range(mesh.n_faces):
        for k, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
            pair = sorted((lt[f, a], lt[f, b]))
            assert list(mesh.edges[mesh.tri_edges[f, k]]) == pair
            want = 1 if lt[f, a] < lt[f, b] else -1
            assert mesh.tri_edge_signs[f, k] == want


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, 1, 1, 2, 3),
        DomainSpec.periodic_band(-1, 1, 4),
        DomainSpec.disk(0, 0, 1, 3),
        DomainSpec.annulus(0, 0, 1, 2, 3),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_incidence_product_is_exactly_zero(domain):
    # d1 d0 = 0 is topology alone; on the band it also checks the seam
    for mesh in (triangulate(domain), refine(triangulate(domain))):
        assert mesh.d0.shape == (mesh.n_edges, mesh.n_vertices)
        assert mesh.d1.shape == (mesh.n_faces, mesh.n_edges)
        assert (mesh.d1 @ mesh.d0).count_nonzero() == 0


def test_interior_edges_have_two_faces():
    mesh = triangulate(DomainSpec.rectangle(0, 1, 0, 1, 3))
    counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.n_edges)
    assert np.all(counts[mesh.boundary_edge_mask] == 1)
    assert np.all(counts[~mesh.boundary_edge_mask] == 2)


# ---------------------------------------------------------------------------
# refinement


def test_refine_rectangle_matches_finer_grid():
    coarse = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 4))
    fine = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 8))
    refined = refine(coarse)
    va, ta = canonical(refined)
    vb, tb = canonical(fine)
    assert va.shape == vb.shape
    assert np.allclose(va, vb, atol=1e-12)
    assert np.array_equal(ta, tb)


def test_refine_band_matches_finer_grid():
    coarse = triangulate(DomainSpec.periodic_band(0, 1, 4))
    fine = triangulate(DomainSpec.periodic_band(0, 1, 8))
    refined = refine(coarse)
    va, ta = canonical(refined)
    vb, tb = canonical(fine)
    assert np.allclose(va, vb, atol=1e-12)
    assert np.array_equal(ta, tb)
    assert refined.n_vertices == fine.n_vertices
    assert refined.n_edges == fine.n_edges


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, 1, 0, 2, 3),
        DomainSpec.periodic_band(0.5, 2.0, 4),
        DomainSpec.disk(0, 0, 1, 2),
        DomainSpec.annulus(0, 0, 1, 3, 3),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_refine_preserves_topology(domain):
    mesh = triangulate(domain)
    fine = refine(mesh)
    assert fine.n_faces == 4 * mesh.n_faces
    assert fine.euler_characteristic == mesh.euler_characteristic
    assert fine.betti1 == mesh.betti1
    assert fine.level == mesh.level + 1
    assert fine.h_max == pytest.approx(mesh.h_max / 2, rel=1e-12)
    again = refine(fine)
    assert again.n_faces == 16 * mesh.n_faces
    assert again.euler_characteristic == mesh.euler_characteristic


def logical_u(mesh):
    """Chart u of each logical vertex (a band's seam copies share their u)."""
    u = np.empty(mesh.n_vertices)
    u[mesh.raw_to_logical] = mesh.verts[:, 0]
    return u


@pytest.mark.parametrize(
    "domain",
    [DomainSpec.rectangle(0, 1, 1, math.e, 3), DomainSpec.periodic_band(-1, 0, 4)],
    ids=["rectangle", "band"],
)
def test_prolongation_interpolates_chart_u(domain):
    # u is linear on every triangle, so P1 interpolation reproduces it;
    # on the band this pins the V + e midpoint numbering across the seam
    coarse = triangulate(domain)
    for _ in range(2):
        fine = refine(coarse)
        P = prolongation(coarse, fine)
        assert P.shape == (fine.n_vertices, coarse.n_vertices)
        assert np.array_equal(P @ logical_u(coarse), logical_u(fine))
        coarse = fine


def test_refine_numbers_midpoints_by_logical_edge():
    # loop reference: a refined vertex V + e sits at the midpoint of raw
    # copies of coarse logical edge e's endpoints, seam copies included
    coarse = triangulate(DomainSpec.periodic_band(-1, 0, 4))
    fine = refine(coarse)
    V = coarse.n_vertices
    copies = [coarse.verts[coarse.raw_to_logical == i] for i in range(V)]
    for point, vertex in zip(fine.verts, fine.raw_to_logical):
        if vertex < V:
            assert any(np.array_equal(point, p) for p in copies[vertex])
            continue
        a, b = coarse.edges[vertex - V]
        assert any(
            np.array_equal(point, 0.5 * (pa + pb))
            for pa in copies[a] for pb in copies[b]
        )


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, 2, 0, 1, 3),
        DomainSpec.periodic_band(-1, 0, 3),
        DomainSpec.disk(0, 0, 1, 3),
        DomainSpec.annulus(0, 0, 1, 2, 3),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_vertex_bound_holds_under_refinement(domain):
    mesh = triangulate(domain)
    for level in range(4):
        assert len(mesh.verts) <= domain.vertex_bound(level)
        mesh = refine(mesh)
    assert domain.vertex_bound(10**300) > MAX_VERTICES


def test_interior_is_the_complement_of_the_boundary():
    for domain in (
        DomainSpec.rectangle(0, math.pi, 0, math.pi, 4),
        DomainSpec.periodic_band(0, 1, 4),
    ):
        mesh = triangulate(domain)
        boundary = np.nonzero(mesh.boundary_vertex_mask)[0]
        want = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
        assert np.array_equal(mesh.interior, want)
    assert len(mesh.interior) == 12  # three interior circles of four


def test_chart_box():
    assert DomainSpec.rectangle(0, 2, -1, 1, 3).chart_box == (0.0, 2.0, -1.0, 1.0)
    band = DomainSpec.periodic_band(-1, 0, 3, theta_period=3.0)
    assert band.chart_box == (-1.0, 0.0, 0.0, 3.0)
    assert DomainSpec.disk(1, 2, 0.5, 3).chart_box == (0.5, 1.5, 1.5, 2.5)
    assert DomainSpec.annulus(0, 0, 1, 2, 3).chart_box == (-2.0, 2.0, -2.0, 2.0)


def test_prolongation_size_guard():
    mesh = triangulate(DomainSpec.rectangle(0, 1, 0, 1, 3))
    with pytest.raises(MeshError, match="do not refine"):
        prolongation(mesh, mesh)


def test_refine_keeps_boundary_on_disk():
    mesh = refine(triangulate(DomainSpec.disk(0, 0, 1, 2)))
    bd = mesh.verts[: mesh.n_vertices]  # disk has raw == logical
    # midpoints of boundary chords stay inside, none outside
    radii = np.linalg.norm(mesh.verts, axis=1)
    assert np.all(radii <= 1.0 + 1e-12)
    assert bd.shape[1] == 2


# ---------------------------------------------------------------------------
# validation


def loop_reference(domain):
    """Triangles and raw-to-logical map built one index at a time."""
    n = domain.n
    ntheta = max(3, n)
    tris = []
    if domain.shape == "periodic_band":
        raw_to_logical = [
            i * ntheta + j % ntheta for i in range(n + 1) for j in range(ntheta + 1)
        ]
        return None, np.array(raw_to_logical, dtype=np.int64)
    first = 1 if domain.shape == "disk" else 0  # the disk's ring 1 follows its center

    def rid(k, j):
        return first + (k - first) * ntheta + j % ntheta

    if domain.shape == "disk":
        tris = [[0, rid(1, j), rid(1, j + 1)] for j in range(ntheta)]
    rings = range(first, n)
    for k in rings:
        for j in range(ntheta):
            a, b = rid(k, j), rid(k + 1, j)
            c, d = rid(k + 1, j + 1), rid(k, j + 1)
            tris += [[a, b, c], [a, c, d]]
    return np.array(tris), None


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.periodic_band(-1, 0, 2),
        DomainSpec.periodic_band(0, 1, 7),
        DomainSpec.disk(0, 0, 1, 2),
        DomainSpec.disk(0.5, -1, 2, 5),
        DomainSpec.annulus(0, 0, 1, 2, 2),
        DomainSpec.annulus(0, 0, 1, 3, 6),
    ],
    ids=["band-2", "band-7", "disk-2", "disk-5", "annulus-2", "annulus-6"],
)
def test_index_arrays_match_loop_reference(domain):
    mesh = triangulate(domain)
    tris, raw_to_logical = loop_reference(domain)
    if tris is None:
        got = mesh.raw_to_logical
        assert got.dtype == raw_to_logical.dtype
        assert np.array_equal(got, raw_to_logical)
    else:
        assert mesh.tris.dtype == tris.dtype
        assert np.array_equal(mesh.tris, tris)


def test_resolution_too_small():
    with pytest.raises(MeshError, match="at least 2") as info:
        triangulate(DomainSpec.rectangle(0, 1, 0, 1, 1))
    assert info.value.cause == "resolution"


def test_degenerate_rectangle():
    with pytest.raises(MeshError, match="degenerate") as info:
        triangulate(DomainSpec.rectangle(0, 1, 1, 1, 4))
    assert info.value.cause == "extents"


def test_bad_annulus_radii():
    with pytest.raises(MeshError, match="radii") as info:
        triangulate(DomainSpec.annulus(0, 0, 2, 1, 4))
    assert info.value.cause == "extents"


@pytest.mark.parametrize("make,message", [
    (lambda: DomainSpec.periodic_band(1.0, 1.0, 4), "band extents are degenerate"),
    (lambda: DomainSpec.periodic_band(1.0, 0.0, 4), "band extents are degenerate"),
    (lambda: DomainSpec.disk(0.0, 0.0, 0.0, 4), "disk radius must be positive"),
])
def test_degenerate_band_and_disk_refused(make, message):
    with pytest.raises(MeshError, match=message) as info:
        make()
    assert info.value.cause == "extents"


@pytest.mark.parametrize(
    "shape,extents",
    [
        ("rectangle", (0.0, 1.0)),
        ("periodic_band", (0.0, 1.0, 2.0)),
        ("disk", (0.0, 1.0, 0.0, 1.0)),
        ("annulus", (0.0, 0.0, 1.0)),
    ],
)
def test_wrong_extent_count(shape, extents):
    # refused before the extents are unpacked, naming the shape and the count
    with pytest.raises(
        MeshError, match=f"'{shape}' takes .* got {len(extents)}"
    ) as info:
        DomainSpec(shape, 4, extents)
    assert info.value.cause == "extents"


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, 1, 1, 2.5, 5),
        DomainSpec.rectangle(0, 3, 0, 1, 2),
        DomainSpec.periodic_band(-1, 1, 2),
        DomainSpec.periodic_band(-1, 1, 5),
        DomainSpec.disk(0, 0, 1, 2),
        DomainSpec.disk(0, 0, 1, 4),
        DomainSpec.annulus(0, 0, 1, 2, 2),
        DomainSpec.annulus(0, 0, 1, 2, 4),
    ],
)
def test_vertex_count_predicts_triangulate(domain):
    predicted = _vertex_count(domain.shape, domain.n, domain.extents)
    assert predicted == len(triangulate(domain).verts)


def mesh_digest(mesh) -> str:
    """blake2b of the raw arrays, each with its dtype."""
    h = hashlib.blake2b(digest_size=16)
    for array in (mesh.verts, mesh.tris, mesh.raw_to_logical):
        h.update(array.dtype.str.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# the shapes of the recorded meshes, by test id
SHAPES = {
    "rectangle": DomainSpec.rectangle(0, 1, 1, 2.5, 5),
    "rectangle-n2": DomainSpec.rectangle(0, 3, 0, 1, 2),
    "band-n2": DomainSpec.periodic_band(-1, 1, 2, theta_period=3.0),  # 3 angles
    "disk": DomainSpec.disk(0.5, -0.5, 2, 3),
    "annulus-n2": DomainSpec.annulus(0, 0, 1, 2.5, 2),
}


@pytest.mark.parametrize(
    "name,level0,level1",
    [
        (
            "rectangle",
            "bafe2961e198da1d6bf2e36ef503fbad",
            "19b4097a15983447df32485c6afcf09e",
        ),
        (
            "rectangle-n2",
            "266b8a8527b9ec8af8bdf658d8f4d7ff",
            "187f15f249079f0590a2c17f3664dea2",
        ),
        (
            "band-n2",
            "f4b55642ae239e8ebb15175796befa41",
            "2127af440509ef5bbe92f5110144fe68",
        ),
        (
            "disk",
            "bb306020d0ccd9fc4de0be42c89025d5",
            "7c0ce3befd49fa0765da8a78bb5e05f5",
        ),
        (
            "annulus-n2",
            "499e686581db1ab5f822ac4776b63888",
            "6f3cbe029ec4225a6e3acc703248a2d9",
        ),
    ],
    ids=list(SHAPES),
)
def test_meshes_are_bit_identical_to_the_recorded_ones(name, level0, level1):
    # vertex order, triangle order and coordinate arithmetic are part of every
    # report: a rewrite of the builders must reproduce these bytes exactly
    mesh = triangulate(SHAPES[name])
    assert (mesh_digest(mesh), mesh_digest(refine(mesh))) == (level0, level1)


TOPOLOGY = (
    "edges", "tri_edges", "tri_edge_signs", "boundary_edge_mask",
    "boundary_vertex_mask",
)


@pytest.mark.parametrize("name", SHAPES)
def test_refined_topology_equals_the_sorting_constructor(name):
    # refine derives the fine topology from the coarse numbering; the
    # constructor of arbitrary triangles finds it by sorting the face edges
    mesh = triangulate(SHAPES[name])
    for _ in range(3):
        fine = refine(mesh)
        want = Mesh.from_arrays(fine.verts, fine.tris, fine.raw_to_logical)
        assert fine.n_vertices == want.n_vertices
        for attr in TOPOLOGY:
            got, ref = getattr(fine, attr), getattr(want, attr)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), attr
        mesh = fine


def same_csr(got, want):
    """Equal CSR arrays, bit for bit, with equal dtypes."""
    assert got.shape == want.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.mark.parametrize("name", SHAPES)
def test_prolongation_equals_the_stacked_incidence(name):
    mesh = triangulate(SHAPES[name])
    for _ in range(3):
        fine = refine(mesh)
        P = prolongation(mesh, fine)
        assert "d0" not in vars(mesh)  # built from the edges, no incidence cached
        want = sp.vstack([sp.identity(mesh.n_vertices), 0.5 * abs(mesh.d0)])
        same_csr(P, want.tocsr())
        mesh = fine


def test_refine_peak_memory():
    # halfplane's level-1 mesh refined to 63,497 vertices: the tracemalloc
    # peak was 43.8 MiB, 4.1 times the 10.7 MiB of the fine mesh's arrays,
    # when the fine edges were found by sorting; derived from the coarse
    # numbering it is 22.3 MiB (2.1 times).  The bound is 2.1 plus 25 %.
    coarse = refine(triangulate(DomainSpec.rectangle(0, 1, 1, math.e, 48)))
    tracemalloc.start()
    try:
        fine = refine(coarse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fine.n_vertices == 63_497
    arrays = ("verts", "tris", "raw_to_logical") + TOPOLOGY
    assert peak < 2.6 * sum(getattr(fine, attr).nbytes for attr in arrays)


@pytest.mark.parametrize(
    "shape,n,extents,cause",
    [
        ("rectangle", 4, (0.0, 1e300, 0.0, 1.0), "extents"),
        ("rectangle", 2, (0.0, 5e-324, 0.0, 1.0), "extents"),  # ratio overflows
        ("rectangle", 2, (-1e308, 1e308, 0.0, 1.0), "extents"),  # width overflows
        ("rectangle", 100_000, (0.0, 1.0, 0.0, 1.0), "resolution"),
        ("rectangle", 10**400, (0.0, 1.0, 0.0, 1.0), "resolution"),
        ("periodic_band", 10_001, (0.0, 1.0), "resolution"),
        ("disk", 10**5, (0.0, 0.0, 1.0), "resolution"),
        ("annulus", 10**5, (0.0, 0.0, 1.0, 2.0), "resolution"),
    ],
)
def test_oversized_spec_refused_by_prediction(shape, n, extents, cause):
    # the spec is refused before triangulate could allocate anything
    with pytest.raises(MeshSizeError, match="limit 1e\\+08") as info:
        DomainSpec(shape, n, extents)
    assert info.value.cause == cause


def test_largest_band_below_the_limit_is_accepted():
    # (n + 1)^2 raw vertices at n = 9999 is exactly 1e8
    assert _vertex_count("periodic_band", 9_999, (0.0, 1.0)) == MAX_VERTICES
    DomainSpec.periodic_band(0, 1, 9_999)


def test_coordinates_whose_squares_overflow_refused():
    with pytest.raises(MeshError, match="theta period 1e\\+300 exceeds"):
        DomainSpec.periodic_band(-1, 0, 4, theta_period=1e300)
    with pytest.raises(MeshSizeError, match="magnitude limit") as info:
        DomainSpec.rectangle(0, 1e300, 0, 1e300, 4)
    assert info.value.cause == "extents"
    # at the limit, the squared lengths stay finite (an overflow warning fails)
    for domain in (
        DomainSpec.rectangle(-1e150, 1e150, -1e150, 1e150, 4),
        DomainSpec.periodic_band(-1, 0, 4, theta_period=1e150),
    ):
        assert math.isfinite(triangulate(domain).h_max)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_extents_rejected(bad):
    with pytest.raises(MeshError, match="finite"):
        DomainSpec.rectangle(0, bad, 0, 1, 4)
    with pytest.raises(MeshError, match="finite"):
        DomainSpec.periodic_band(0, 1, 4, theta_period=bad)


def test_unknown_shape():
    with pytest.raises(MeshError, match="unknown domain shape"):
        triangulate(DomainSpec("hexagon", 4, (0.0, 1.0)))


def test_negative_area_rejected():
    verts = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(MeshError, match="non-positive"):
        Mesh.from_arrays(verts, [[0, 2, 1]])


def test_non_manifold_edge_rejected():
    # three triangles of positive area on the edge 0-1
    verts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1], [0.5, 0.5]]
    tris = [[0, 1, 2], [1, 3, 2], [1, 0, 4], [0, 1, 5]]
    with pytest.raises(MeshError, match="edge shared by more than two triangles"):
        Mesh.from_arrays(verts, tris)


def test_missing_vertex_rejected():
    verts = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(MeshError, match="triangle references a missing vertex"):
        Mesh.from_arrays(verts, [[0, 1, 3]])


def test_disconnected_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
    tris = [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(MeshError, match="not connected"):
        Mesh.from_arrays(verts, tris)


def test_moebius_gluing_rejected():
    # 2 x 3 strip with the seam column glued upside down
    ncols = 4
    verts = np.array([[j, i] for i in range(2) for j in range(ncols)], float)

    def vid(i, j):
        return i * ncols + j

    raw_to_logical = np.arange(len(verts))
    raw_to_logical[vid(0, 3)] = vid(1, 0)  # flip at the seam
    raw_to_logical[vid(1, 3)] = vid(0, 0)
    _, raw_to_logical = np.unique(raw_to_logical, return_inverse=True)
    tris = []
    for j in range(ncols - 1):
        tris.append([vid(0, j), vid(0, j + 1), vid(1, j + 1)])
        tris.append([vid(0, j), vid(1, j + 1), vid(1, j)])
    with pytest.raises(MeshError, match="orientation"):
        Mesh.from_arrays(verts, np.array(tris), raw_to_logical)


def test_seam_collapse_rejected():
    verts = np.array([[0, 0], [1, 0], [0, 1]], float)
    with pytest.raises(MeshError, match="collapses"):
        Mesh.from_arrays(verts, [[0, 1, 2]], raw_to_logical=[0, 0, 1])


# ---------------------------------------------------------------------------
# export


def test_export_off_header_and_shape():
    mesh = triangulate(DomainSpec.rectangle(0, 1, 0, 1, 2))
    text = export_off(mesh)
    lines = text.strip().split("\n")
    v, e, f = (int(x) for x in lines[0].split())
    assert (v, e, f) == (9, 16, 8)
    assert len(lines) == 1 + v + f
    coords = np.array([[float(t) for t in ln.split()] for ln in lines[1 : 1 + v]])
    assert np.allclose(np.sort(coords[:, 0]), np.sort(mesh.verts[:, 0]))
    for ln in lines[1 + v :]:
        parts = ln.split()
        assert parts[0] == "3"
        assert all(0 <= int(t) < v for t in parts[1:])


def test_export_off_round_trips_floats():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, 1, 2))
    text = export_off(mesh)
    lines = text.strip().split("\n")
    v = int(lines[0].split()[0])
    coords = np.array([[float(t) for t in ln.split()] for ln in lines[1 : 1 + v]])
    assert np.array_equal(coords, mesh.verts)  # repr prints exactly


def test_domain_spec_helpers():
    dom = DomainSpec.periodic_band(0, 1, 4)
    d = dom.to_dict()
    assert d["shape"] == "periodic_band"
    assert d["n"] == 4
