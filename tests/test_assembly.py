"""Operator assembly against closed forms and direct quadrature oracles."""

import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from surfspec import assembly, expr
from surfspec.assembly import (
    AssemblyError,
    _edge_representatives,
    apply_dirichlet,
    assemble_oneform,
    assemble_scalar,
    dirichlet_form_quadrature,
    star_exprs,
)
from surfspec.expr import Var, evaluate, parse
from surfspec.geometry import ChartEvalError, builtin_metric
from surfspec.mesh import (
    DomainSpec, Mesh, _unique_pairs, face_edges, refine, triangulate,
)

FLAT = builtin_metric("euclidean")
HALF_PLANE = builtin_metric("hyperbolic_half_plane")


def unit_right_triangle():
    return Mesh.from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def collar_metric():
    return builtin_metric(
        "warped", {"phi": "0.25*cosh(r)", "r_range": (-1.0, 1.0)}
    )


def whitney(mesh, metric):
    """The Whitney operators on freshly assembled P1 operators."""
    return assemble_oneform(assemble_scalar(mesh, metric))


def _must_not_assemble(*args, **kwargs):
    raise AssertionError("assembled the Whitney masses again")


def first_dirichlet_mode(mesh, metric, rule="midpoint"):
    """Oracle eigenpair: dense generalized solve on the reduced pair."""
    ops = assemble_scalar(mesh, metric, rule)
    red = apply_dirichlet(ops)
    w, vecs = scipy.linalg.eigh(red.stiffness.toarray(), red.mass.toarray())
    vec = vecs[:, 0]
    vec /= math.sqrt(vec @ (red.mass @ vec))
    full = np.zeros(mesh.n_vertices)
    full[mesh.interior] = vec
    return full, float(w[0])


# ---------------------------------------------------------------------------
# element closed forms


def test_flat_element_mass():
    ops = assemble_scalar(unit_right_triangle(), FLAT)
    area = 0.5
    want = (area / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], float)
    assert np.max(np.abs(ops.mass.toarray() - want)) < 1e-15


def test_flat_element_stiffness():
    ops = assemble_scalar(unit_right_triangle(), FLAT)
    K = ops.stiffness.toarray()
    assert np.max(np.abs(K.sum(axis=1))) < 1e-15
    want = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], float)
    assert np.max(np.abs(K - want)) < 1e-15


def test_flat_whitney_mass_closed_form():
    # edges in sorted order: (0,1), (0,2), (1,2)
    ops = assemble_oneform(assemble_scalar(unit_right_triangle(), FLAT))
    want = np.array(
        [[1 / 3, 1 / 6, 0.0], [1 / 6, 1 / 3, 0.0], [0.0, 0.0, 1 / 6]]
    )
    assert np.max(np.abs(ops.mass1.toarray() - want)) < 1e-12
    assert ops.mass1.toarray()[2, 2] == pytest.approx(1 / 6, abs=1e-14)


def test_flat_face_mass_is_inverse_area():
    mesh = triangulate(DomainSpec.rectangle(0, 1, 0, 1, 2))
    ops = assemble_oneform(assemble_scalar(mesh, FLAT))
    areas = mesh.chart_areas()
    assert np.allclose(ops.mass2.diagonal(), 1.0 / areas, rtol=1e-13)


def test_halfplane_mass_matches_direct_quadrature():
    h = 1e-3
    mesh = Mesh.from_arrays([[0, 1], [h, 1], [0, 1 + h]], [[0, 1, 2]])
    ops = assemble_scalar(mesh, HALF_PLANE)

    # independent quadrature: 3 edge midpoints, weight 1/6, metric 1/y^2
    p = mesh.verts
    mids = np.array([(p[0] + p[1]) / 2, (p[1] + p[2]) / 2, (p[2] + p[0]) / 2])
    lam = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    det_j = h * h
    want = np.zeros((3, 3))
    for q in range(3):
        sqrt_g = 1.0 / mids[q, 1] ** 2
        want += (1 / 6) * np.outer(lam[q], lam[q]) * sqrt_g * det_j
    got = ops.mass.toarray()
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12
    # and the flat closed form scaled by 1/y^2 is a near match at this size
    flat = (det_j / 24.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], float)
    assert np.max(np.abs(got - flat)) / np.max(np.abs(flat)) < 5e-3


# ---------------------------------------------------------------------------
# global invariants


@pytest.mark.parametrize(
    "mesh,metric",
    [
        (triangulate(DomainSpec.rectangle(0, 1, 1, 2, 4)), HALF_PLANE),
        (triangulate(DomainSpec.periodic_band(-1, 1, 4)), collar_metric()),
        (triangulate(DomainSpec.disk(0, 0, 1, 3)), FLAT),
    ],
    ids=["halfplane", "collar-band", "disk"],
)
def test_stiffness_annihilates_constants(mesh, metric):
    ops = assemble_scalar(mesh, metric)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(ops.stiffness @ ones)) < 1e-12


def test_matrices_bit_symmetric():
    mesh = triangulate(DomainSpec.periodic_band(-1, 1, 5))
    metric = collar_metric()
    scal = assemble_scalar(mesh, metric)
    one = assemble_oneform(scal)
    for mat in (scal.mass, scal.stiffness, one.mass1):
        assert (mat != mat.T).nnz == 0


def einsum_reference(mesh, metric, rule):
    """P1 mass, P1 stiffness and Whitney mass as (F, 3, 3) element blocks
    from einsum contractions, each summed by a COO scatter with duplicate
    summation: the formulation the assembly replaced."""
    pts, wts = assembly._RULES[rule]
    p = mesh.verts[mesh.tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    detJ = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv_t = np.stack([[e2[:, 1], -e1[:, 1]], [-e2[:, 0], e1[:, 0]]]) / detJ
    inv_t = np.moveaxis(inv_t, -1, 0)  # (F, 2, 2)
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.einsum("fab,ib->fia", inv_t, ref_grads)
    qpts = p[:, None, 0, :] + np.einsum("qk,fkx->fqx", pts, np.stack([e1, e2], 1))
    g11, g12, g22 = metric.evaluate(
        (metric.g11, metric.g12, metric.g22), qpts[..., 0], qpts[..., 1]
    )
    det = g11 * g22 - g12 * g12
    ginv = np.moveaxis(np.array([[g22, -g12], [-g12, g11]]) / det, (0, 1), (-2, -1))
    dA = wts * np.sqrt(det) * detJ[:, None]
    lam = np.column_stack([1 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    vec = np.stack(
        [
            lam[None, :, a, None] * grads[:, None, b, :]
            - lam[None, :, b, None] * grads[:, None, a, :]
            for a, b in ((0, 1), (1, 2), (2, 0))
        ],
        axis=2,
    ) * mesh.tri_edge_signs[:, None, :, None]

    def scatter(local, idx, n):
        local = 0.5 * (local + np.swapaxes(local, 1, 2))
        rows = np.repeat(idx, 3, axis=1).ravel()
        cols = np.tile(idx, (1, 3)).ravel()
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    lt, V, E = mesh.logical_tris, mesh.n_vertices, mesh.n_edges
    return (
        scatter(np.einsum("qi,qj,fq->fij", lam, lam, dA), lt, V),
        scatter(np.einsum("fia,fqab,fjb,fq->fij", grads, ginv, grads, dA), lt, V),
        scatter(
            np.einsum("fqka,fqab,fqlb,fq->fkl", vec, ginv, vec, dA),
            mesh.tri_edges, E,
        ),
    )


@pytest.mark.parametrize(
    "mesh,metric,rule",
    [
        (triangulate(DomainSpec.rectangle(0, 1, 1, 2, 5)), HALF_PLANE, "degree5"),
        (triangulate(DomainSpec.periodic_band(-1, 1, 5)), collar_metric(), "midpoint"),
        (triangulate(DomainSpec.disk(0, 0, 1, 4)), FLAT, "midpoint"),
        (triangulate(DomainSpec.annulus(0, 0, 1, 2, 4)), FLAT, "midpoint"),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_stiffness_matches_four_operand_contraction(mesh, metric, rule):
    # P1 mass and stiffness and the Whitney mass against the einsum blocks
    scal = assemble_scalar(mesh, metric, quad_rule=rule)
    one = assemble_oneform(scal)
    wants = einsum_reference(mesh, metric, rule)
    for got, want in zip((scal.mass, scal.stiffness, one.mass1), wants):
        want.sort_indices()
        assert got.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.max(np.abs(got.data - want.data)) <= 1e-14 * np.max(np.abs(want.data))
    assert scal.stiffness.nnz == mesh.n_vertices + 2 * mesh.n_edges


@pytest.mark.parametrize(
    "mesh,metric",
    [
        (triangulate(DomainSpec.rectangle(0, 1, 1, 2, 6)), HALF_PLANE),
        (triangulate(DomainSpec.periodic_band(-1, 1, 6)), collar_metric()),
    ],
    ids=["halfplane", "collar-band"],
)
def test_stiffness_equals_gradient_image_energy(mesh, metric):
    # P1 gradients are exactly Whitney interpolants of themselves, so
    # the scalar stiffness factors through the edge mass
    scal = assemble_scalar(mesh, metric)
    one = assemble_oneform(scal)
    diff = (mesh.d0.T @ one.mass1 @ mesh.d0 - scal.stiffness).toarray()
    assert np.max(np.abs(diff)) < 1e-12


def traced_peak(call):
    """The ``tracemalloc`` peak of ``call()``, after a first call has
    compiled its expressions."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scalar_assembly_peak_memory():
    # one block of faces (all 7,872 fit one), written into four (F, 3)
    # arrays, and one scatter per matrix: 3.5 MB, where the whole-mesh
    # chart data took 4.9 MB and the face-chunk loop with its list of parts
    # 8.2 MB
    mesh = refine(triangulate(DomainSpec.rectangle(0, 1, 1, math.e, 24)))
    assert mesh.n_faces == 7872
    assert traced_peak(lambda: assemble_scalar(mesh, HALF_PLANE)) < 4.5 * 2**20


def test_blocked_assembly_peak_memory():
    # six blocks of 5,461 faces: 12.1 MB, where chart data and its products
    # for all 31,488 faces at once took 19.6 MB
    mesh = triangulate(DomainSpec.rectangle(0, 1, 1, math.e, 24))
    mesh = refine(refine(mesh))
    assert mesh.n_faces == 31488
    assert traced_peak(lambda: assemble_scalar(mesh, HALF_PLANE)) < 15 * 2**20


@pytest.fixture(scope="module")
def level_two():
    """Halfplane's level-2 mesh, 125,952 faces."""
    mesh = refine(refine(triangulate(DomainSpec.rectangle(0, 1, 1, math.e, 48))))
    assert mesh.n_faces == 125_952
    return mesh


def test_level_two_assembly_peak_memory(level_two):
    # halfplane's level-2 mesh (125,952 faces): M and K take 8.7 MiB with one
    # shared pattern.  The peak was 43.0 MiB (4.9 times that) when the
    # scatter sorted int64 keys of every entry and gave each matrix its own
    # pattern; from the sorted edges it is 27.8 MiB (3.2 times).  The bound
    # is 3.2 plus 15 %.
    mesh = level_two
    peak = traced_peak(lambda: assemble_scalar(mesh, HALF_PLANE))
    ops = assemble_scalar(mesh, HALF_PLANE)
    M, K = ops.mass, ops.stiffness
    assert np.shares_memory(M.indices, K.indices)
    assert np.shares_memory(M.indptr, K.indptr)
    matrices = M.data.nbytes + K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    assert peak < 3.7 * matrices


def test_level_two_oneform_and_trial_quadrature_peak_memory(level_two):
    # M1 takes 11.5 MiB.  Over the faces in blocks, the Whitney masses peak
    # at 42.3 MiB (3.66 times M1) and the trial quadrature at 23.3 MiB (2.02
    # times); each took all faces in one pass at 111.2 MiB (9.64 times) and
    # 140.1 MiB (12.14 times).  The bounds are the blocked peaks plus 15 %.
    mesh = level_two
    scalar = assemble_scalar(mesh, HALF_PLANE)
    one = assemble_oneform(scalar)
    M1 = one.mass1
    m1 = M1.data.nbytes + M1.indices.nbytes + M1.indptr.nbytes
    assert traced_peak(lambda: assemble_oneform(scalar)) < 4.2 * m1
    phi = np.zeros(mesh.n_vertices)
    phi[mesh.interior] = 1.0
    phi /= math.sqrt(phi @ (scalar.mass @ phi))
    f = parse("-log(y)")
    assert traced_peak(lambda: dirichlet_form_quadrature(one, f, phi, 1.0)) < 2.3 * m1


# the shapes of the recorded meshes of tests/test_mesh.py
SHAPES = {
    "rectangle": DomainSpec.rectangle(0, 1, 1, 2.5, 5),
    "rectangle-n2": DomainSpec.rectangle(0, 3, 0, 1, 2),
    "band-n2": DomainSpec.periodic_band(-1, 1, 2, theta_period=3.0),
    "disk": DomainSpec.disk(0.5, -0.5, 2, 3),
    "annulus-n2": DomainSpec.annulus(0, 0, 1, 2.5, 2),
}


def levels_of(name):
    """The meshes of levels 0-2 of a recorded shape."""
    mesh = triangulate(SHAPES[name])
    for _ in range(3):
        yield mesh
        mesh = refine(mesh)


def same_csr(got, want):
    """Equal CSR arrays, bit for bit, with equal dtypes."""
    assert got.shape == want.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


def scatter_by_sorted_keys(diag_idx, pair_ids, pairs, n, diag, off):
    """The scatter's reference: the CSR order of an argsort of the int64
    keys row * n + col of every entry."""
    ids = np.arange(n)
    rows = np.concatenate([ids, pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([ids, pairs[:, 1], pairs[:, 0]])
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    d = np.bincount(diag_idx.ravel(), weights=diag.ravel(), minlength=n)
    o = np.bincount(pair_ids.ravel(), weights=off.ravel(), minlength=len(pairs))
    data = np.concatenate([d, o, o])[order]
    return sp.csr_matrix((data, cols[order], indptr), shape=(n, n))


@pytest.mark.parametrize("name", SHAPES)
def test_scatter_equals_the_sorted_keys_reference(name):
    rng = np.random.default_rng(11)
    for mesh in levels_of(name):
        # the P1 pattern (the mesh's edges) and the Whitney one (the pairs of
        # edges of one face, numbered as assemble_oneform numbers them)
        edge_pairs = np.sort(face_edges(mesh.tri_edges), axis=1)
        whitney, whitney_ids = _unique_pairs(edge_pairs, mesh.n_edges)
        for idx, ids, pairs, n in (
            (mesh.logical_tris, mesh.tri_edges, mesh.edges, mesh.n_vertices),
            (mesh.tri_edges, whitney_ids.reshape(3, -1).T, whitney, mesh.n_edges),
        ):
            blocks = [rng.standard_normal((2, mesh.n_faces, 3)) for _ in range(2)]
            got = assembly._scatter(idx, ids, pairs, n, *blocks)
            for A, (diag, off) in zip(got, blocks):
                same_csr(A, scatter_by_sorted_keys(idx, ids, pairs, n, diag, off))
            assert np.shares_memory(got[0].indices, got[1].indices)
            assert np.shares_memory(got[0].indptr, got[1].indptr)


@pytest.mark.parametrize("name", SHAPES)
def test_dirichlet_restriction_equals_fancy_indexing(name):
    for mesh in levels_of(name):
        ops = assemble_scalar(mesh, HALF_PLANE if name == "rectangle" else FLAT)
        red, interior = apply_dirichlet(ops), mesh.interior
        same_csr(red.mass, ops.mass[interior][:, interior].tocsr())
        same_csr(red.stiffness, ops.stiffness[interior][:, interior].tocsr())
        assert np.shares_memory(red.mass.indices, red.stiffness.indices)
        assert np.shares_memory(red.mass.indptr, red.stiffness.indptr)


@pytest.mark.parametrize(
    "mesh,metric,rule,f",
    [
        (triangulate(DomainSpec.rectangle(0, 1, 1, 2, 5)), HALF_PLANE, "midpoint",
         "-log(y)"),
        (triangulate(DomainSpec.periodic_band(-1, 1, 5)), collar_metric(), "midpoint",
         "r"),
        (triangulate(DomainSpec.disk(0, 0, 1, 4)), FLAT, "midpoint", "x"),
        (triangulate(DomainSpec.rectangle(0, 1, 1, 2, 5)), HALF_PLANE, "degree5",
         "-log(y)"),
    ],
    ids=["rectangle", "band", "disk", "degree5"],
)
def test_face_blocks_do_not_change_the_operators(mesh, metric, rule, f, monkeypatch):
    # blocks of 9 faces (3 for degree5) and of 6 edges, the last ones short,
    # give the P1 and Whitney operators and the trial quadrature of one
    # block over the whole mesh bit for bit
    phi, lam1 = first_dirichlet_mode(mesh, metric, rule)

    def build():
        one = assemble_oneform(assemble_scalar(mesh, metric, rule))
        return one, dirichlet_form_quadrature(one, parse(f), phi, lam1)

    whole, whole_quadrature = build()
    monkeypatch.setattr(expr, "_CHUNK", 27)
    blocked, quadrature = build()
    assert mesh.n_faces % (27 // len(assembly._RULES[rule][1])) != 0
    assert mesh.n_edges % (27 // 4) != 0
    pairs = zip(
        (blocked.scalar.mass, blocked.scalar.stiffness, blocked.mass1),
        (whole.scalar.mass, whole.scalar.stiffness, whole.mass1),
    )
    for got, want in pairs:
        for a in ("data", "indices", "indptr"):
            assert getattr(got, a).tobytes() == getattr(want, a).tobytes()
    assert blocked.mass2.diagonal().tobytes() == whole.mass2.diagonal().tobytes()
    assert {k: v.hex() for k, v in quadrature.items()} == {
        k: v.hex() for k, v in whole_quadrature.items()
    }


def test_validity_refusal_in_a_later_block(monkeypatch):
    # the first face lies inside u <= 0.5 and the refusal comes from a
    # later block of one face, with the message of a whole-mesh pass
    metric = builtin_metric("general", {
        "g11": "1/y^2", "g12": "0", "g22": "1/y^2", "vars": ["x", "y"],
        "validity": [-10.0, 0.5, 0.05, 10.0],
    })
    mesh = triangulate(DomainSpec.rectangle(0, 1, 1, 2, 3))
    first = mesh.verts[mesh.tris[0]]
    assert metric.contains(first[:, 0], first[:, 1])
    original, calls = assembly._chart_data, []

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(assembly, "_chart_data", counted)
    monkeypatch.setattr(expr, "_CHUNK", 3)
    with pytest.raises(AssemblyError) as caught:
        assemble_scalar(mesh, metric)
    assert str(caught.value) == "mesh leaves the metric validity region"
    assert len(calls) > 1 and calls[-1].stop - calls[-1].start == 1


def test_oneform_bookkeeping():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4))
    scalar = assemble_scalar(mesh, FLAT)
    ops = assemble_oneform(scalar)
    assert ops.mass1.shape == (52, 52)
    assert ops.mass2.shape == (32, 32)
    # the incidences are the mesh's own; test_mesh pins d1 d0 = 0
    assert ops.scalar is scalar and ops.scalar.mesh is mesh
    assert mesh.d0.shape == (52, 20)
    assert mesh.d1.shape == (32, 52)
    assert np.count_nonzero(mesh.boundary_edge_mask) == 8


def test_degree5_rule_exact_on_flat_whitney():
    ops = assemble_oneform(assemble_scalar(unit_right_triangle(), FLAT, "degree5"))
    want = np.array(
        [[1 / 3, 1 / 6, 0.0], [1 / 6, 1 / 3, 0.0], [0.0, 0.0, 1 / 6]]
    )
    assert np.max(np.abs(ops.mass1.toarray() - want)) < 1e-12


def test_unknown_rule_rejected():
    with pytest.raises(AssemblyError, match="quadrature rule"):
        assemble_scalar(unit_right_triangle(), FLAT, quad_rule="degree99")


def test_mesh_outside_validity_rejected():
    mesh = triangulate(DomainSpec.rectangle(0, 1, -1, 1, 3))
    with pytest.raises(AssemblyError, match="validity"):
        assemble_scalar(mesh, HALF_PLANE)


# ---------------------------------------------------------------------------
# Dirichlet reduction


def test_dirichlet_reduction_rectangle():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 4))
    red = apply_dirichlet(assemble_scalar(mesh, FLAT))
    assert red.mass.shape == (9, 9)
    assert len(mesh.interior) == 9


def test_dirichlet_reduction_band():
    mesh = triangulate(DomainSpec.periodic_band(0, 1, 4))
    red = apply_dirichlet(assemble_scalar(mesh, FLAT))
    assert red.mass.shape == (12, 12)
    assert len(mesh.interior) == 12  # three interior circles of four


def test_dirichlet_reduction_disk_keeps_center():
    mesh = triangulate(DomainSpec.disk(0, 0, 1, 3))
    red = apply_dirichlet(assemble_scalar(mesh, FLAT))
    assert red.mass.shape == (len(mesh.interior),) * 2
    assert 0 in mesh.interior


def test_dirichlet_reduction_errors():
    ops = assemble_scalar(unit_right_triangle(), FLAT)
    with pytest.raises(AssemblyError, match="every vertex"):
        apply_dirichlet(ops)
    # a 3 x 3 torus: the raw 4 x 4 grid glued in both directions
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    cells = np.stack([4 * i + j, 4 * i + j + 4, 4 * i + j + 5, 4 * i + j + 1], -1)
    ll, lr, ur, ul = cells[:3, :3].reshape(-1, 4).T
    torus = Mesh.from_arrays(
        np.column_stack([i.ravel(), j.ravel()]),
        np.concatenate([np.stack([ll, lr, ur], 1), np.stack([ll, ur, ul], 1)]),
        (3 * (i % 3) + j % 3).ravel(),
    )
    assert not torus.boundary_vertex_mask.any()
    with pytest.raises(AssemblyError, match="no boundary"):
        apply_dirichlet(assemble_scalar(torus, FLAT))


# ---------------------------------------------------------------------------
# Hodge star


def star_values(metric, u, v, p, q):
    """``star_exprs`` of the symbolic components p du + q dv, evaluated
    at the chart points with p and q bound to the component arrays."""
    env = metric.bindings(u, v)
    env.update(p=p, q=q)
    return evaluate(star_exprs(metric, Var("p"), Var("q")), env)


def test_star_of_warped_frame():
    metric = collar_metric()
    r = np.linspace(-0.9, 0.9, 7)
    theta = np.linspace(0.1, 6.0, 7)
    phi = 0.25 * np.cosh(r)
    su, sv = star_values(metric, r, theta, np.ones_like(r), np.zeros_like(r))
    assert np.max(np.abs(su)) < 1e-14
    assert np.allclose(sv, phi, rtol=1e-14)  # *dr = phi dtheta
    su, sv = star_values(metric, r, theta, np.zeros_like(r), np.ones_like(r))
    assert np.allclose(su, -1.0 / phi, rtol=1e-14)  # *dtheta = -dr/phi
    assert np.max(np.abs(sv)) < 1e-14


def test_star_is_pointwise_isometry_and_involution():
    rng = np.random.default_rng(7)
    metric = HALF_PLANE
    x = rng.uniform(-2, 2, 50)
    y = rng.uniform(0.5, 3.0, 50)
    cu = rng.normal(size=50)
    cv = rng.normal(size=50)
    su, sv = star_values(metric, x, y, cu, cv)

    def norm2(a, b):
        return y * y * (a * a + b * b)  # inverse metric is y^2 I

    assert np.allclose(norm2(su, sv), norm2(cu, cv), rtol=1e-12)
    uu, vv = star_values(metric, x, y, su, sv)
    assert np.allclose(uu, -cu, rtol=1e-12)
    assert np.allclose(vv, -cv, rtol=1e-12)


# ---------------------------------------------------------------------------
# Dirichlet-form quadrature


def test_dirichlet_form_flat_square():
    mesh = triangulate(DomainSpec.rectangle(0, math.pi, 0, math.pi, 32))
    phi, lam1 = first_dirichlet_mode(mesh, FLAT)
    f = parse("x")
    out = dirichlet_form_quadrature(whitney(mesh, FLAT), f, phi, lam1)
    assert lam1 == pytest.approx(2.0, rel=0.02)
    # Lap f = 0, so the energy collapses to the gradient norm
    assert out["alpha_nu"] == pytest.approx(out["dphi_norm2"], rel=1e-12)
    assert out["dphi_norm2"] == pytest.approx(lam1, rel=1e-10)
    assert out["alpha_star_nu"] == pytest.approx(out["alpha_nu"], rel=1e-9)
    assert abs(out["cross"]) <= 0.05 * lam1


def test_dirichlet_form_hyperbolic_rectangle():
    mesh = triangulate(DomainSpec.rectangle(0, 1, 1, 2, 32))
    phi, lam1 = first_dirichlet_mode(mesh, HALF_PLANE)
    f = parse("-log(y)")
    out = dirichlet_form_quadrature(whitney(mesh, HALF_PLANE), f, phi, lam1)
    assert out["alpha_nu"] <= 1.05 * lam1
    assert out["alpha_star_nu"] <= 1.05 * lam1
    assert out["alpha_star_nu"] == pytest.approx(out["alpha_nu"], rel=1e-9)
    assert abs(out["cross"]) <= 0.05 * lam1
    assert out["dphi_norm2"] == pytest.approx(lam1, rel=1e-10)


def test_dirichlet_form_cross_term_mass_solve(monkeypatch):
    # the codifferential's M0 solve is Jacobi-preconditioned CG: it gives a
    # sparse LU's cross term, and stopping short of its tolerance is refused
    mesh = triangulate(DomainSpec.rectangle(0, 1, 1, 2, 16))
    phi, lam1 = first_dirichlet_mode(mesh, HALF_PLANE)
    ops, f = whitney(mesh, HALF_PLANE), parse("-log(y)")
    cross = dirichlet_form_quadrature(ops, f, phi, lam1)["cross"]
    cg = assembly.spla.cg
    monkeypatch.setattr(
        assembly.spla, "cg", lambda A, b, **kw: (spla.spsolve(A.tocsc(), b), 0)
    )
    lu_cross = dirichlet_form_quadrature(ops, f, phi, lam1)["cross"]
    assert abs(cross - lu_cross) <= 1e-12 * lam1
    monkeypatch.setattr(
        assembly.spla, "cg", lambda A, b, **kw: cg(A, b, **{**kw, "maxiter": 1})
    )
    with pytest.raises(AssemblyError, match=(
        r"CG on the vertex mass matrix of dimension 289 did not reach rtol "
        r"1e-14 for the cross term \(info 1\)"
    )):
        dirichlet_form_quadrature(ops, f, phi, lam1)


def rectangle_mode(metric, y0=1, y1=2):
    """A resolution-4 rectangle [0, 1] x [y0, y1], the Whitney operators
    of ``metric`` on it and their first Dirichlet mode."""
    mesh = triangulate(DomainSpec.rectangle(0, 1, y0, y1, 4))
    return (whitney(mesh, metric), *first_dirichlet_mode(mesh, metric))


def test_dirichlet_form_rejects_non_unit_gradient():
    # alone, and before the normalization refusal when phi fails it too
    one, phi, lam1 = rectangle_mode(HALF_PLANE)
    for scale in (1.0, 3.0):
        with pytest.raises(AssemblyError) as caught:
            dirichlet_form_quadrature(one, parse("x"), scale * phi, lam1)
        assert str(caught.value) == (
            "distance function is not unit-gradient (max deviation 3.000e+00)"
        )


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec.rectangle(0, 1, 1, 2, 5),
        DomainSpec.periodic_band(-1, 1, 6),
        DomainSpec.disk(0, 0, 1, 5),
        DomainSpec.annulus(0, 0, 1, 2, 5),
    ],
    ids=["rectangle", "band", "disk", "annulus"],
)
def test_edge_representatives_match_row_unique(domain):
    # reference: the first raw pair of each logical edge by a row-wise unique
    for mesh in (triangulate(domain), refine(triangulate(domain))):
        raw = np.concatenate(
            [mesh.tris[:, [a, b]] for a, b in ((0, 1), (1, 2), (2, 0))]
        )
        logical = mesh.raw_to_logical[raw]
        flip = logical[:, 0] > logical[:, 1]
        raw = np.where(flip[:, None], raw[:, ::-1], raw)
        logical = np.where(flip[:, None], logical[:, ::-1], logical)
        edges, first = np.unique(logical, axis=0, return_index=True)
        a, b = _edge_representatives(mesh)
        assert np.array_equal(a, raw[first, 0])
        assert np.array_equal(b, raw[first, 1])
        assert np.array_equal(edges, mesh.edges)


@pytest.mark.parametrize(
    "domain,metric,f",
    [
        (DomainSpec.rectangle(0, 1, 1, 2, 6), HALF_PLANE, "-log(y)"),
        (DomainSpec.periodic_band(-1, 1, 6), collar_metric(), "r"),
    ],
    ids=["rectangle", "band"],
)
def test_dirichlet_form_builds_chart_data_once(domain, metric, f, monkeypatch):
    # the Whitney masses are the caller's: the quadrature assembles none and
    # walks the faces once (one block here), for its integrands
    mesh = triangulate(domain)
    phi, lam1 = first_dirichlet_mode(mesh, metric)
    f = parse(f)
    one = whitney(mesh, metric)
    chart_data = assembly._chart_data
    calls = []

    def counted_chart_data(*args):
        calls.append(("chart data", args[0]))
        return chart_data(*args)

    monkeypatch.setattr(assembly, "_chart_data", counted_chart_data)
    monkeypatch.setattr(assembly, "assemble_oneform", _must_not_assemble)
    got = dirichlet_form_quadrature(one, f, phi, lam1)
    assert calls == [("chart data", mesh)]
    assert set(got) == {"alpha_nu", "alpha_star_nu", "cross", "dphi_norm2"}


def test_dirichlet_form_rejects_unnormalized_phi():
    one, phi, lam1 = rectangle_mode(HALF_PLANE)
    phi = 3.0 * phi
    with pytest.raises(AssemblyError) as caught:
        dirichlet_form_quadrature(one, parse("-log(y)"), phi, lam1)
    norm = float(phi @ (one.scalar.mass @ phi))
    assert str(caught.value) == (
        f"phi is not M-normalized: phi'M phi = {norm!r} "
        f"(eigenvalue reference {lam1!r})"
    )


@pytest.mark.parametrize(
    "f,message",
    [
        ("-log(y)+log(x)", "log of a non-positive value"),
        # f is defined at x = 0, its x-derivative is not
        ("-log(y)+x*sqrt(x)", "division by zero"),
    ],
    ids=["f", "derivative"],
)
def test_dirichlet_form_refuses_a_domain_error_of_f(f, message):
    one, phi, lam1 = rectangle_mode(HALF_PLANE)
    with pytest.raises(ChartEvalError) as caught:
        dirichlet_form_quadrature(one, parse(f), phi, lam1)
    assert caught.value.source == "distance_function"
    assert str(caught.value) == f"f = {f}: {message}"


def test_dirichlet_form_refuses_a_domain_error_of_the_metric():
    # g22 is defined at x = 0 and so is f = x, unit-gradient; the x-derivative
    # of sqrt(g22) in Lap f divides by zero at the midpoints on x = 0
    metric = builtin_metric("general", {
        "g11": "1", "g12": "0", "g22": "1 + sqrt(x)^3", "vars": ["x", "y"],
        "validity": [0.0, 10.0, -10.0, 10.0],
    })
    one, phi, lam1 = rectangle_mode(metric, 0, 1)
    with pytest.raises(ChartEvalError) as caught:
        dirichlet_form_quadrature(one, parse("x"), phi, lam1)
    assert caught.value.source == "metric"
    assert str(caught.value) == (
        "division by zero in the metric's terms, where f is defined"
    )
