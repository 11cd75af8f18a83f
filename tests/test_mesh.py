import itertools

import numpy as np
import pytest

from specdesc.errors import DataError, MeshValidationError, ParseError
from specdesc.mesh import (
    TriangleMesh,
    _component_count,
    _fps,
    farthest_point_sample,
    geodesic_distance_fields,
    intrinsic_diameter,
    load_mesh,
    save_coff,
    save_off,
)
from specdesc.synth import (
    capsule,
    grid_mesh,
    icosphere,
    jitter,
    load_index_map,
    multi_sphere,
    punch_holes,
    save_index_map,
)

TETRA_OFF = """OFF
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def tetrahedron():
    return TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
    )


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 4
    assert mesh.n_vertices - len(mesh.edges) + mesh.n_faces == 2


def test_load_obj_one_based(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                    "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n")
    mesh = load_mesh(path)
    assert mesh.n_vertices == 4
    assert mesh.faces.min() == 0


def test_load_obj_zero_index_is_parse_error(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_load_obj_ignores_other_statements(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("# comment\nvt 0 0\nvn 0 0 1\nusemtl m\n"
                    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                    "f 1/1/1 3/1/1 2/1/1\nf 1 2 4\nf 1 4 3\nf 2 3 4\n")
    assert load_mesh(path).n_faces == 4


def test_load_icosphere_euler_formula(tmp_path):
    # 4-1 subdivision: 12 -> 42 -> 162 -> 642 -> 2562 vertices
    mesh = icosphere(4)
    path = tmp_path / "sphere.off"
    save_off(mesh, path)
    loaded = load_mesh(path)
    assert loaded.n_vertices == 2562
    assert loaded.n_vertices - len(loaded.edges) + loaded.n_faces == 2
    np.testing.assert_array_equal(loaded.vertices, mesh.vertices)


def test_off_missing_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_off_non_triangle_face(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_off_negative_counts(tmp_path):
    path = tmp_path / "neg.off"
    path.write_text("OFF\n-3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError, match="malformed OFF counts line"):
        load_mesh(path)


@pytest.mark.parametrize("suffix", ["off", "obj"])
def test_non_utf8_mesh_is_parse_error(tmp_path, suffix):
    path = tmp_path / f"latin1.{suffix}"
    path.write_bytes(TETRA_OFF.replace("OFF", "OFF # caf\xe9").encode("latin-1"))
    with pytest.raises(ParseError, match=f"latin1.{suffix}: .*not UTF-8"):
        load_mesh(path)


def test_unknown_format(tmp_path):
    path = tmp_path / "mesh.ply"
    path.write_text("ply\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_missing_file():
    with pytest.raises(DataError):
        load_mesh("/nonexistent/mesh.off")


def test_coff_export_roundtrip_colors(tmp_path):
    mesh = tetrahedron()
    colors = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=float)
    path = tmp_path / "colored.off"
    save_coff(mesh, colors, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "COFF"
    assert lines[2].endswith("0 0 0 255")
    assert lines[3].endswith("255 0 0 255")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_non_finite_coordinate(bad):
    with pytest.raises(MeshValidationError, match="vertex 1 has a non-finite coordinate"):
        TriangleMesh([[0, 0, 0], [1, bad, 0], [0, 1, 0]], [[0, 1, 2]])


def test_validation_bad_index():
    with pytest.raises(MeshValidationError, match="face 0"):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 9]])


def test_validation_repeated_index():
    with pytest.raises(MeshValidationError, match="repeated"):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_validation_degenerate_face():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.0, 0.0]]
    faces = [[0, 1, 2], [0, 1, 3]]  # second face is exactly collinear
    with pytest.raises(MeshValidationError, match="degenerate"):
        TriangleMesh(verts, faces)


def test_validation_non_manifold_edge():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]  # edge (0,1) in three faces
    with pytest.raises(MeshValidationError, match="more than two faces"):
        TriangleMesh(verts, faces)


def test_validation_disconnected():
    a = tetrahedron()
    verts = np.vstack([a.vertices, a.vertices + 10.0])
    faces = np.vstack([a.faces, a.faces + 4])
    with pytest.raises(MeshValidationError,
                       match="^mesh has 2 connected components; expected a single one$"):
        TriangleMesh(verts, faces)


def test_component_count_matches_csgraph():
    from scipy import sparse
    from scipy.sparse import csgraph

    rng = np.random.default_rng(6)
    graphs = []
    for _ in range(200):
        nv = int(rng.integers(1, 60))
        edges = rng.integers(0, nv, size=(int(rng.integers(0, 90)), 2))
        graphs.append((nv, edges[edges[:, 0] != edges[:, 1]]))
    # three tetrahedra whose vertex ids are shuffled among each other
    perm = rng.permutation(12)
    graphs.append((12, perm[np.vstack([tetrahedron().edges + 4 * k for k in range(3)])]))
    for nv, edges in graphs:
        graph = sparse.coo_matrix((np.ones(len(edges)), tuple(edges.T)), shape=(nv, nv))
        expected, _ = csgraph.connected_components(graph, directed=False)
        assert _component_count(nv, edges) == expected


def test_validation_isolated_vertex():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]
    with pytest.raises(MeshValidationError, match="no face"):
        TriangleMesh(verts, [[0, 1, 2]])


def boundary_vertices(mesh):
    """Vertices incident to an edge with a single face, from the edge table."""
    edges, counts = mesh._edge_table
    return np.unique(edges[counts == 1])


def test_boundary_flags():
    grid = grid_mesh(3)
    closed = icosphere(1)
    assert len(boundary_vertices(grid)) == 12  # 4x4 grid: all but the 4 interior
    assert len(boundary_vertices(closed)) == 0


@pytest.mark.parametrize("mesh", [grid_mesh(5), icosphere(2)], ids=["grid", "sphere"])
def test_edge_table_matches_rowwise_unique(mesh):
    # reference: row-wise unique of the sorted half-edges, in face-shuffled order
    faces = mesh.faces[np.random.default_rng(4).permutation(mesh.n_faces)]
    shuffled = TriangleMesh(mesh.vertices, faces)
    half = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, counts = np.unique(half, axis=0, return_counts=True)
    np.testing.assert_array_equal(shuffled.edges, edges)
    np.testing.assert_array_equal(shuffled._edge_table[1], counts)
    np.testing.assert_array_equal(boundary_vertices(shuffled), np.unique(edges[counts == 1]))


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_grid_axis_distance_exact():
    mesh = grid_mesh(3, width=3.0, height=3.0)  # unit cells
    d = geodesic_distance_fields(mesh, [0])[0]
    assert d[3] == 3.0  # corner (3, 0): straight edge path
    assert d[0] == 0.0


def test_geodesic_source_out_of_range():
    with pytest.raises(DataError):
        geodesic_distance_fields(tetrahedron(), [4])


def test_icosphere_antipodal_distance(ico4):
    # the icosphere is centrally symmetric so the exact antipode exists
    j = int(np.argmin(np.linalg.norm(ico4.vertices + ico4.vertices[0], axis=1)))
    d = geodesic_distance_fields(ico4, [0])[0][j]
    assert np.pi * 0.95 <= d <= np.pi * 1.10


def test_triangle_inequality_along_edges(ico4):
    d = geodesic_distance_fields(ico4, [17])[0]
    edges = ico4.edges
    lengths = ico4.edge_lengths
    slack = d[edges[:, 0]] + lengths - d[edges[:, 1]]
    assert slack.min() >= -1e-9 * d.max()


def test_dijkstra_invariant_under_face_permutation(ico4):
    rng = np.random.default_rng(11)
    perm = rng.permutation(ico4.n_faces)
    shuffled = TriangleMesh(ico4.vertices.copy(), ico4.faces[perm], validate=False)
    d0 = geodesic_distance_fields(ico4, [5])[0]
    d1 = geodesic_distance_fields(shuffled, [5])[0]
    np.testing.assert_array_equal(d0, d1)


def test_geodesic_distance_fields_batched(ico4):
    batch = geodesic_distance_fields(ico4, [0, 7])
    np.testing.assert_array_equal(batch[0], geodesic_distance_fields(ico4, [0])[0])
    np.testing.assert_array_equal(batch[1], geodesic_distance_fields(ico4, [7])[0])


def _search_meshes():
    rng = np.random.default_rng(8)
    blob = multi_sphere(n_seg=24, n_rows=25)
    holed, _ = punch_holes(blob.mesh(), n_holes=2, radius=0.15, rng=rng)
    return {"grid": grid_mesh(5, 4, width=2.0, height=1.5), "icosphere": icosphere(3),
            "holed": holed, "jittered": jitter(capsule().mesh(), 0.01, rng),
            "decimated": blob.decimated()[0].mesh()}


@pytest.mark.parametrize("name, mesh", _search_meshes().items())
def test_directed_search_equals_undirected(name, mesh):
    # the edge graph holds both directions of every edge with one weight, so
    # the directed search needs no transpose and gives the same bits
    from scipy.sparse import csgraph

    sources = np.random.default_rng(9).choice(mesh.n_vertices, size=12, replace=False)
    full = csgraph.dijkstra(mesh._edge_graph, directed=False, indices=sources)
    limit = float(np.median(full))
    for bound in (np.inf, limit):
        expected = csgraph.dijkstra(mesh._edge_graph, directed=False, indices=sources,
                                    limit=bound)
        got = geodesic_distance_fields(mesh, sources, limit=bound)
        assert got.tobytes() == expected.tobytes()
    assert np.isinf(got).any() and np.isfinite(got).any()


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------


def test_intrinsic_diameter_icosphere(ico4):
    diam = intrinsic_diameter(ico4, 50)
    assert abs(diam - np.pi) <= 0.10 * np.pi


def test_intrinsic_diameter_two_samples_tetrahedron():
    mesh = tetrahedron()
    diam = intrinsic_diameter(mesh, 2)
    # FPS picks vertex 0 and its farthest vertex; check exhaustively
    fields = geodesic_distance_fields(mesh, np.arange(4))
    far = int(np.argmax(fields[0]))
    assert diam == fields[0][far]


def test_intrinsic_diameter_all_samples_exhaustive():
    mesh = grid_mesh(4)
    diam = intrinsic_diameter(mesh, mesh.n_vertices)
    fields = geodesic_distance_fields(mesh, np.arange(mesh.n_vertices))
    assert diam == pytest.approx(fields.max(), abs=0.0)


def test_intrinsic_diameter_monotone_in_samples(ico4):
    values = [intrinsic_diameter(ico4, s) for s in (2, 5, 10, 20)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_intrinsic_diameter_needs_two_samples():
    with pytest.raises(DataError):
        intrinsic_diameter(tetrahedron(), 1)


# ---------------------------------------------------------------------------
# farthest point sampling
# ---------------------------------------------------------------------------


def geodesic_fps(mesh, k):
    """The edge-graph farthest point sampling of `intrinsic_diameter`."""
    return _fps(lambda v: geodesic_distance_fields(mesh, [v])[0], k)[0]


def test_fps_seed_rule():
    assert farthest_point_sample(tetrahedron().vertices, 1).tolist() == [0]
    assert geodesic_fps(tetrahedron(), 1).tolist() == [0]


def test_fps_full_permutation():
    sel = geodesic_fps(grid_mesh(3), 16)
    assert sorted(sel.tolist()) == list(range(16))


def test_fps_deterministic(ico4):
    a = geodesic_fps(ico4, 9)
    b = geodesic_fps(ico4, 9)
    np.testing.assert_array_equal(a, b)


def test_fps_icosphere_spread(ico4):
    sel = geodesic_fps(ico4, 4)
    fields = geodesic_distance_fields(ico4, sel)
    pair = fields[:, sel]
    np.fill_diagonal(pair, np.inf)
    assert pair.min() >= 1.5


def test_fps_within_factor_two_of_optimal_exhaustive():
    # 42-vertex icosphere: the optimal 4-subset dispersion is enumerable
    mesh = icosphere(1)
    fields = geodesic_distance_fields(mesh, np.arange(mesh.n_vertices))
    sel = geodesic_fps(mesh, 4)
    pair = fields[np.ix_(sel, sel)]
    np.fill_diagonal(pair, np.inf)
    achieved = pair.min()
    best = 0.0
    for subset in itertools.combinations(range(mesh.n_vertices), 4):
        sub = fields[np.ix_(subset, subset)]
        np.fill_diagonal(sub, np.inf)
        best = max(best, sub.min())
    assert achieved >= best / 2.0


def test_fps_descriptor_space():
    mesh = grid_mesh(3)
    field = mesh.vertices[:, :1]  # 1-d descriptor = x coordinate
    sel = farthest_point_sample(field, 2)
    assert sel[0] == 0
    assert field[sel[1], 0] == field[:, 0].max()


def test_fps_k_out_of_range():
    with pytest.raises(DataError):
        farthest_point_sample(tetrahedron().vertices, 0)
    with pytest.raises(DataError):
        farthest_point_sample(tetrahedron().vertices, 5)


# ---------------------------------------------------------------------------
# correspondence maps
# ---------------------------------------------------------------------------


def test_correspondence_validation(tmp_path):
    path = tmp_path / "shape.corr"
    save_index_map(np.array([0, 1, 5]), path, "corr")
    load_index_map(path, "corr", 3, 6)
    with pytest.raises(DataError, match="entry 2 references vertex 5 outside \\[-1, 5\\)"):
        load_index_map(path, "corr", 3, 5)


def test_correspondence_allows_unmapped(tmp_path):
    path = tmp_path / "shape.corr"
    save_index_map(np.array([2, -1, 0]), path, "corr")
    load_index_map(path, "corr", 3, 3)
