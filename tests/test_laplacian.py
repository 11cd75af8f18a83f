import hashlib
import os
import struct

import numpy as np
import pytest
from scipy.linalg import eigh

from conftest import grid_mesh
from specdesc.container import output_dir
from specdesc.errors import DataError
from specdesc.laplacian import (
    CLUSTER_REL_GAP,
    DENSE_SOLVER_MAX_VERTICES,
    MASS_MODES,
    Spectrum,
    _arpack_pairs,
    _dense_pairs,
    assemble_fem,
    compute_spectrum,
    load_spectrum,
    save_spectrum,
)
from specdesc.descriptors import (
    FrequencyBasis,
    ResponseModel,
    save_descriptor_binary,
    save_response_model,
    shape_dna_field,
)
from specdesc.evaluation import emit_report
from specdesc.mesh import TriangleMesh, save_off
from specdesc.synth import icosphere

SPHERE_CLUSTERS = np.array([0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7)


def right_triangle():
    return TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def rotated(mesh, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return TriangleMesh(mesh.vertices @ q.T + [0.3, -1.2, 2.5], mesh.faces)


def heron_area(mesh):
    """Independent face-area oracle from edge lengths only."""
    v = mesh.vertices
    f = mesh.faces
    a = np.linalg.norm(v[f[:, 0]] - v[f[:, 1]], axis=1)
    b = np.linalg.norm(v[f[:, 1]] - v[f[:, 2]], axis=1)
    c = np.linalg.norm(v[f[:, 2]] - v[f[:, 0]], axis=1)
    s = (a + b + c) / 2
    return np.sqrt(s * (s - a) * (s - b) * (s - c)).sum()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_right_triangle_stiffness_by_hand():
    op = assemble_fem(right_triangle())
    s = op.stiffness.toarray()
    # hypotenuse (1,2) is opposite the right angle: weight 0; legs are
    # opposite 45-degree angles: -cot(45)/2 = -1/2
    assert s[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert s[0, 1] == pytest.approx(-0.5, abs=1e-14)
    assert s[0, 2] == pytest.approx(-0.5, abs=1e-14)
    np.testing.assert_allclose(s, s.T, atol=1e-15)
    np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-14)


def test_right_triangle_lumped_mass():
    op = assemble_fem(right_triangle())
    np.testing.assert_allclose(op.mass.diagonal(), 0.5 / 3, rtol=1e-14)


def test_constant_in_kernel(ico4_operator):
    ones = np.ones(ico4_operator.n_vertices)
    scale = np.abs(ico4_operator.stiffness.diagonal()).max()
    assert np.abs(ico4_operator.stiffness @ ones).max() <= 1e-9 * scale


def test_lumped_mass_equals_area(ico4, ico4_operator):
    total = ico4_operator.mass.diagonal().sum()
    assert total == pytest.approx(heron_area(ico4), rel=1e-9)
    assert total == pytest.approx(4 * np.pi, rel=2e-3)  # mesh inscribes the sphere


def test_consistent_mass_total_area(ico4):
    op = assemble_fem(ico4, mass_mode="consistent")
    total = op.mass.sum()
    assert total == pytest.approx(heron_area(ico4), rel=1e-9)


def test_stiffness_symmetric(ico4_operator):
    diff = (ico4_operator.stiffness - ico4_operator.stiffness.T)
    scale = np.abs(ico4_operator.stiffness.data).max()
    assert np.abs(diff.data).max() <= 1e-12 * scale if diff.nnz else True


def test_bad_mass_mode(ico4):
    with pytest.raises(DataError):
        assemble_fem(ico4, mass_mode="diagonal")


def test_near_degenerate_clamped_with_warning():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, -1e-11, 0]]
    faces = [[0, 1, 2], [0, 3, 1]]  # second triangle is a sliver
    mesh = TriangleMesh(verts, faces)
    with pytest.warns(RuntimeWarning, match="clamped"):
        op = assemble_fem(mesh)
    assert np.isfinite(op.stiffness.data).all()
    assert np.abs(op.stiffness.data).max() <= 1.5e8


def test_all_degenerate_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0.5, 1e-11, 0]]
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    with pytest.raises(DataError, match="degenerate"):
        assemble_fem(mesh)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_sphere_spectrum_matches_l_l_plus_1(ico4_spectrum):
    got = ico4_spectrum.eigenvalues[:16]
    assert abs(got[0]) <= 1e-8 * got[1]
    rel = np.abs(got[1:] - SPHERE_CLUSTERS[1:]) / SPHERE_CLUSTERS[1:]
    assert rel.max() <= 0.03


def test_grid_neumann_spectrum(grid30_spectrum):
    target = np.array([0.0, np.pi**2, np.pi**2, 2 * np.pi**2])
    got = grid30_spectrum.eigenvalues[:4]
    assert abs(got[0]) <= 1e-8 * got[1]
    rel = np.abs(got[1:] - target[1:]) / target[1:]
    assert rel.max() <= 0.03


def test_single_pair_is_constant_mode(ico4_operator):
    spec = compute_spectrum(ico4_operator, 1)
    phi = spec.eigenfunctions[:, 0]
    assert abs(spec.eigenvalues[0]) <= 1e-10
    assert np.std(phi) / abs(np.mean(phi)) < 1e-4


def test_mass_orthonormality(ico4_operator, ico4_spectrum):
    gram = ico4_spectrum.eigenfunctions.T @ (
        ico4_operator.mass @ ico4_spectrum.eigenfunctions
    )
    assert np.abs(gram - np.eye(len(ico4_spectrum))).max() <= 1e-6


def test_generalized_residuals(ico4, ico4_spectrum):
    op = assemble_fem(ico4)
    funcs = ico4_spectrum.eigenfunctions
    vals = ico4_spectrum.eigenvalues
    res = op.stiffness @ funcs - op.mass @ funcs * vals[None, :]
    img = op.stiffness @ funcs
    for k in range(1, len(vals)):  # null mode checked by its own rule
        assert np.linalg.norm(res[:, k]) <= 1e-6 * np.linalg.norm(img[:, k])


def test_consistent_mass_spectrum_matches_analytic():
    spec = compute_spectrum(assemble_fem(grid_mesh(30), mass_mode="consistent"), 4)
    target = np.array([np.pi**2, np.pi**2, 2 * np.pi**2])
    rel = np.abs(spec.eigenvalues[1:4] - target) / target
    assert rel.max() <= 0.03


def test_consistent_mass_arpack_path():
    op = assemble_fem(icosphere(3), mass_mode="consistent")
    spec = compute_spectrum(op, 4)
    np.testing.assert_allclose(spec.eigenvalues[1:4], 2.0, rtol=0.03)
    gram = spec.eigenfunctions.T @ (op.mass @ spec.eigenfunctions)
    assert np.abs(gram - np.eye(len(spec))).max() <= 1e-6


def test_arpack_matches_dense_oracle():
    mesh = icosphere(3)  # 642 vertices: ARPACK path
    op = assemble_fem(mesh)
    spec = compute_spectrum(op, 16)
    d = op.mass.diagonal()
    sym = op.stiffness.toarray() / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    vals = eigh(0.5 * (sym + sym.T), eigvals_only=True)[: len(spec)]
    np.testing.assert_allclose(spec.eigenvalues, vals, atol=1e-8 * vals[-1])


def test_cluster_not_split_at_truncation(ico4_operator):
    # requesting 3 pairs would cut inside the exactly-degenerate triple at
    # eigenvalue 2; the truncation widens to keep the cluster whole
    spec = compute_spectrum(ico4_operator, 3)
    assert len(spec) == 4
    gaps = np.diff(spec.eigenvalues[1:4]) / spec.eigenvalues[3]
    assert gaps.max() < 1e-8


def cluster_sums(vals, funcs):
    """Per-vertex sum of squared eigenfunctions over each cluster of
    numerically equal eigenvalues (the truncation rule's gap): independent of
    the basis a solver picks inside a degenerate eigenspace."""
    scale = np.maximum(np.maximum(np.abs(vals[1:]), np.abs(vals[:-1])), 1e-300)
    edges = [0, *(np.flatnonzero(np.diff(vals) / scale >= CLUSTER_REL_GAP) + 1), len(vals)]
    return np.stack([(funcs[:, a:b] ** 2).sum(axis=1) for a, b in zip(edges, edges[1:])])


@pytest.mark.parametrize("count", [2, 6, 10, 14, 18, 27])  # each inside a cluster
def test_prefix_of_longer_solve_matches_direct_solve(ico4_operator, ico4_spectrum, count):
    direct = compute_spectrum(ico4_operator, count)
    prefix = ico4_spectrum.prefix(count)
    assert len(prefix) == len(direct) > count
    vals = ico4_spectrum.eigenvalues
    cut = len(prefix)
    assert (vals[cut] - vals[cut - 1]) / vals[cut] >= CLUSTER_REL_GAP
    np.testing.assert_allclose(prefix.eigenvalues, direct.eigenvalues, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        cluster_sums(prefix.eigenvalues, prefix.eigenfunctions),
        cluster_sums(direct.eigenvalues, direct.eigenfunctions), rtol=0, atol=1e-10,
    )


def test_prefix_needs_room_for_the_cluster_rule(ico4_spectrum):
    n = len(ico4_spectrum)
    assert ico4_spectrum.prefix(n - 5) is not None
    assert ico4_spectrum.prefix(n - 4) is None
    full = compute_spectrum(assemble_fem(right_triangle()), 3)
    assert full.prefix(3) is full and full.prefix(10) is full  # the whole spectrum


@pytest.mark.parametrize("mass_mode", MASS_MODES)
def test_dense_subset_matches_full_eigh(mass_mode):
    op = assemble_fem(icosphere(3), mass_mode=mass_mode)
    stiff = op.stiffness.toarray()
    # reference: every pair of the dense pencil, then truncated
    if mass_mode == "lumped":
        inv_sqrt = 1.0 / np.sqrt(op.mass.diagonal())
        sym = inv_sqrt[:, None] * stiff * inv_sqrt[None, :]
        full_vals, vecs = eigh(0.5 * (sym + sym.T))
        full_funcs = inv_sqrt[:, None] * vecs
    else:
        full_vals, full_funcs = eigh(stiff, op.mass.toarray())
    k = 25  # l = 0..4 on the sphere: a cut between clusters
    assert (full_vals[k] - full_vals[k - 1]) / full_vals[k] >= CLUSTER_REL_GAP
    vals, funcs = _dense_pairs(op, k)
    assert funcs.shape == (op.n_vertices, k)
    np.testing.assert_allclose(vals, full_vals[:k], rtol=0, atol=1e-10)
    np.testing.assert_allclose(cluster_sums(vals, funcs),
                               cluster_sums(full_vals[:k], full_funcs[:, :k]),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("mass_mode", MASS_MODES)
def test_lanczos_matches_full_dense_solve(mass_mode):
    # lumped mass D runs Lanczos on the standard form D^-1/2 K D^-1/2,
    # consistent mass M on the pencil (K, M); the oracle is every pair of
    # the dense generalized pencil
    op = assemble_fem(icosphere(3), mass_mode=mass_mode)
    assert op.n_vertices > DENSE_SOLVER_MAX_VERTICES  # the ARPACK path
    full_vals, full_funcs = eigh(op.stiffness.toarray(), op.mass.toarray())
    k = 25  # l = 0..4 on the sphere: a cut between clusters
    assert (full_vals[k] - full_vals[k - 1]) / full_vals[k] >= CLUSTER_REL_GAP
    vals, funcs = _arpack_pairs(op, k)
    np.testing.assert_allclose(vals, full_vals[:k], rtol=1e-10, atol=1e-10 * full_vals[k - 1])
    np.testing.assert_allclose(cluster_sums(vals, funcs),
                               cluster_sums(full_vals[:k], full_funcs[:, :k]),
                               rtol=0, atol=1e-10)
    # raw solver output, before compute_spectrum's polish
    gram = funcs.T @ (op.mass @ funcs)
    assert np.abs(gram - np.eye(k)).max() <= 1e-10


def test_count_out_of_range(ico4_operator):
    with pytest.raises(DataError):
        compute_spectrum(ico4_operator, 0)
    with pytest.raises(DataError):
        compute_spectrum(ico4_operator, ico4_operator.n_vertices + 1)


def test_weyl_growth_on_sphere(ico4, ico4_spectrum):
    area = heron_area(ico4)
    nu_100 = ico4_spectrum.eigenvalues[99]
    ratio = 100 / (area * nu_100 / (4 * np.pi))
    assert abs(ratio - 1.0) <= 0.15


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_rigid_motion_invariance(ico4, ico4_spectrum):
    spec2 = compute_spectrum(assemble_fem(rotated(ico4)), 16)
    a, b = ico4_spectrum.eigenvalues[:16], spec2.eigenvalues[:16]
    assert np.abs(a[1:] - b[1:]).max() <= 1e-9 * np.abs(a[1:]).max()


def test_scaling_covariance(ico4, ico4_spectrum):
    c = 2.5
    scaled = TriangleMesh(ico4.vertices * c, ico4.faces)
    spec2 = compute_spectrum(assemble_fem(scaled), 16)
    a = ico4_spectrum.eigenvalues[1:16]
    b = spec2.eigenvalues[1:16] * c**2
    assert np.abs(a - b).max() <= 1e-9 * a.max()


# ---------------------------------------------------------------------------
# shape DNA (the leading eigenvalues, broadcast to every vertex)
# ---------------------------------------------------------------------------


def shape_dna(spectrum, length):
    return shape_dna_field(spectrum, length)[0]


def test_shape_dna_sphere(ico4_spectrum):
    dna = shape_dna(ico4_spectrum, 4)
    assert abs(dna[0]) < 1e-8 * dna[1]
    np.testing.assert_allclose(dna[1:], 2.0, rtol=0.03)


def test_shape_dna_empty(ico4_spectrum):
    # a per-vertex field needs at least one column
    with pytest.raises(DataError):
        shape_dna_field(ico4_spectrum, 0)


def test_shape_dna_too_long(ico4_spectrum):
    with pytest.raises(DataError):
        shape_dna_field(ico4_spectrum, len(ico4_spectrum) + 1)


def test_shape_dna_rigid_invariance(ico4, ico4_spectrum):
    spec2 = compute_spectrum(assemble_fem(rotated(ico4, seed=5)), 16)
    a, b = shape_dna(ico4_spectrum, 16), shape_dna(spec2, 16)
    assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()


# ---------------------------------------------------------------------------
# cache file
# ---------------------------------------------------------------------------


def test_spectrum_cache_roundtrip(tmp_path, ico4_spectrum):
    path = tmp_path / "sphere.spec"
    mesh_hash = hashlib.sha256(b"sphere mesh file").hexdigest()
    save_spectrum(ico4_spectrum, mesh_hash, path)
    loaded = load_spectrum(path, mesh_hash, "lumped")
    np.testing.assert_array_equal(loaded.eigenvalues, ico4_spectrum.eigenvalues)
    np.testing.assert_array_equal(loaded.eigenfunctions, ico4_spectrum.eigenfunctions)
    assert loaded.mass_mode == ico4_spectrum.mass_mode


def test_spectrum_cache_golden_layout(tmp_path):
    # README layout: magic, <IIB header (V, s, mass mode index), 32-byte mesh
    # hash, s eigenvalues, V x s eigenfunctions row-major, all little-endian
    vals = np.array([0.0, 1.5])
    funcs = np.array([[0.25, -1.0], [2.0, 3.5], [-0.5, 4.0]])
    mesh_hash = "ab" * 32
    expected = (b"SDSPEC01" + struct.pack("<IIB", 3, 2, 1) + bytes.fromhex(mesh_hash)
                + struct.pack("<2d", *vals) + struct.pack("<6d", *funcs.ravel()))
    path = tmp_path / "tiny.spec"
    spectrum = Spectrum(eigenvalues=vals, eigenfunctions=funcs, mass_mode="consistent")
    save_spectrum(spectrum, mesh_hash, path)
    assert path.read_bytes() == expected
    loaded = load_spectrum(path, mesh_hash, "consistent")
    np.testing.assert_array_equal(loaded.eigenfunctions, funcs)
    assert loaded.mass_mode == "consistent"


def test_spectrum_cache_hash_mismatch(tmp_path, ico4_spectrum):
    path = tmp_path / "sphere.spec"
    save_spectrum(ico4_spectrum, hashlib.sha256(b"sphere mesh file").hexdigest(), path)
    with pytest.raises(DataError, match="different mesh"):
        load_spectrum(path, "0" * 64, "lumped")


@pytest.mark.parametrize("tag, mode", [(0, "consistent"), (1, "lumped"), (7, "lumped")])
def test_spectrum_cache_mass_mode_mismatch(tmp_path, tag, mode):
    # the mode tag must name the mode the caller asks for; any other is damage
    mesh_hash = "ab" * 32
    path = tmp_path / "odd.spec"
    path.write_bytes(b"SDSPEC01" + struct.pack("<IIB", 2, 1, tag) + bytes.fromhex(mesh_hash)
                     + struct.pack("<3d", 0.0, 1.0, 1.0))
    with pytest.raises(DataError, match=rf"is not {mode} \(mass mode tag {tag}\)"):
        load_spectrum(path, mesh_hash, mode)


def test_spectrum_cache_truncated(tmp_path, ico4_spectrum):
    path = tmp_path / "sphere.spec"
    mesh_hash = hashlib.sha256(b"sphere mesh file").hexdigest()
    save_spectrum(ico4_spectrum, mesh_hash, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_spectrum(path, mesh_hash, "lumped")


def test_interleaved_cache_writers_leave_a_loadable_entry(tmp_path, ico4_spectrum):
    path = tmp_path / "sphere.spec"
    mesh_hash = hashlib.sha256(b"sphere mesh file").hexdigest()
    short = ico4_spectrum.prefix(20)
    with output_dir(tmp_path) as stage:
        save_spectrum(ico4_spectrum, mesh_hash, stage / path.name)
        # a second writer of the same entry commits between this writer's
        # staging and its commit
        with output_dir(tmp_path) as other:
            save_spectrum(short, mesh_hash, other / path.name)
        seen = load_spectrum(path, mesh_hash, "lumped")
        np.testing.assert_array_equal(seen.eigenfunctions, short.eigenfunctions)
    final = load_spectrum(path, mesh_hash, "lumped")
    np.testing.assert_array_equal(final.eigenfunctions, ico4_spectrum.eigenfunctions)
    assert list(tmp_path.iterdir()) == [path]  # no staging directory left behind


def test_cache_entry_mode_follows_umask(tmp_path, ico4, ico4_spectrum):
    # a file gets the mode a plain open() gives, also when an output_dir
    # stages it in a directory that mkdtemp makes 0700
    model = ResponseModel(basis=FrequencyBasis(nu_max=10.0, m=4), coefficients=np.eye(4)[:2])
    old = os.umask(0o022)
    try:
        save_spectrum(ico4_spectrum, hashlib.sha256(b"sphere mesh file").hexdigest(),
                      tmp_path / "sphere.spec")
        save_descriptor_binary(ico4_spectrum.eigenfunctions[:, :3], "hks",
                               tmp_path / "sphere.hks.dsc")
        save_response_model(model, tmp_path / "model.json")
        with output_dir(tmp_path / "report") as stage:
            emit_report(stage, tables=[("table", ["a"], [[1]])])
        save_off(ico4, tmp_path / "sphere.off")
    finally:
        os.umask(old)
    written = ["sphere.spec", "sphere.hks.dsc", "model.json", "report/table.csv", "sphere.off"]
    modes = {name: oct((tmp_path / name).stat().st_mode & 0o777) for name in written}
    assert modes == dict.fromkeys(written, "0o644")


@pytest.mark.parametrize("nv, s", [(0, 0), (0, 3), (4, 0), (2, 3)])
def test_spectrum_cache_pair_count_outside_vertex_count(tmp_path, nv, s):
    # a well-formed entry whose pair count lies outside [1, V] is damage;
    # the header-only one (V = s = 0) is 49 bytes
    mesh_hash = "ab" * 32
    path = tmp_path / "odd.spec"
    path.write_bytes(b"SDSPEC01" + struct.pack("<IIB", nv, s, 0) + bytes.fromhex(mesh_hash)
                     + struct.pack(f"<{s + nv * s}d", *range(s + nv * s)))
    with pytest.raises(DataError, match=f"holds {s} pairs for {nv} vertices"):
        load_spectrum(path, mesh_hash, "lumped")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spectrum_cache_non_finite_eigenfunction(tmp_path, ico4_spectrum, value):
    funcs = ico4_spectrum.eigenfunctions.copy()
    funcs[7, 3] = value
    spectrum = Spectrum(eigenvalues=ico4_spectrum.eigenvalues, eigenfunctions=funcs,
                        mass_mode="lumped")
    path = tmp_path / "sphere.spec"
    mesh_hash = hashlib.sha256(b"sphere mesh file").hexdigest()
    save_spectrum(spectrum, mesh_hash, path)
    with pytest.raises(DataError, match="non-finite"):
        load_spectrum(path, mesh_hash, "lumped")
