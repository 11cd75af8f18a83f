import struct

import numpy as np
import pytest

from conftest import grid_mesh
from specdesc.descriptors import (
    FrequencyBasis,
    ResponseModel,
    apply_response,
    geometry_vectors,
    hks,
    hks_default_times,
    load_descriptor_binary,
    load_response_model,
    save_descriptor_binary,
    save_descriptor_csv,
    save_response_model,
    shape_dna_field,
    wks,
    wks_default_bands,
)
from specdesc.errors import DataError
from specdesc.evaluation import distance_maps
from specdesc.laplacian import Spectrum, assemble_fem, compute_spectrum
from specdesc.mesh import TriangleMesh
from specdesc.synth import icosphere


@pytest.fixture(scope="module")
def sphere_basis(ico4_spectrum):
    return FrequencyBasis(nu_max=float(ico4_spectrum.eigenvalues[-1]), m=150)


@pytest.fixture(scope="module")
def rect_spectrum():
    # incommensurate Neumann rectangle: simple, well-separated eigenvalues
    mesh = grid_mesh(28, 22, width=1.0, height=0.618)
    return compute_spectrum(assemble_fem(mesh), 8)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def test_partition_of_unity(sphere_basis):
    grid = np.linspace(0.0, sphere_basis.nu_max, 1234)
    design = sphere_basis.evaluate(grid)
    np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-9)
    assert design.min() >= 0.0


def test_basis_vanishes_above_cutoff(sphere_basis):
    out = sphere_basis.evaluate(
        [sphere_basis.nu_max * 1.000001, sphere_basis.nu_max + 10.0]
    )
    assert np.abs(out).max() == 0.0


def test_basis_support_bound(sphere_basis):
    # every function is zero beyond nu_max + one knot spacing (trivially,
    # since the clamped basis already vanishes above nu_max)
    spacing = sphere_basis.nu_max / (sphere_basis.m - 3)
    probe = sphere_basis.nu_max + spacing * np.array([1.0, 2.5])
    assert np.abs(sphere_basis.evaluate(probe)).max() == 0.0


@pytest.mark.parametrize("nu_max", [0.0, -1.0, np.inf, np.nan])
def test_basis_cutoff_must_be_positive_and_finite(nu_max):
    with pytest.raises(DataError, match="must be positive and finite"):
        FrequencyBasis(nu_max=nu_max, m=10)


@pytest.mark.parametrize("nu_max, m", [(118.0, 30), (1.0, 4), (57.3, 12), (1000.0, 50), (3.7, 7)])
def test_basis_equals_scipy_design_matrix(nu_max, m):
    from scipy.interpolate import BSpline

    basis = FrequencyBasis(nu_max=nu_max, m=m)
    rng = np.random.default_rng(m)
    nu = np.concatenate([
        rng.uniform(-1e-9, 1.2 * nu_max, 5000),  # tiny negatives and points above nu_max
        basis.knots,
        [0.0, nu_max, np.nextafter(nu_max, 0.0), np.nextafter(nu_max, np.inf)],
    ])
    expected = BSpline.design_matrix(np.clip(nu, 0.0, nu_max), basis.knots, 3).toarray()
    expected[nu > nu_max] = 0.0
    assert np.array_equal(basis.evaluate(nu), expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_basis_rejects_non_finite_frequencies(sphere_basis, bad):
    with pytest.raises(DataError, match="finite"):
        sphere_basis.evaluate([0.5, bad])


def test_basis_minimum_size():
    with pytest.raises(DataError):
        FrequencyBasis(nu_max=1.0, m=3)


def test_basis_negative_cutoff():
    with pytest.raises(DataError):
        FrequencyBasis(nu_max=0.0, m=8)


# ---------------------------------------------------------------------------
# heat kernel signature
# ---------------------------------------------------------------------------


def test_hks_long_time_limit(ico4_spectrum):
    area = 1.0 / ico4_spectrum.eigenfunctions[0, 0] ** 2  # phi_1^2 = 1/area
    t = 100.0 / ico4_spectrum.eigenvalues[1]
    field = hks(ico4_spectrum, [t])
    np.testing.assert_allclose(field[:, 0], 1.0 / area, rtol=0.01)


def test_hks_flat_grid_matches_plane_kernel():
    n = 40
    mesh = grid_mesh(n)
    spec = compute_spectrum(assemble_fem(mesh), mesh.n_vertices)
    t = 10.0 / n**2  # heat support a few edges wide, far from the boundary
    center = (n // 2) * (n + 1) + n // 2
    value = hks(spec, [t])[center, 0]
    assert value == pytest.approx(1.0 / (4 * np.pi * t), rel=0.05)


def test_hks_icosphere_matches_analytic_series(ico4_spectrum):
    t = 0.1
    ls = np.arange(0, 80)
    analytic = ((2 * ls + 1) * np.exp(-ls * (ls + 1) * t)).sum() / (4 * np.pi)
    got = hks(ico4_spectrum, [t])[:, 0]
    assert np.abs(got / analytic - 1.0).max() <= 0.05


def test_hks_monotone_in_time(ico4_spectrum):
    times = np.geomspace(0.05, 20.0, 12)
    values = hks(ico4_spectrum, times)
    assert (np.diff(values, axis=1) <= 1e-12).all()


def test_hks_rejects_bad_times(ico4_spectrum):
    with pytest.raises(DataError):
        hks(ico4_spectrum, [0.1, -1.0])


def test_hks_default_times_ladder(ico4_spectrum):
    times = hks_default_times(ico4_spectrum, 12)
    assert len(times) == 12
    assert times[0] == pytest.approx(4 * np.log(10) / ico4_spectrum.eigenvalues[-1])
    assert times[-1] == pytest.approx(4 * np.log(10) / ico4_spectrum.eigenvalues[1])
    assert (np.diff(times) > 0).all()


def test_hks_sign_flip_invariance(ico4_spectrum):
    flipped = Spectrum(
        eigenvalues=ico4_spectrum.eigenvalues,
        eigenfunctions=ico4_spectrum.eigenfunctions * -1.0,
        mass_mode=ico4_spectrum.mass_mode,
    )
    a = hks(ico4_spectrum, [0.2])
    b = hks(flipped, [0.2])
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# wave kernel signature
# ---------------------------------------------------------------------------


def test_wks_single_isolated_band_is_eigenfunction_squared(rect_spectrum):
    # the fifth eigenvalue of the incommensurate rectangle is isolated
    nu5 = rect_spectrum.eigenvalues[4]
    gaps = np.abs(np.log(rect_spectrum.eigenvalues[1:]) - np.log(nu5))
    assert np.sort(gaps)[1] > 0.05  # isolated at many band widths
    field = wks(rect_spectrum, [nu5], sigma=5e-3)
    expected = rect_spectrum.eigenfunctions[:, 4] ** 2
    cos = np.dot(field[:, 0], expected) / (
        np.linalg.norm(field[:, 0]) * np.linalg.norm(expected)
    )
    assert cos == pytest.approx(1.0, abs=1e-9)


def test_wks_band_above_spectrum_warns_and_zeroes(ico4_spectrum):
    top = ico4_spectrum.eigenvalues[-1]
    with pytest.warns(RuntimeWarning, match="no eigenvalue"):
        field = wks(ico4_spectrum, [top * 1e6], sigma=0.05)
    assert np.abs(field).max() == 0.0


def test_wks_sphere_degree_two_band(ico4_spectrum):
    # eigenfunction-addition over the degree-2 cluster is constant; the
    # normalized band weight makes the value 1 / (4 pi)
    field = wks(ico4_spectrum, [6.0], sigma=0.05)
    values = field[:, 0]
    assert values.std() / values.mean() < 0.05
    assert values.mean() == pytest.approx(1.0 / (4 * np.pi), rel=0.05)


def test_wks_band_locality(ico4_spectrum):
    energies, sigma = wks_default_bands(ico4_spectrum, 6)
    full = wks(ico4_spectrum, energies, sigma)
    target = 3
    keep = np.abs(np.log(ico4_spectrum.eigenvalues[1:]) - np.log(energies[target])) <= 4 * sigma
    pruned = Spectrum(
        eigenvalues=ico4_spectrum.eigenvalues[1:][keep],
        eigenfunctions=ico4_spectrum.eigenfunctions[:, 1:][:, keep],
        mass_mode=ico4_spectrum.mass_mode,
    )
    local = wks(pruned, [energies[target]], sigma)[:, 0]
    rel = np.abs(local - full[:, target]) / np.abs(full[:, target]).max()
    assert rel.max() < 1e-4


def test_wks_default_bands_inside_spectrum(ico4_spectrum):
    energies, sigma = wks_default_bands(ico4_spectrum, 12)
    assert len(energies) == 12
    assert sigma > 0
    assert energies[0] >= ico4_spectrum.eigenvalues[1]
    assert energies[-1] <= ico4_spectrum.eigenvalues[-1]


def test_wks_rejects_bad_inputs(ico4_spectrum):
    with pytest.raises(DataError):
        wks(ico4_spectrum, [-1.0], 0.1)
    with pytest.raises(DataError):
        wks(ico4_spectrum, [1.0], 0.0)


# ---------------------------------------------------------------------------
# geometry vectors and the parametric descriptor
# ---------------------------------------------------------------------------


def test_geometry_vector_partition_sum(ico4_spectrum, sphere_basis):
    gvecs = geometry_vectors(ico4_spectrum, sphere_basis)
    total = gvecs.sum(axis=1)
    expected = ico4_spectrum.squared().sum(axis=1)
    np.testing.assert_allclose(total, expected, atol=1e-9 * expected.max())


def test_geometry_vector_mass_weighted_sum(ico4_operator, ico4_spectrum, sphere_basis):
    # mass-orthonormality collapses the vertex sum onto the eigenvalue sum
    gvecs = geometry_vectors(ico4_spectrum, sphere_basis)
    weighted = ico4_operator.mass.diagonal() @ gvecs
    expected = sphere_basis.evaluate(ico4_spectrum.eigenvalues).sum(axis=0)
    np.testing.assert_allclose(weighted, expected, atol=1e-9 * expected.max())


def test_geometry_vectors_demand_bigger_spectrum(ico4_spectrum):
    basis = FrequencyBasis(nu_max=float(ico4_spectrum.eigenvalues[-1]) * 2, m=10)
    with pytest.raises(DataError, match="more eigenpairs"):
        geometry_vectors(ico4_spectrum, basis)


def test_geometry_vectors_rigid_invariance(ico4_spectrum):
    mesh = icosphere(2)
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = TriangleMesh(mesh.vertices @ q.T + 5.0, mesh.faces)
    spec_a = compute_spectrum(assemble_fem(mesh), 25)
    spec_b = compute_spectrum(assemble_fem(moved), 25)
    # cutoff in the wide spectral gap between the degree-3 and degree-4
    # clusters, so no eigenvalue sits on the knife edge of the basis support
    nu_max = 0.5 * (spec_a.eigenvalues[15] + spec_a.eigenvalues[16])
    basis = FrequencyBasis(nu_max=nu_max, m=12)
    ga = geometry_vectors(spec_a, basis)
    gb = geometry_vectors(spec_b, basis)
    assert np.abs(ga - gb).max() <= 1e-9 * np.abs(ga).max()


def test_apply_response_identity(ico4_spectrum, sphere_basis):
    gvecs = geometry_vectors(ico4_spectrum, sphere_basis)
    model = ResponseModel(basis=sphere_basis, coefficients=np.eye(sphere_basis.m))
    out = apply_response(gvecs, model)
    np.testing.assert_array_equal(out, gvecs)


def test_apply_response_zero(ico4_spectrum, sphere_basis):
    field = geometry_vectors(ico4_spectrum, sphere_basis)
    model = ResponseModel(basis=sphere_basis,
                          coefficients=np.zeros((3, sphere_basis.m)))
    assert np.abs(apply_response(field, model)).max() == 0.0


def test_apply_response_matches_direct_hks(ico4_spectrum, sphere_basis):
    # least-squares projection of the heat response onto the spline basis
    t = 0.05
    grid = np.linspace(0.0, sphere_basis.nu_max, 4000)
    design = sphere_basis.evaluate(grid)
    coef, *_ = np.linalg.lstsq(design, np.exp(-grid * t), rcond=None)
    model = ResponseModel(basis=sphere_basis, coefficients=coef[None, :])
    field = geometry_vectors(ico4_spectrum, sphere_basis)
    approx = apply_response(field, model)[:, 0]
    direct = hks(ico4_spectrum, [t])[:, 0]
    assert np.abs(approx / direct - 1.0).max() < 0.01


def test_apply_response_linearity(ico4_spectrum, sphere_basis):
    rng = np.random.default_rng(0)
    field = geometry_vectors(ico4_spectrum, sphere_basis)
    a = rng.standard_normal((4, sphere_basis.m))
    b = rng.standard_normal((4, sphere_basis.m))
    lhs = apply_response(
        field, ResponseModel(basis=sphere_basis, coefficients=2.0 * a - 0.5 * b)
    )
    rhs = (
        2.0 * apply_response(field, ResponseModel(sphere_basis, a))
        - 0.5 * apply_response(field, ResponseModel(sphere_basis, b))
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


def test_apply_response_dimension_mismatch(ico4_spectrum, sphere_basis):
    field = geometry_vectors(ico4_spectrum, sphere_basis)
    other = FrequencyBasis(nu_max=sphere_basis.nu_max, m=20)
    model = ResponseModel(basis=other, coefficients=np.zeros((2, 20)))
    with pytest.raises(DataError):
        apply_response(field, model)


# ---------------------------------------------------------------------------
# distances and the broadcast global descriptor
# ---------------------------------------------------------------------------


def descriptor_distance(p, q):
    """Raw Euclidean descriptor distance read off a distance map: a second
    row 1e3 away from `q` fixes the normalization peak."""
    q = np.asarray(q, dtype=np.float64)
    far = q + np.eye(q.size)[0] * 1e3
    return distance_maps([np.vstack([p, far])], q)[0][0] * 1e3


def test_distance_identical():
    assert descriptor_distance([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_distance_unit_vectors():
    assert descriptor_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(np.sqrt(2))


def test_distance_dimension_mismatch():
    with pytest.raises(DataError):
        distance_maps([np.array([[1.0, 2.0]])], [1, 2, 3])


def test_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p, q, r = rng.standard_normal((3, 6))
        assert descriptor_distance(p, r) <= (
            descriptor_distance(p, q) + descriptor_distance(q, r) + 1e-12
        )


def test_shape_dna_field_broadcast(ico4_spectrum):
    field = shape_dna_field(ico4_spectrum, 6)
    assert field.shape == (ico4_spectrum.n_vertices, 6)
    assert (field == field[0]).all()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_response_model_roundtrip(tmp_path, sphere_basis):
    rng = np.random.default_rng(3)
    model = ResponseModel(basis=sphere_basis,
                          coefficients=rng.standard_normal((5, sphere_basis.m)))
    path = tmp_path / "model.json"
    save_response_model(model, path)
    loaded = load_response_model(path)
    assert loaded.basis.m == model.basis.m
    assert loaded.basis.nu_max == model.basis.nu_max
    np.testing.assert_array_equal(loaded.coefficients, model.coefficients)


def test_response_model_bad_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_response_model(path)


def test_descriptor_binary_roundtrip(tmp_path, ico4_spectrum):
    field = hks(ico4_spectrum, [0.1, 1.0])
    path = tmp_path / "field.dsc"
    save_descriptor_binary(field, "hks", path)
    np.testing.assert_array_equal(load_descriptor_binary(path, "hks"), field)


def test_descriptor_binary_golden_layout(tmp_path):
    # README layout: magic, <IIB header (V, n, family name length), the family
    # name, then V x n little-endian float64 values row-major
    values = np.array([[1.0, -2.5], [3.25, 4.0], [0.0, 6.5]])
    expected = (b"SDDESC01" + struct.pack("<IIB", 3, 2, 3) + b"wks"
                + struct.pack("<6d", *values.ravel()))
    path = tmp_path / "tiny.dsc"
    save_descriptor_binary(values, "wks", path)
    assert path.read_bytes() == expected
    np.testing.assert_array_equal(load_descriptor_binary(path, "wks"), values)
    with pytest.raises(DataError, match=r"tiny.dsc: holds 'wks' descriptors, not 'hks'"):
        load_descriptor_binary(path, "hks")


def test_descriptor_binary_truncated(tmp_path, ico4_spectrum):
    path = tmp_path / "field.dsc"
    save_descriptor_binary(hks(ico4_spectrum, [0.1, 1.0]), "hks", path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_descriptor_binary(path, "hks")


def test_descriptor_csv_schema(tmp_path, ico4_spectrum):
    field = hks(ico4_spectrum, [0.1, 1.0])
    path = tmp_path / "field.csv"
    save_descriptor_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex,d0,d1"
    assert len(lines) == 1 + ico4_spectrum.n_vertices
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == field[0, 0]
