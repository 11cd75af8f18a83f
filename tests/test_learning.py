import hashlib
import tracemalloc

import numpy as np
import pytest

from specdesc.descriptors import FrequencyBasis, ResponseModel
from specdesc.errors import DataError, NumericalError
from specdesc.learning import (
    TAG_INVARIANCE,
    TRIPLET_CHUNK,
    CovarianceStats,
    PairIndices,
    ShapeSample,
    estimate_covariances,
    pair_distances,
    sample_pair_indices,
    solve_tradeoff,
    sweep_alpha,
    tradeoff_matrix,
)
from specdesc.learning import MAX_REF_RESAMPLES
from specdesc.mesh import geodesic_balls, geodesic_distance_fields
from specdesc.synth import grid_mesh, icosphere, multi_sphere


def pair_indices(rows, shape_sizes):
    """Untagged triplets with the given (3, N) anchor, positive and negative
    rows over shapes s0, s1, ... with the given row counts."""
    return PairIndices(
        tags=np.zeros(np.shape(rows)[1], dtype=np.uint8),
        shape_ids=[f"s{i}" for i in range(len(shape_sizes))],
        offsets=np.cumsum([0, *shape_sizes], dtype=np.int64),
        rows=np.asarray(rows, dtype=np.int32),
    )


def single_shape_indices(n):
    """n triplets on one shape of 3n rows: triplet k is rows k, n + k and 2n + k."""
    return pair_indices(np.arange(3 * n).reshape(3, n), [3 * n])


def make_pairset(anchors, positives, negatives):
    """Sampled indices plus per-shape vectors for the given triplet vectors:
    triplet k is vertex rows k, n + k and 2n + k of a single pseudo-shape."""
    stacked = np.vstack([np.asarray(v, float) for v in (anchors, positives, negatives)])
    return single_shape_indices(len(anchors)), [stacked]


def triplet_vectors(indices, values):
    """Anchor, positive and negative vectors of every triplet, read from the
    per-shape arrays one row at a time: row r is vertex r - offsets[k] of the
    last shape k whose first row is at most r."""
    starts = [int(start) for start in indices.offsets[:-1]]

    def vector(row):
        k = max(k for k, start in enumerate(starts) if start <= row)
        return values[k][row - starts[k]]

    return tuple(np.array([vector(int(row)) for row in role]).reshape(-1, values[0].shape[1])
                 for role in indices.rows)


def diag_stats(cov_pos, cov_neg, cov_g=None, ridge=0.0):
    m = len(cov_pos)
    return CovarianceStats(
        cov_pos=np.diag(np.asarray(cov_pos, float)),
        cov_neg=np.diag(np.asarray(cov_neg, float)),
        cov_g=np.eye(m) if cov_g is None else np.asarray(cov_g, float),
        ridge=ridge,
    )


def random_psd(m, rng, scale=1.0):
    a = rng.standard_normal((m, 2 * m))
    return scale * (a @ a.T) / (2 * m)


# ---------------------------------------------------------------------------
# pair construction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def blob_shape():
    shape = multi_sphere(n_seg=24, n_rows=25)
    mesh = shape.mesh()
    rng = np.random.default_rng(0)
    gvecs = rng.standard_normal((mesh.n_vertices, 7))
    return mesh, gvecs, shape.symmetry()


def sample_args(**overrides):
    args = dict(r_frac=0.04, big_r_frac=0.1, negatives_per_ref=8,
                refs_per_shape=5, rng_seed=3, positives_per_ref=4)
    args.update(overrides)
    return args


def test_build_pairs_ring_exclusion(blob_shape):
    mesh, _, _ = blob_shape
    from specdesc.mesh import geodesic_distance_fields, intrinsic_diameter

    shapes = [ShapeSample("a", mesh, "blob")]
    pairs = sample_pair_indices(shapes, **sample_args())
    diam = intrinsic_diameter(mesh, 25)
    # one shape: its rows are its vertices
    for anchor, positive, negative in pairs.rows.T:
        d = geodesic_distance_fields(mesh, [anchor])[0]
        assert d[positive] <= 0.04 * diam
        assert d[negative] > 0.1 * diam
        assert positive != anchor


def test_identity_symmetry_equals_no_symmetry(blob_shape):
    mesh, _, _ = blob_shape
    plain = sample_pair_indices([ShapeSample("a", mesh, "blob")],
                                **sample_args())
    with_sym = sample_pair_indices(
        [ShapeSample("a", mesh, "blob",
                     symmetry=np.arange(mesh.n_vertices))],
        **sample_args(),
    )
    np.testing.assert_array_equal(plain.rows, with_sym.rows)


def test_symmetric_ball_joins_positive_set(blob_shape):
    mesh, _, sym = blob_shape
    pairs = sample_pair_indices(
        [ShapeSample("a", mesh, "blob", symmetry=sym)],
        **sample_args(refs_per_shape=12, negatives_per_ref=20, positives_per_ref=12),
    )
    from specdesc.mesh import geodesic_distance_fields, intrinsic_diameter

    diam = intrinsic_diameter(mesh, 25)
    mirrored = 0
    anchors, positives, negatives = pairs.rows  # one shape: rows are vertices
    for ref in np.unique(anchors):
        rows = anchors == ref
        d = geodesic_distance_fields(mesh, [ref, sym[ref]])
        pos = positives[rows]
        assert (np.minimum(d[0][pos], d[1][pos]) <= 0.04 * diam).all()
        assert (np.minimum(d[0][negatives[rows]], d[1][negatives[rows]]) > 0.1 * diam).all()
        mirrored += int((d[0][pos] > 0.04 * diam).sum())
    assert mirrored > 0  # some positives really come from the mirror ball


def test_invariance_pairs_are_exact_for_identity_correspondence(blob_shape):
    mesh, gvecs, _ = blob_shape
    corr = np.arange(mesh.n_vertices)
    shapes = [
        ShapeSample("null", mesh, "blob"),
        ShapeSample("copy", mesh, "blob", correspondence=corr,
                    corr_target="null"),
    ]
    pairs = sample_pair_indices(shapes, **sample_args())
    values = [gvecs, gvecs]
    inv = pairs.tags == TAG_INVARIANCE
    assert inv.any()
    anchors, positives, _ = triplet_vectors(pairs, values)
    np.testing.assert_array_equal(anchors[inv], positives[inv])


def test_pairs_reproducible_and_seed_sensitive(blob_shape):
    mesh, gvecs, _ = blob_shape
    shapes = [ShapeSample("a", mesh, "blob")]
    values = gvecs
    a = sample_pair_indices(shapes, **sample_args())
    b = sample_pair_indices(shapes, **sample_args())
    np.testing.assert_array_equal(values[a.rows[0]], values[b.rows[0]])
    np.testing.assert_array_equal(a.rows[2], b.rows[2])
    c = sample_pair_indices(shapes, **sample_args(rng_seed=4))
    assert not np.array_equal(a.rows[2], c.rows[2])


def test_cross_class_negatives_tagged(blob_shape):
    mesh, _, _ = blob_shape
    other = icosphere(1)
    shapes = [
        ShapeSample("a", mesh, "blob"),
        ShapeSample("b", other, "ball", sample_refs=False),
    ]
    pairs = sample_pair_indices(shapes, **sample_args(cross_negatives_per_ref=6))
    counts = pairs.tag_counts()
    assert counts["discriminativity"] == 5 * 6
    cross = pairs.tags == 2
    negatives = pairs.rows[2][cross]
    assert ((negatives >= pairs.offsets[1]) & (negatives < pairs.offsets[2])).all()


def test_cross_negatives_need_second_class(blob_shape):
    mesh, _, _ = blob_shape
    with pytest.raises(DataError, match="one class"):
        sample_pair_indices([ShapeSample("a", mesh, "blob")],
                            **sample_args(cross_negatives_per_ref=2))


def test_no_negatives_when_big_ball_covers_shape(blob_shape):
    mesh, _, _ = blob_shape
    with pytest.raises(DataError, match="negatives"):
        sample_pair_indices([ShapeSample("a", mesh, "blob")],
                            **sample_args(r_frac=0.5, big_r_frac=2.0))


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "symmetric"])
def test_bounded_ball_search_gives_unbounded_masks(mirrored):
    # unit cells: from a corner, the vertices one and two edges along an axis
    # lie exactly at r and at big_r
    mesh = grid_mesh(3, width=3.0, height=3.0)
    r, big_r = 1.0, 2.0
    assert geodesic_distance_fields(mesh, [0])[0][2] == big_r
    assert np.isinf(geodesic_distance_fields(mesh, [0], limit=big_r)).any()
    # the point reflection (i, j) -> (3 - i, 3 - j) maps vertex v to 15 - v
    symmetry = mesh.n_vertices - 1 - np.arange(mesh.n_vertices) if mirrored else None
    near, within = geodesic_balls(mesh, np.arange(mesh.n_vertices), symmetry, (r, big_r))
    for ref in range(mesh.n_vertices):
        centers = [ref, symmetry[ref]] if mirrored else [ref]
        dist = geodesic_distance_fields(mesh, centers)
        np.testing.assert_array_equal(near[ref], (dist <= r).any(axis=0))
        np.testing.assert_array_equal(~within[ref], (dist > big_r).all(axis=0))


def test_empty_ball_resamples_reference_with_warning(blob_shape):
    # at 1.5% of the diameter some vertices of this coarse mesh have no
    # in-ball neighbor; those candidates are rejected and resampled
    mesh, _, _ = blob_shape
    with pytest.warns(RuntimeWarning, match="empty positive ball"):
        idx = sample_pair_indices(
            [ShapeSample("a", mesh, "blob")],
            r_frac=0.015, big_r_frac=0.06, negatives_per_ref=4,
            refs_per_shape=6, rng_seed=0, positives_per_ref=2,
        )
    assert len(idx) == 6 * 4  # every reference still produced its triplets


def test_exhausted_resamples_are_data_error(blob_shape):
    # no two vertices of this mesh lie within 1e-6 of the diameter of each other, so
    # every candidate reference has an empty positive ball
    mesh, _, _ = blob_shape
    with pytest.warns(RuntimeWarning, match="empty positive ball") as record:
        with pytest.raises(DataError, match="shape a: could not find a reference"):
            sample_pair_indices([ShapeSample("a", mesh, "blob")], **sample_args(r_frac=1e-6))
    assert sum("empty positive ball" in str(w.message) for w in record) == MAX_REF_RESAMPLES


# SHA-256 of each int32 (shape, vertex) index array of the sampling below, as
# the per-triplet append loop produced them; the sampled rows, decoded back to
# those arrays, must reproduce them bit for bit
GOLDEN_INDICES = {
    "tags": "302f6cddd68c336900bec2b1265924459fa4a0d289ca8e4201ae1a78b3edf3ba",
    "anchor_shape": "928b8556bbec94332c19916614378756aa57ede7c7697ddc50a0f315994ed98b",
    "pos_shape": "01199c2e0af7735b87295cf0c728c31ba5ca197580ed03f2a5563990672267ea",
    "neg_shape": "bec70a0d40a397129d721b9da217684375663684e3a3fdccbadc583dcb7b30d2",
    "anchor_vertex": "3b0872a1b27918924fe37148d1a138aa897a2f5def916f87938a7720d3ca862b",
    "pos_vertex": "225243d4e4dcc8b08b720fe3c1340a30ba8111bfddcc38f091d9ae9fa37c3807",
    "neg_vertex": "139df79753eddeca906f7d37277feaeb5d3a5c0d1d14bded99c6dd71efda8a42",
}


def test_sampled_indices_match_golden_digests(blob_shape):
    # symmetry, an identity correspondence (invariance positives cycled in
    # with the ball positives) and cross-class negatives on a second class
    mesh, _, sym = blob_shape
    shapes = [
        ShapeSample("a", mesh, "blob", symmetry=sym),
        ShapeSample("copy", mesh, "blob",
                    correspondence=np.arange(mesh.n_vertices),
                    corr_target="a"),
        ShapeSample("b", icosphere(1), "ball", sample_refs=False),
    ]
    idx = sample_pair_indices(shapes, **sample_args(
        refs_per_shape=4, negatives_per_ref=7, positives_per_ref=3,
        cross_negatives_per_ref=5))
    assert idx.tag_counts() == {"localization": 52, "invariance": 4,
                                "discriminativity": 40}
    assert idx.tags.dtype == np.uint8
    assert idx.rows.dtype == np.int32 and idx.offsets.dtype == np.int64
    np.testing.assert_array_equal(idx.offsets, np.cumsum([0, mesh.n_vertices, mesh.n_vertices,
                                                          icosphere(1).n_vertices]))
    arrays = {"tags": idx.tags}
    for role, rows in zip(("anchor", "pos", "neg"), idx.rows):
        shapes = np.searchsorted(idx.offsets, rows, side="right") - 1
        arrays[f"{role}_shape"] = shapes.astype(np.int32)
        arrays[f"{role}_vertex"] = (rows - idx.offsets[shapes]).astype(np.int32)
    digests = {name: hashlib.sha256(arrays[name].tobytes()).hexdigest()
               for name in GOLDEN_INDICES}
    assert digests == GOLDEN_INDICES


def test_indices_need_only_meshes(blob_shape):
    mesh, _, _ = blob_shape
    idx = sample_pair_indices([ShapeSample("a", mesh, "blob")], **sample_args())
    assert len(idx) == 5 * 8


# ---------------------------------------------------------------------------
# covariances
# ---------------------------------------------------------------------------


def test_zero_positive_differences_give_zero_moment():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((30, 4))
    pairs = make_pairset(g, g.copy(), rng.standard_normal((30, 4)))
    stats = estimate_covariances(*pairs, ridge=0.0)
    assert np.abs(stats.cov_pos).max() == 0.0


def test_rank_one_negative_moment():
    v = np.array([1.0, -2.0, 0.5])
    anchors = np.zeros((2, 3))
    negatives = np.array([v, -v])
    pairs = make_pairset(anchors, np.zeros((2, 3)), negatives)
    stats = estimate_covariances(*pairs, ridge=0.0)
    np.testing.assert_allclose(stats.cov_neg, np.outer(v, v), atol=1e-15)


def test_moment_concentration_large_sample():
    rng = np.random.default_rng(8)
    m, n = 8, 100_000
    half = rng.standard_normal((m, m)) * 0.4 + np.eye(m)
    true = half @ half.T
    e = rng.standard_normal((n, m)) @ half.T
    pairs = make_pairset(e, np.zeros((n, m)), np.zeros((n, m)))
    stats = estimate_covariances(*pairs, ridge=0.0)
    err = np.linalg.norm(stats.cov_pos - true) / np.linalg.norm(true)
    assert err < 0.02


def test_ridge_added_to_geometry_moment():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((40, 5))
    pairs = make_pairset(g, g, g)
    raw = estimate_covariances(*pairs, ridge=0.0).cov_g
    ridged = estimate_covariances(*pairs, ridge=0.1).cov_g
    np.testing.assert_allclose(
        ridged, raw + 0.1 * np.trace(raw) / 5 * np.eye(5), atol=1e-12
    )


def test_insufficient_samples():
    pairs = make_pairset(np.ones((1, 9)), np.ones((1, 9)), np.ones((1, 9)))
    with pytest.raises(DataError, match="at least"):
        estimate_covariances(*pairs)


def test_non_finite_reported_with_triplet_index():
    g = np.ones((5, 3))
    bad = g.copy()
    bad[2, 1] = np.nan
    pairs = make_pairset(g, bad, g)
    with pytest.raises(DataError, match="triplet 2"):
        estimate_covariances(*pairs)


def random_indices(n, shape_sizes, rng, drawn_sizes=None):
    """`n` triplets over shapes with the given vertex counts, whose vertices
    are drawn below `drawn_sizes` (by default the counts themselves)."""
    offsets = np.cumsum([0, *shape_sizes])
    drawn_sizes = np.asarray(shape_sizes if drawn_sizes is None else drawn_sizes)

    def draw():
        shapes = rng.integers(len(shape_sizes), size=n).astype(np.int32)
        vertices = (rng.random(n) * drawn_sizes[shapes]).astype(np.int32)
        return offsets[shapes] + vertices

    return pair_indices([draw(), draw(), draw()], shape_sizes)


def assert_per_triplet_moments(stats, indices, values, ridge):
    """`stats` equal the whole-array per-triplet formulas, one outer product
    per triplet and role, to 1e-12 relative, and are exactly symmetric."""
    n, m = len(indices), values[0].shape[1]
    anchors, positives, negatives = triplet_vectors(indices, values)
    e_pos = anchors - positives
    e_neg = anchors - negatives
    stacked = np.vstack([anchors, positives, negatives])
    cov_g = stacked.T @ stacked / (3 * n)
    reference = {
        "cov_pos": e_pos.T @ e_pos / n,
        "cov_neg": e_neg.T @ e_neg / n,
        "cov_g": cov_g + ridge * np.trace(cov_g) / m * np.eye(m),
    }
    for name, expected in reference.items():
        got = getattr(stats, name)
        assert np.array_equal(got, got.T)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [TRIPLET_CHUNK - 5, TRIPLET_CHUNK, 2 * TRIPLET_CHUNK + 1])
def test_streamed_moments_match_whole_array_moments(n):
    rng = np.random.default_rng(20)
    values = [rng.standard_normal((size, 6)) for size in (40, 55, 70)]
    indices = random_indices(n, [40, 55, 70], rng)
    streamed = estimate_covariances(indices, values, ridge=1e-3)
    assert_per_triplet_moments(streamed, indices, values, ridge=1e-3)


def test_repeated_pairs_match_per_triplet_moments():
    # 12 distinct (anchor, positive) pairs, each shared by about 1,000
    # triplets, as the sampler's cycling of positives against negatives gives
    rng = np.random.default_rng(24)
    values = [rng.standard_normal((size, 7)) for size in (30, 45)]
    n = 3 * TRIPLET_CHUNK + 11
    indices = random_indices(n, [30, 45], rng)
    pick = rng.integers(12, size=n)
    indices.rows[:2] = indices.rows[:2, :12][:, pick]
    pairs = set(zip(indices.rows[0], indices.rows[1]))
    assert len(pairs) <= 12
    stats = estimate_covariances(indices, values, ridge=1e-3)
    assert_per_triplet_moments(stats, indices, values, ridge=1e-3)


def test_pair_keys_past_int32_match_per_triplet_moments():
    # 60,000 stacked rows: an (anchor, negative) key a * 60,000 + b passes
    # 2**31 from anchor row 35,792 on, so int32 keys would wrap
    rng = np.random.default_rng(26)
    sizes = [40_000, 20_000]
    values = [rng.standard_normal((size, 2)) for size in sizes]
    top = [rng.integers(sizes[0] - 500, sizes[0], 300),
           sizes[0] + rng.integers(sizes[1] - 500, sizes[1], 300)]
    rows = np.stack([rng.permutation(np.concatenate(top)) for _ in range(3)])
    assert rows[0].min().astype(np.int64) * sum(sizes) > 2**31
    indices = pair_indices(rows, sizes)
    stats = estimate_covariances(indices, values, ridge=1e-3)
    assert_per_triplet_moments(stats, indices, values, ridge=1e-3)


def test_describe_triplet_names_shape_and_vertex_of_each_row():
    indices = pair_indices([[0, 7], [12, 4], [5, 20]], [5, 7, 9])
    indices.tags[1] = TAG_INVARIANCE
    indices.shape_ids = ["cat", "dog", "horse"]
    assert indices.describe_triplet(0) == "triplet 0 [localization] cat:0 / horse:0 / dog:0"
    assert indices.describe_triplet(1) == "triplet 1 [invariance] dog:2 / cat:4 / horse:8"


def test_wrong_row_count_names_the_shape():
    indices = pair_indices([[0, 7], [12, 4], [5, 20]], [5, 7, 9])
    values = [np.zeros((5, 2)), np.zeros((6, 2)), np.zeros((9, 2))]
    with pytest.raises(DataError, match="shape s1: 6 vector rows for 7 vertices"):
        pair_distances(indices, values)


def test_per_shape_generator_gives_bit_equal_results():
    rng = np.random.default_rng(26)
    sizes = [40, 55, 70]
    values = [rng.standard_normal((size, 6)) for size in sizes]
    indices = random_indices(TRIPLET_CHUNK + 300, sizes, rng)
    coef = rng.standard_normal((2, 6))

    def generated():
        return (v.copy() for v in values)

    stats = estimate_covariances(indices, values)
    again = estimate_covariances(indices, generated())
    for name in ("cov_pos", "cov_neg", "cov_g"):
        assert np.array_equal(getattr(again, name), getattr(stats, name))
    for expected, got in zip(pair_distances(indices, values, coef),
                             pair_distances(indices, generated(), coef)):
        assert np.array_equal(got, expected)
    alphas = [0.0, 0.3, 0.6]
    listed = sweep_alpha(stats, alphas, 2, indices, values, work_point=0.1)
    streamed = sweep_alpha(stats, alphas, 2, indices, generated(), work_point=0.1)
    assert streamed[0] == listed[0]
    np.testing.assert_array_equal(np.array(streamed[1], float), np.array(listed[1], float))


def test_too_few_per_shape_arrays_is_data_error():
    indices = pair_indices([[0, 7], [12, 4], [5, 20]], [5, 7, 9])
    values = (np.zeros((size, 2)) for size in (5, 7))
    with pytest.raises(DataError, match="^2 per-shape vector arrays for 3 shapes$"):
        pair_distances(indices, values)


def test_unused_non_finite_row_leaves_moments_unchanged():
    rng = np.random.default_rng(25)
    values = [rng.standard_normal((size, 5)) for size in (41, 50)]
    # shape 0 owns 41 rows, but its vertices are drawn below 40: row 40 is
    # never used, and shape 1's rows come after it in the stacked row space
    indices = random_indices(600, [41, 50], rng, drawn_sizes=[40, 50])
    finite = estimate_covariances(indices, values)
    for bad in (np.nan, np.inf):
        values[0][40] = bad
        stats = estimate_covariances(indices, values)
        for name in ("cov_pos", "cov_neg", "cov_g"):
            assert np.isfinite(getattr(stats, name)).all()
            assert np.array_equal(getattr(stats, name), getattr(finite, name))


@pytest.mark.parametrize("n", [TRIPLET_CHUNK - 1, TRIPLET_CHUNK, TRIPLET_CHUNK + 1])
def test_streamed_descriptor_distances_match_gathered(n):
    rng = np.random.default_rng(23)
    values = [rng.standard_normal((size, 5)) for size in (40, 55, 70)]
    indices = random_indices(n, [40, 55, 70], rng)
    d_pos, d_neg = pair_distances(indices, values)
    # the whole-array distances eval computed before it streamed; per-row
    # norms do not depend on how many rows a block holds
    anchors, positives, negatives = triplet_vectors(indices, values)
    assert np.array_equal(d_pos, np.linalg.norm(anchors - positives, axis=1))
    assert np.array_equal(d_neg, np.linalg.norm(anchors - negatives, axis=1))


def test_non_finite_after_first_chunk_names_the_triplet():
    # vertex k of the single shape is used once: as anchor k, positive k - n
    # or negative k - 2n
    n = 2 * TRIPLET_CHUNK + 1
    indices = single_shape_indices(n)
    values = np.random.default_rng(21).standard_normal((3 * n, 3))
    late = TRIPLET_CHUNK + 17
    values[n + late, 1] = np.inf  # positive of a triplet in the second chunk
    expected = f"non-finite positive vector in {indices.describe_triplet(late)}"
    assert expected.startswith(f"non-finite positive vector in triplet {late} ")
    with pytest.raises(DataError) as err:
        estimate_covariances(indices, [values])
    assert str(err.value) == expected
    # every anchor is checked before any positive, as a whole-array scan does
    values[2 * TRIPLET_CHUNK, 0] = np.nan  # anchor of the last triplet
    with pytest.raises(DataError) as err:
        estimate_covariances(indices, [values])
    assert str(err.value) == (
        f"non-finite anchor vector in {indices.describe_triplet(2 * TRIPLET_CHUNK)}"
    )


def test_streamed_moments_memory_stays_below_one_triplet_array():
    rng = np.random.default_rng(22)
    n, m = 200_000, 100
    sizes = [1500, 2000, 2500]
    values = [rng.standard_normal((size, m)) for size in sizes]
    indices = random_indices(n, sizes, rng)
    one_array = n * m * 8  # a single (N, m) float64 array: 160 MB
    tracemalloc.start()
    try:
        stats = estimate_covariances(indices, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_array / 4


# ---------------------------------------------------------------------------
# closed-form solve
# ---------------------------------------------------------------------------


def test_toy_diagonal_selects_tight_positive_axis():
    stats = diag_stats([1, 4, 9], [9, 4, 1])
    coef, lam = solve_tradeoff(stats, alpha=0.5, n=1)
    direction = np.abs(coef[0])
    np.testing.assert_allclose(direction, [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(lam, [-4.0], atol=1e-12)


def test_alpha_one_spreads_negatives():
    stats = diag_stats([0, 0, 0, 0], [9, 4, 1, 0.25])
    coef, lam = solve_tradeoff(stats, alpha=1.0, n=3)
    assert coef.shape[0] == 3  # negative moment has enough spread directions
    np.testing.assert_allclose(lam, [-9, -4, -1], atol=1e-12)


def test_no_negative_directions_is_an_error():
    stats = diag_stats([1, 1, 1], [1, 1, 1])
    with pytest.raises(NumericalError, match="alpha too small|inseparable"):
        solve_tradeoff(stats, alpha=0.0, n=1)


def test_near_singular_geometry_moment():
    stats = diag_stats([1, 1, 1], [2, 2, 2], cov_g=np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(NumericalError, match="singular"):
        solve_tradeoff(stats, 0.5, 1)


def test_achieved_dimension_truncates_to_negative_count():
    stats = diag_stats([1, 4, 0], [9, 4, 1])  # only one negative direction
    coef, lam = solve_tradeoff(stats, 0.5, 2)
    assert coef.shape[0] == 2  # directions with lambda < 0: (-4, -0.5)
    stats2 = diag_stats([1, 9, 9], [9, 4, 1])
    coef2, _ = solve_tradeoff(stats2, 0.5, 2)
    assert coef2.shape[0] == 1


def test_constraint_and_objective_certificate():
    rng = np.random.default_rng(5)
    for trial in range(10):
        m, n = 8, 3
        stats = CovarianceStats(
            cov_pos=random_psd(m, rng), cov_neg=random_psd(m, rng, 2.0),
            cov_g=random_psd(m, rng) + 0.5 * np.eye(m),
            ridge=0.0,
        )
        coef, lam = solve_tradeoff(stats, 0.5, n)
        gram = coef @ stats.cov_g @ coef.T
        assert np.abs(gram - np.eye(len(coef))).max() <= 1e-8
        objective = np.trace(coef @ tradeoff_matrix(stats, 0.5) @ coef.T)
        assert abs(objective - lam.sum()) <= 1e-10 * max(1.0, abs(lam.sum()))


def test_objective_nonincreasing_in_dimension():
    rng = np.random.default_rng(6)
    m = 8
    stats = CovarianceStats(
        cov_pos=random_psd(m, rng, 0.2), cov_neg=random_psd(m, rng, 3.0),
        cov_g=random_psd(m, rng) + 0.5 * np.eye(m),
        ridge=0.0,
    )
    values = []
    for n in range(1, 6):
        _, lam = solve_tradeoff(stats, 0.7, n)
        values.append(lam.sum())
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_closed_form_never_exceeds_random_search():
    rng = np.random.default_rng(7)
    m, n, samples = 8, 3, 200_000
    stats = CovarianceStats(
        cov_pos=random_psd(m, rng), cov_neg=random_psd(m, rng),
        cov_g=random_psd(m, rng) + 0.5 * np.eye(m),
        ridge=0.0,
    )
    coef, lam = solve_tradeoff(stats, 0.5, n)
    n_eff = coef.shape[0]
    w, v = np.linalg.eigh(stats.cov_g)
    inv_half = (v * (1.0 / np.sqrt(w))) @ v.T
    whitened = inv_half @ tradeoff_matrix(stats, 0.5) @ inv_half
    whitened = 0.5 * (whitened + whitened.T)
    best = np.inf
    for _ in range(4):
        g = rng.standard_normal((samples // 4, m, n_eff))
        # trace(Q^T W Q) over the span of each draw, without orthonormalizing
        gt = g.transpose(0, 2, 1)
        vals = np.trace(np.linalg.solve(gt @ g, gt @ (whitened @ g)), axis1=1, axis2=2)
        best = min(best, float(vals.min()))
    closed = lam.sum()
    assert closed <= best + 1e-12
    # random search over the Stiefel manifold stays well above the optimum;
    # the measured gap at this sample count is a fraction of the objective
    assert best - closed < 0.6


def test_whitening_equivariance_of_distances():
    rng = np.random.default_rng(9)
    m, n_train = 8, 3000
    base = rng.standard_normal((m, m)) * 0.4 + np.eye(m)
    anchors = rng.standard_normal((n_train, m)) @ base.T
    positives = anchors + 0.05 * rng.standard_normal((n_train, m))
    negatives = rng.standard_normal((n_train, m)) @ base.T * 1.3
    transform = rng.standard_normal((m, m)) + 0.5 * np.eye(m)

    def train_and_score(mult):
        pairs = make_pairset(anchors @ mult.T, positives @ mult.T, negatives @ mult.T)
        stats = estimate_covariances(*pairs, ridge=0.0)
        coef, _ = solve_tradeoff(stats, 0.2, 4)
        return pair_distances(*pairs, coef)

    d0_pos, d0_neg = train_and_score(np.eye(m))
    d1_pos, d1_neg = train_and_score(transform)
    assert np.abs(d1_pos / d0_pos - 1.0).max() < 1e-6
    assert np.abs(d1_neg / d0_neg - 1.0).max() < 1e-6


def test_response_model_wraps_solved_coefficients():
    stats = diag_stats([1, 4, 9, 16], [16, 9, 4, 1])
    basis = FrequencyBasis(nu_max=2.0, m=4)
    coef, lam = solve_tradeoff(stats, 0.5, 2)
    model = ResponseModel(basis=basis, coefficients=coef)
    assert model.basis is basis
    assert model.n == len(lam) == 2
    assert (lam < 0).all()
    # the retained eigenvalues sum to the trace objective the filters reach
    objective = np.trace(coef @ tradeoff_matrix(stats, 0.5) @ coef.T)
    assert objective == pytest.approx(lam.sum())


def test_response_model_basis_size_mismatch():
    coef, _ = solve_tradeoff(diag_stats([1, 4, 9], [9, 4, 1]), 0.5, 1)
    with pytest.raises(DataError, match="basis size"):
        ResponseModel(basis=FrequencyBasis(nu_max=2.0, m=5), coefficients=coef)


def test_alpha_and_n_validation():
    stats = diag_stats([1, 4, 9], [9, 4, 1])
    with pytest.raises(DataError):
        solve_tradeoff(stats, -0.1, 1)
    with pytest.raises(DataError):
        solve_tradeoff(stats, 0.5, 3)  # n must stay below m


# ---------------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------------


def eval_pairset(rng, m=6, n=800, separation=1.0):
    anchors = rng.standard_normal((n, m))
    positives = anchors + 0.1 * rng.standard_normal((n, m))
    negatives = anchors + separation * rng.standard_normal((n, m))
    return make_pairset(anchors, positives, negatives)


def test_sweep_single_alpha_returns_it():
    rng = np.random.default_rng(10)
    train = eval_pairset(rng)
    held = eval_pairset(rng)
    stats = estimate_covariances(*train, ridge=1e-8)
    best, table = sweep_alpha(stats, [0.3], 2, *held)
    assert best == 0.3
    assert len(table) == 1
    assert table[0].achieved_n >= 1


def test_sweep_on_indices_matches_gathered_pairs():
    rng = np.random.default_rng(15)
    values = [rng.standard_normal((size, 6)) for size in (60, 80)]
    held = random_indices(TRIPLET_CHUNK + 300, [60, 80], rng)
    stats = estimate_covariances(*eval_pairset(rng), ridge=1e-8)
    alphas = [0.0, 0.3, 0.6]  # alpha 0 has no negative direction: a NaN row
    streamed = sweep_alpha(stats, alphas, 2, held, values, work_point=0.1)
    # the same triplet vectors laid out as one pseudo-shape, one row each
    stacked = make_pairset(*triplet_vectors(held, values))
    whole = sweep_alpha(stats, alphas, 2, *stacked, work_point=0.1)
    assert np.isnan(streamed[1][0].fn_at_fixed_fp)
    np.testing.assert_array_equal(np.array(streamed[1], float),
                                  np.array(whole[1], float))
    assert streamed[0] == whole[0]


def test_sweep_indistinguishable_pairs_flat_but_no_crash():
    # positives and negatives drawn from one distribution: rates hover at the
    # work point level across alphas
    rng = np.random.default_rng(12)
    m, n = 6, 3000
    anchors = rng.standard_normal((n, m))
    train = make_pairset(anchors, anchors + rng.standard_normal((n, m)),
                         anchors + rng.standard_normal((n, m)))
    held_anchor = rng.standard_normal((n, m))
    held = make_pairset(held_anchor, held_anchor + rng.standard_normal((n, m)),
                        held_anchor + rng.standard_normal((n, m)))
    best, table = sweep_alpha(estimate_covariances(*train, ridge=1e-8), [0.4, 0.6], 2,
                              *held, work_point=0.1)
    for row in table:
        if np.isfinite(row.fn_at_fixed_fp):
            assert row.fn_at_fixed_fp > 0.6  # chance level at FP=0.1


def test_sweep_degenerate_distances_error():
    rng = np.random.default_rng(13)
    train = eval_pairset(rng)
    ones = np.ones((50, 6))
    held = make_pairset(ones, ones, ones)
    with pytest.raises(NumericalError, match="degenerate"):
        sweep_alpha(estimate_covariances(*train), [0.3], 2, *held)


def test_sweep_mode_validation():
    rng = np.random.default_rng(14)
    train = eval_pairset(rng)
    held = eval_pairset(rng)
    with pytest.raises(DataError):
        sweep_alpha(estimate_covariances(*train), [0.3], 2, *held, mode="balanced")
