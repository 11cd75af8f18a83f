from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specdesc.container import output_dir
from specdesc.errors import DataError
from specdesc import evaluation
from specdesc.evaluation import (
    cmc,
    distance_maps,
    emit_report,
    roc,
    work_points,
    write_cmc,
    write_map,
    write_roc,
)
from specdesc.mesh import BALL_BLOCK, geodesic_balls, geodesic_distance_fields
from specdesc.synth import icosphere

# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------


def test_roc_perfect_separation():
    curve = roc([0.1, 0.2, 0.3], [1.0, 2.0])
    assert curve.auc == 1.0
    assert curve.fp_rate[0] == 0.0 and curve.tp_rate[0] == 0.0
    assert curve.fp_rate[-1] == 1.0 and curve.tp_rate[-1] == 1.0


def test_roc_identical_distributions_is_diagonal():
    values = [0.3, 0.7, 0.7, 1.5]
    curve = roc(values, values)
    assert curve.auc == pytest.approx(0.5, abs=0.0)
    np.testing.assert_array_equal(curve.fp_rate, curve.tp_rate)


def test_roc_exhaustive_example():
    # P(d_pos < d_neg) over {1,3} x {2,4} = 3/4
    curve = roc([1.0, 3.0], [2.0, 4.0])
    assert curve.auc == pytest.approx(0.75, abs=0.0)


def mann_whitney_auc(pos, neg) -> Fraction:
    """P(d_pos < d_neg) + P(d_pos == d_neg) / 2, counted pair by pair."""
    wins = sum(2 * (p < q) + (p == q) for p in pos for q in neg)
    return Fraction(wins, 2 * len(pos) * len(neg))


def test_roc_auc_is_exact_mann_whitney_count_under_ties():
    rng = np.random.default_rng(30)
    for n_pos, n_neg in [(97, 61), (300, 211), (7, 1000)]:
        # few distinct values: most pairs tie across and within the classes
        pos = rng.integers(0, 9, n_pos) / 10.0
        neg = rng.integers(3, 12, n_neg) / 10.0
        assert roc(pos, neg).auc == float(mann_whitney_auc(pos.tolist(), neg.tolist()))


def split_ties(values, others):
    """`values` with every other member of each tie moved up by less than
    0.05, for the ties with no value of `others` from them to 0.1 above."""
    split = values.copy()
    for value in np.unique(values):
        tied = np.flatnonzero(values == value)
        if len(tied) > 1 and not ((others >= value) & (others <= value + 0.1)).any():
            split[tied[::2]] += 0.05 * np.arange(1, len(tied[::2]) + 1) / len(tied)
    return split


def test_roc_auc_bits_survive_splitting_ties_inside_one_class():
    # these draws moved the last bit of the trapezoid-rule AUC in both classes
    rng = np.random.default_rng(7)
    pos = rng.integers(0, 40, 333) / 8.0
    neg = rng.integers(10, 60, 517) / 8.0
    auc = roc(pos, neg).auc
    split_pos, split_neg = split_ties(pos, neg), split_ties(neg, pos)
    assert len(np.unique(split_pos)) > len(np.unique(pos))
    assert len(np.unique(split_neg)) > len(np.unique(neg))
    assert roc(split_pos, neg).auc == auc
    assert roc(pos, split_neg).auc == auc


def test_roc_monotone_and_bounded():
    rng = np.random.default_rng(0)
    curve = roc(rng.exponential(size=300), 1.0 + rng.exponential(size=200))
    assert (np.diff(curve.fp_rate) >= 0).all()
    assert (np.diff(curve.tp_rate) >= 0).all()
    assert 0.0 <= curve.auc <= 1.0


def test_roc_rejects_empty_and_nonfinite():
    with pytest.raises(DataError):
        roc([], [1.0])
    with pytest.raises(DataError):
        roc([1.0, np.inf], [1.0])


@settings(max_examples=50, deadline=None)
@given(
    pos=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=40),
    neg=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=40),
)
def test_roc_invariant_under_monotone_transform(pos, neg):
    base = roc(pos, neg)
    # power-of-two scaling is exact in floating point, hence truly injective
    mapped = roc(4.0 * np.asarray(pos), 4.0 * np.asarray(neg))
    np.testing.assert_array_equal(mapped.fp_rate, base.fp_rate)
    np.testing.assert_array_equal(mapped.tp_rate, base.tp_rate)
    assert mapped.auc == pytest.approx(base.auc, abs=1e-12)
    # log is monotone too, but can merge near-equal floats; only compare
    # when it stays injective on these inputs
    both = np.concatenate([pos, neg])
    logged = np.log(both)
    if len(np.unique(logged)) == len(np.unique(both)):
        relogged = roc(np.log(pos), np.log(neg))
        np.testing.assert_array_equal(relogged.fp_rate, base.fp_rate)
        np.testing.assert_array_equal(relogged.tp_rate, base.tp_rate)


# ---------------------------------------------------------------------------
# work-point readout
# ---------------------------------------------------------------------------


def test_rate_at_perfect_curve():
    curve = roc([0.1, 0.2], [1.0, 2.0])
    assert work_points(curve, 0.01) == (1.0, 0.0)


def test_rate_at_chance_curve():
    values = np.linspace(0.0, 1.0, 200)
    curve = roc(values, values)
    assert work_points(curve, 0.01)[0] == pytest.approx(0.01, abs=1e-9)


def test_rate_at_exhaustive_curve():
    curve = roc([1.0, 3.0], [2.0, 4.0])
    assert work_points(curve, 0.5)[0] == 1.0


def test_rate_at_consistency_near_one():
    rng = np.random.default_rng(1)
    curve = roc(rng.normal(0, 1, 500), rng.normal(1.2, 1, 500))
    assert work_points(curve, 0.999)[0] == pytest.approx(curve.tp_rate.max(), abs=1e-6)


def test_rate_at_validation():
    curve = roc([1.0], [2.0])
    with pytest.raises(DataError):
        work_points(curve, 0.0)


# ---------------------------------------------------------------------------
# CMC
# ---------------------------------------------------------------------------


def test_cmc_self_match_injective():
    rng = np.random.default_rng(2)
    field = rng.standard_normal((50, 4))
    gt = np.eye(10, 50, dtype=bool)  # reference i matches vertex i alone
    hit_rate = cmc(field[:10], field, gt, max_rank=5)
    assert hit_rate[0] == 1.0
    assert (hit_rate == 1.0).all()


def test_cmc_nondecreasing_and_complete():
    rng = np.random.default_rng(3)
    field = rng.standard_normal((60, 3))
    refs = rng.standard_normal((8, 3))
    gt = np.zeros((8, 60), dtype=bool)
    for row in gt:
        row[rng.choice(60, size=4, replace=False)] = True
    hit_rate = cmc(refs, field, gt, max_rank=60)
    assert (np.diff(hit_rate) >= 0).all()
    assert hit_rate[-1] == 1.0  # ground truth is nonempty


def test_cmc_constant_field_matches_hypergeometric_chance():
    # constant descriptors rank purely by vertex index, so a random ground
    # truth of size b hits the top k with probability 1 - C(V-k, b)/C(V, b)
    from math import comb

    v, b, k, n_refs = 400, 5, 25, 4000
    rng = np.random.default_rng(4)
    field = np.ones((v, 2))
    refs = np.ones((n_refs, 2))
    gt = np.zeros((n_refs, v), dtype=bool)
    for row in gt:
        row[rng.choice(v, size=b, replace=False)] = True
    hit_rate = cmc(refs, field, gt, max_rank=k)
    expected = 1.0 - comb(v - k, b) / comb(v, b)
    spread = 3.0 * np.sqrt(expected * (1 - expected) / n_refs)
    assert abs(hit_rate[k - 1] - expected) <= spread


def test_cmc_tie_break_by_vertex_index():
    field = np.zeros((6, 1))
    refs = np.zeros((1, 1))
    gt = np.array([[False, False, True, False, False, False]])
    hit_rate = cmc(refs, field, gt, max_rank=6)
    # all distances tie, ranking is 0,1,2,...: the hit lands at rank 3
    np.testing.assert_array_equal(hit_rate, [0, 0, 1, 1, 1, 1])


def test_cmc_rank_equals_stable_argsort_rank():
    # few distinct values force ties
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        field = rng.integers(0, 3, size=(n, 2)).astype(float)
        ref = rng.integers(0, 3, size=(1, 2)).astype(float)
        truth = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
        dist = np.linalg.norm(field - ref, axis=1)
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[np.argsort(dist, kind="stable")] = np.arange(n)
        first = rank_of[truth].min()
        # with one reference the curve steps from 0 to 1 at the first hit's rank
        expected = (np.arange(1, n + 1) > first).astype(float)
        ball = np.zeros((1, n), dtype=bool)
        ball[0, truth] = True
        np.testing.assert_array_equal(cmc(ref, field, ball, max_rank=n), expected)


def test_cmc_validation():
    field = np.zeros((6, 2))
    refs = np.zeros((2, 3))
    gt = np.eye(2, 6, dtype=bool)
    with pytest.raises(DataError):
        cmc(refs, field, gt, 3)  # dimension mismatch
    with pytest.raises(DataError, match="one row per reference"):
        cmc(np.zeros((1, 2)), field, gt, 3)  # ground truth size mismatch
    with pytest.raises(DataError, match="a column per vertex"):
        cmc(np.zeros((2, 2)), field, gt[:, :5], 3)  # ground truth over another mesh
    with pytest.raises(DataError):
        cmc(np.zeros((2, 2)), field, gt, 7)  # rank beyond target size


# ---------------------------------------------------------------------------
# ground-truth balls
# ---------------------------------------------------------------------------


def test_ground_truth_balls():
    mesh = icosphere(2)
    refs = np.array([0, 5, 40])
    [gt] = geodesic_balls(mesh, refs, None, (0.4,))
    for i, ref in enumerate(refs):
        d = geodesic_distance_fields(mesh, [int(ref)])[0]
        np.testing.assert_array_equal(gt[i], d <= 0.4)
        assert gt[i, ref]
    # each reference's own vertex, at distance 0, is a correct first match
    assert cmc(mesh.vertices[refs], mesh.vertices, gt, max_rank=1)[0] == 1.0


def test_ground_truth_includes_symmetric_ball():
    mesh = icosphere(2)
    antipode = np.array(
        [int(np.argmin(np.linalg.norm(mesh.vertices + v, axis=1)))
         for v in mesh.vertices]
    )
    [gt] = geodesic_balls(mesh, np.array([3]), antipode, (0.3,))
    d_own = geodesic_distance_fields(mesh, [3])[0]
    d_sym = geodesic_distance_fields(mesh, [int(antipode[3])])[0]
    np.testing.assert_array_equal(gt[0], (d_own <= 0.3) | (d_sym <= 0.3))
    # a reference at the antipode's descriptor is matched at rank 1 through
    # the symmetric half of the ball
    ref = mesh.vertices[[antipode[3]]]
    assert cmc(ref, mesh.vertices, gt, max_rank=1)[0] == 1.0


def test_ground_truth_limited_search_matches_full_fields():
    mesh = icosphere(3)
    antipode = np.array(
        [int(np.argmin(np.linalg.norm(mesh.vertices + v, axis=1)))
         for v in mesh.vertices]
    )
    antipode[::3] = -1  # vertices without a symmetric image
    refs = np.random.default_rng(4).integers(mesh.n_vertices, size=2 * BALL_BLOCK + 5)
    # a radius that some vertex lies at exactly: the ball is closed
    first = geodesic_distance_fields(mesh, [int(refs[0])])[0]
    radius = float(np.sort(first)[30])
    [gt] = geodesic_balls(mesh, refs, antipode, (radius,))

    # reference: unlimited Dijkstra fields of every center
    own = geodesic_distance_fields(mesh, refs) <= radius
    mirrors = antipode[refs]
    assert (mirrors == -1).any() and (mirrors >= 0).any()
    mirrored = np.zeros_like(own)
    mirrored[mirrors >= 0] = geodesic_distance_fields(mesh, mirrors[mirrors >= 0]) <= radius
    np.testing.assert_array_equal(gt, own | mirrored)
    assert gt[0, first == radius].all()


def test_ground_truth_unmapped_center_is_empty_ball():
    mesh = icosphere(2)
    refs = np.arange(BALL_BLOCK + 3)
    refs[BALL_BLOCK + 1] = -1
    [gt] = geodesic_balls(mesh, refs, None, (0.3,))
    assert not gt[BALL_BLOCK + 1].any() and gt[BALL_BLOCK + 2].any()
    with pytest.raises(DataError, match=f"reference {BALL_BLOCK + 1}: empty"):
        cmc(mesh.vertices[:len(refs)], mesh.vertices, gt, max_rank=1)


# ---------------------------------------------------------------------------
# distance maps
# ---------------------------------------------------------------------------


def test_distance_map_zero_at_reference():
    rng = np.random.default_rng(5)
    field = rng.standard_normal((30, 4))
    values = distance_maps([field], field[7])[0]
    assert values[7] == 0.0
    assert values.max() == 1.0


def test_distance_map_degenerate_all_zero():
    field = np.ones((10, 3))
    values = distance_maps([field], field[0])[0]
    assert (values == 0.0).all()


def test_distance_maps_share_scale():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((20, 3))
    b = rng.standard_normal((25, 3)) * 3.0
    ref = a[0]
    maps = distance_maps([a, b], ref)
    assert max(m.max() for m in maps) == 1.0
    raw_a = np.linalg.norm(a - ref, axis=1)
    raw_b = np.linalg.norm(b - ref, axis=1)
    peak = max(raw_a.max(), raw_b.max())
    np.testing.assert_allclose(maps[0], raw_a / peak)
    np.testing.assert_allclose(maps[1], raw_b / peak)


def test_distance_map_dimension_check():
    with pytest.raises(DataError):
        distance_maps([np.zeros((5, 3))], np.zeros(4))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_emit_report_empty_manifest(tmp_path):
    with output_dir(tmp_path / "report") as stage:
        written = emit_report(stage)
    assert written == []
    assert (tmp_path / "report" / "manifest.txt").exists()


def test_emit_report_one_roc_curve(tmp_path):
    curve = roc([1.0, 3.0], [2.0, 4.0])
    written = emit_report(tmp_path, write_roc(tmp_path, 0, curve))
    assert written == ["roc_000.csv", "roc_000.svg"]
    csv_lines = (tmp_path / "roc_000.csv").read_text().splitlines()
    assert len(csv_lines) - 1 == len(curve.fp_rate)
    svg = (tmp_path / "roc_000.svg").read_text()
    # (fp, tp) = (0, 0), (0, .5), (.5, .5), (.5, 1), (1, 1): each zoom keeps
    # its points in the box and one neighbour outside it
    polylines = [part.split('"')[0] for part in svg.split('points="')[1:]]
    assert polylines == ["30.00,290.00 30.00,155.00 1380.00,155.00",
                         "475.00,1370.00 475.00,20.00 610.00,20.00"]
    manifest = (tmp_path / "manifest.txt").read_text().split()
    assert manifest == written


def test_emit_report_writes_each_artefact_as_it_arrives(tmp_path):
    curves = [roc([1.0, 3.0], [2.0, 4.0]), roc([1.0, 2.0], [1.5, 4.0])]
    hits = np.array([0.5, 1.0])
    mesh = icosphere(0)
    roc_files, cmc_files, map_files = [], [], []
    for i, curve in enumerate(curves):
        # each writer's files are in place when it returns
        roc_files += write_roc(tmp_path, i, curve)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*roc_files, *cmc_files, *map_files])
        cmc_files += write_cmc(tmp_path, i, hits)
        map_files += write_map(tmp_path, i, np.linspace(0, 1, mesh.n_vertices), mesh)
    written = emit_report(tmp_path, roc_files + cmc_files + map_files, tables=[("t", ["a"], [[1]])])
    # the manifest lists every ROC file, then the CMC files, maps and tables
    assert written == ["roc_000.csv", "roc_000.svg", "roc_001.csv", "roc_001.svg",
                       "cmc_000.csv", "cmc_000.svg", "cmc_001.csv", "cmc_001.svg",
                       "map_000.csv", "map_000.off", "map_001.csv", "map_001.off", "t.csv"]
    assert (tmp_path / "manifest.txt").read_text().split() == written
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*written, "manifest.txt"])


def test_emit_report_error_removes_what_it_wrote(tmp_path):
    def failing(out):
        with output_dir(out) as stage:
            write_roc(stage, 0, roc([1.0, 3.0], [2.0, 4.0]))
            raise DataError("later artefact")

    fresh = tmp_path / "fresh"
    with pytest.raises(DataError, match="later artefact"):
        failing(fresh)
    assert not fresh.exists()
    # in a directory that was there, only the files of this report go
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("x")
    with pytest.raises(DataError):
        failing(kept)
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


def test_roc_csv_written_in_chunks_keeps_every_row(tmp_path):
    rng = np.random.default_rng(0)
    curve = roc(rng.normal(size=evaluation.ROW_CHUNK), rng.normal(1.0, size=evaluation.ROW_CHUNK))
    assert len(curve.thresholds) > evaluation.ROW_CHUNK + 1
    write_roc(tmp_path, 0, curve)
    rows = zip(curve.thresholds.tolist(), curve.fp_rate.tolist(), curve.tp_rate.tolist())
    expected = "threshold,fp_rate,tp_rate\n" + "".join(f"{t},{f},{p}\n" for t, f, p in rows)
    assert (tmp_path / "roc_000.csv").read_text() == expected


ROC_PANELS = [((0.0, 0.1), (0.0, 1.0), (30, 20, 270, 270)),
              ((0.0, 1.0), (0.9, 1.0), (340, 20, 270, 270))]


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10)), min_size=1, max_size=400),
       monotone=st.booleans(), panel=st.sampled_from(ROC_PANELS))
@example(steps=[(0, 5), (0, 0), (0, 10), (0, 5), (3, 5)], monotone=False, panel=ROC_PANELS[0])
def test_roc_svg_keeps_every_pixel_column_extreme(steps, monotone, panel):
    dx, dy = np.array(steps, dtype=np.float64).T
    if monotone:  # non-decreasing from (0, 0) in whole-count steps, as roc makes curves
        fp, tp = np.r_[0, dx.cumsum()] / max(dx.sum(), 1), np.r_[0, dy.cumsum()] / max(dy.sum(), 1)
    else:
        # heights that move both ways, so a pixel column's extremes need not
        # be its ends; half the steps stay in their column
        fp, tp = 0.2 * (dx // 2).cumsum() / max((dx // 2).sum(), 1), dy / 10
    (xa, xb), (ya, yb), (x0, y0, w, h) = panel
    px = x0 + (fp - xa) / (xb - xa) * w
    py = y0 + h - (tp - ya) / (yb - ya) * h
    kept = evaluation._thinned(px, py, (x0, y0, w, h))
    assert (np.diff(kept) > 0).all() and (kept.size == 0 or 0 <= kept[0] <= kept[-1] < fp.size)
    inside = (px >= x0) & (px <= x0 + w) & (py >= y0) & (py <= y0 + h)
    near = inside | np.r_[False, inside[:-1]] | np.r_[inside[1:], False]
    # everything kept is in the box or next to a point in it, and on a
    # monotone curve every such neighbour is kept
    assert near[kept].all()
    if monotone:
        assert set(np.flatnonzero(near & ~inside)) <= set(kept.tolist())
    column = np.floor(px)
    for i in np.flatnonzero(inside):
        a = b = i  # the run of near points in i's pixel column
        while a > 0 and near[a - 1] and column[a - 1] == column[i]:
            a -= 1
        while b + 1 < fp.size and near[b + 1] and column[b + 1] == column[i]:
            b += 1
        in_run = kept[(kept >= a) & (kept <= b)]
        assert a in in_run and b in in_run and in_run.size <= 4
        assert py[in_run].min() == py[a:b + 1].min() and py[in_run].max() == py[a:b + 1].max()


def test_emit_report_deterministic_bytes(tmp_path):
    curve = roc(np.linspace(0, 1, 50), np.linspace(0.5, 2, 60))
    cmc_curve = np.linspace(0.2, 1.0, 10)
    mesh = icosphere(0)
    for out in (tmp_path / "a", tmp_path / "b"):
        with output_dir(out) as stage:
            files = [*write_roc(stage, 0, curve), *write_cmc(stage, 0, cmc_curve),
                     *write_map(stage, 0, np.linspace(0, 1, mesh.n_vertices), mesh)]
            emit_report(stage, files, tables=[("workpoints", ["family", "value"], [("hks", 0.25)])])
    for name in ["roc_000.csv", "roc_000.svg", "cmc_000.csv", "cmc_000.svg", "map_000.csv",
                 "map_000.off", "workpoints.csv", "manifest.txt"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_vertex_colored_mesh(tmp_path):
    mesh = icosphere(0)
    values = np.linspace(0.0, 1.0, mesh.n_vertices)
    written = emit_report(tmp_path, write_map(tmp_path, 0, values, mesh))
    assert written == ["map_000.csv", "map_000.off"]
    head = (tmp_path / "map_000.off").read_text().splitlines()[0]
    assert head == "COFF"
