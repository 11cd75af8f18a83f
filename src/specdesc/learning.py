"""Training-pair construction and the closed-form response optimization.

Positive/negative point pairs are sampled per reference point: positives
from a small geodesic ball around the reference (plus the symmetric ball and
the corresponding point on a deformed copy when maps are available),
negatives from outside a larger ball and from shapes of other classes. The
ring between the two radii belongs to neither set.

Second-moment matrices of the difference vectors feed a trace minimization
under a decorrelation constraint, solved in closed form by whitening with
the inverse square root of the geometry-vector second moment and keeping the
eigenvectors with negative eigenvalues of the weighted covariance
difference. Raw second moments (no mean subtraction) are used throughout:
the objective is the expected squared pair distance, which is exactly a
trace of the uncentered moment. The sampler writes each triplet as three
row ids of its split's row space, in which the per-shape vectors are
stacked once, shape after shape. Each distinct positive pair, negative pair
and row is summed once, weighted by how many triplets use it; held-out
distances are taken between stacked rows, mapped once through the
coefficients, in fixed-size blocks of triplets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence
import warnings

import numpy as np

from .errors import DataError, NumericalError
from .evaluation import roc, work_points
from .mesh import TriangleMesh, geodesic_balls, intrinsic_diameter

__all__ = [
    "PairIndices",
    "ShapeSample",
    "CovarianceStats",
    "AlphaSweepEntry",
    "sample_pair_indices",
    "estimate_covariances",
    "solve_tradeoff",
    "sweep_alpha",
    "pair_distances",
]

TAG_NAMES = ("localization", "invariance", "discriminativity")
TAG_LOCALIZATION, TAG_INVARIANCE, TAG_DISCRIMINATIVITY = 0, 1, 2

MAX_REF_RESAMPLES = 25

# distinct pairs or rows summed at a time by the moment accumulator, and
# triplets whose distances are taken at a time: their working memory is a few
# TRIPLET_CHUNK x m float64 arrays (3.3 MB each at m = 100)
TRIPLET_CHUNK = 4096
ROLES = ("anchor", "positive", "negative")


@dataclass
class ShapeSample:
    """One shape as seen by the pair builder. ``correspondence`` and
    ``symmetry`` are int64 vertex index maps, -1 where a vertex has no image."""

    shape_id: str
    mesh: TriangleMesh
    class_label: str
    correspondence: Optional[np.ndarray] = None
    corr_target: str = ""  # shape_id the correspondence points into
    symmetry: Optional[np.ndarray] = None
    sample_refs: bool = True


@dataclass
class PairIndices:
    """Sampled triplets as rows of the split's stacked row space: shape k of
    shape_ids owns rows offsets[k] to offsets[k + 1] - 1, one per vertex."""

    tags: np.ndarray  # (N,) uint8
    shape_ids: list[str]
    offsets: np.ndarray  # (S + 1,) int64
    rows: np.ndarray  # (3, N) int32 anchor, positive and negative rows, in the order of ROLES

    def __len__(self) -> int:
        return len(self.tags)

    def tag_counts(self) -> dict[str, int]:
        return {name: int((self.tags == code).sum()) for code, name in enumerate(TAG_NAMES)}

    def describe_triplet(self, i: int) -> str:
        rows = self.rows[:, i]
        shapes = np.searchsorted(self.offsets, rows, side="right") - 1
        return f"triplet {i} [{TAG_NAMES[self.tags[i]]}] " + " / ".join(
            f"{self.shape_ids[k]}:{row - self.offsets[k]}" for k, row in zip(shapes, rows))


def _stacked(pairs: PairIndices, per_shape_values: Iterable[np.ndarray]) -> np.ndarray:
    """The split's per-shape (V, m) vectors, aligned with shape_ids, copied
    shape by shape into the (sum V, m) array that the triplet rows index; a
    generator keeps only the shape being copied beside the stack."""
    arrays, stack = iter(per_shape_values), None
    for k, sid in enumerate(pairs.shape_ids):
        if (values := next(arrays, None)) is None:
            raise DataError(f"{k} per-shape vector arrays for {len(pairs.shape_ids)} shapes")
        start, stop = pairs.offsets[k], pairs.offsets[k + 1]
        if len(values) != stop - start:
            raise DataError(f"shape {sid}: {len(values)} vector rows for {stop - start} vertices")
        if stack is None:
            stack = np.empty((pairs.offsets[-1], values.shape[1]))
        stack[start:stop] = values
    return stack


def _moment(values: np.ndarray, a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over k of e_k e_k^T, where e_k is row a[k] of `values`, or row a[k]
    minus row b[k]. Each distinct row or (a, b) pair is taken once, weighted
    by its count, TRIPLET_CHUNK of them at a time; rows that no entry names
    are never read."""
    n_rows = len(values)
    # int64 pair keys: an int32 product wraps once n_rows exceeds 46,340
    keys, counts = np.unique(a if b is None else a.astype(np.int64) * n_rows + b,
                             return_counts=True)
    total = np.zeros((values.shape[1],) * 2)
    for start in range(0, len(keys), TRIPLET_CHUNK):
        key, count = keys[start:start + TRIPLET_CHUNK], counts[start:start + TRIPLET_CHUNK]
        e = values[key if b is None else key // n_rows]
        if b is not None:
            e -= values[key % n_rows]
        total += (e.T * count) @ e
    return 0.5 * (total + total.T)


def sample_pair_indices(
    shapes: Sequence[ShapeSample],
    r_frac: float,
    big_r_frac: float,
    negatives_per_ref: int,
    refs_per_shape: int,
    rng_seed: int,
    positives_per_ref: int = 10,
    cross_negatives_per_ref: int = 0,
    diameter_samples: int = 32,
) -> PairIndices:
    """Sample triplets (anchor, positive, negative) over a collection, as
    rows of its stacked row space: vertex v of shape k is row offsets[k] + v.

    Per reference point: `positives_per_ref` ball positives (plus the
    corresponding point on the mapped shape when a correspondence exists),
    `negatives_per_ref` same-shape far negatives and `cross_negatives_per_ref`
    random points on other-class shapes. Positives are cycled against the
    negatives, one triplet per negative. Reproducible bit for bit from
    `rng_seed`: every (shape, reference) gets its own counter-derived stream,
    so shape order or parallel evaluation cannot change the output. The
    first candidates of a shape are searched in one batch and a redrawn one
    alone, with each stream's draws unchanged. It takes settings that
    `PipelineConfig.check` has passed and checks none of them.
    """
    if not shapes:
        raise DataError("need at least one shape")
    shape_ids = [sh.shape_id for sh in shapes]
    if len(set(shape_ids)) != len(shape_ids):
        raise DataError("duplicate shape ids")
    index_of = {sid: i for i, sid in enumerate(shape_ids)}

    if cross_negatives_per_ref > 0 and len({sh.class_label for sh in shapes}) < 2:
        raise DataError("cross-class negatives requested but only one class present")

    # every reference yields the same number of triplets, written in place
    offsets = np.cumsum([0, *(sh.mesh.n_vertices for sh in shapes)], dtype=np.int64)
    n_geo = negatives_per_ref
    per_ref = negatives_per_ref + cross_negatives_per_ref
    n_total = per_ref * refs_per_shape * sum(1 for sh in shapes if sh.sample_refs)
    tags = np.empty(n_total, dtype=np.uint8)
    rows = np.empty((3, n_total), dtype=np.int32)
    start = 0
    for si, sh in enumerate(shapes):
        if not sh.sample_refs:
            continue
        nv = sh.mesh.n_vertices
        diam = intrinsic_diameter(sh.mesh, min(diameter_samples, nv))
        r, big_r = r_frac * diam, big_r_frac * diam
        cross_pool = [
            sj for sj, other in enumerate(shapes) if other.class_label != sh.class_label
        ]
        corr = sh.correspondence
        corr_shape = index_of.get(sh.corr_target, -1) if corr is not None else -1

        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(si, i)))
                for i in range(refs_per_shape)]
        refs = [int(rng.integers(nv)) for rng in rngs]
        # the ring between r and big_r is in neither the positives nor the far set
        near_balls, big_balls = geodesic_balls(sh.mesh, refs, sh.symmetry, (r, big_r))
        for rng, ref, near, within in zip(rngs, refs, near_balls, big_balls):
            for attempt in range(MAX_REF_RESAMPLES):
                if attempt:
                    ref = int(rng.integers(nv))
                    [near], [within] = geodesic_balls(sh.mesh, [ref], sh.symmetry, (r, big_r))
                near[ref] = False  # the reference itself is not its own positive
                if near.any():
                    break
                warnings.warn(f"shape {sh.shape_id}: vertex {ref} has an empty positive ball; "
                              "resampling the reference", RuntimeWarning, stacklevel=2)
            else:
                raise DataError(f"shape {sh.shape_id}: could not find a reference with a "
                                "non-trivial positive ball")
            pos_idx, far_idx = np.flatnonzero(near), np.flatnonzero(~within)
            if far_idx.size == 0:
                raise DataError(
                    f"shape {sh.shape_id}: no valid negatives outside radius "
                    f"{big_r:.4g}"
                )

            pos_rows = offsets[si] + rng.choice(pos_idx, size=positives_per_ref, replace=True)
            pos_tag = np.full(positives_per_ref, TAG_LOCALIZATION)
            if corr is not None and corr_shape >= 0:
                mapped = int(corr[ref])
                if mapped >= 0:
                    pos_rows = np.append(pos_rows, offsets[corr_shape] + mapped)
                    pos_tag = np.append(pos_tag, TAG_INVARIANCE)

            block = rows[:, start:start + per_ref]
            block[2, :n_geo] = offsets[si] + rng.choice(far_idx, size=negatives_per_ref,
                                                        replace=True)
            for i in range(n_geo, per_ref):
                tj = int(cross_pool[int(rng.integers(len(cross_pool)))])
                block[2, i] = offsets[tj] + int(rng.integers(shapes[tj].mesh.n_vertices))

            # positives are cycled against the geometric negatives, then again
            # from the first one against the cross negatives
            cycle = np.concatenate([np.arange(negatives_per_ref),
                                    np.arange(cross_negatives_per_ref)]) % len(pos_rows)
            block[0] = offsets[si] + ref
            block[1] = pos_rows[cycle]
            tags[start:start + n_geo] = pos_tag[cycle[:n_geo]]
            tags[start + n_geo:start + per_ref] = TAG_DISCRIMINATIVITY
            start += per_ref

    if n_total == 0:
        raise DataError("no triplets generated; check refs_per_shape and flags")
    return PairIndices(tags=tags, shape_ids=shape_ids, offsets=offsets, rows=rows)


# ---------------------------------------------------------------------------
# covariance estimation and the closed-form solve
# ---------------------------------------------------------------------------


@dataclass
class CovarianceStats:
    """Second moments of pair differences and of the geometry vectors.

    ``cov_g`` is already ridge-regularized; all matrices are exactly
    symmetric. Moments are uncentered by construction.
    """

    cov_pos: np.ndarray
    cov_neg: np.ndarray
    cov_g: np.ndarray
    ridge: float

    @property
    def m(self) -> int:
        return self.cov_g.shape[0]


def estimate_covariances(
    pairs: PairIndices,
    per_shape_values: Iterable[np.ndarray],
    ridge: float = 1e-6,
) -> CovarianceStats:
    """Average outer products of difference vectors; the geometry-vector
    moment uses every sampled vector (anchors, positives and negatives) and
    gets `ridge * trace/m` added to its diagonal.

    Takes sampled triplet rows plus the per-shape (V, m) vectors whose stack
    they index (a generator's are never held twice). The vectors are stacked
    once; each distinct row, positive pair and negative pair is summed once,
    weighted by how often the triplets use it, so the memory used is
    O(sum V * m + m^2) beyond the index arrays.
    """
    values = _stacked(pairs, per_shape_values)
    m = values.shape[1]
    bad = ~np.isfinite(values).all(axis=1)
    # every anchor is checked before any positive, as a whole-array scan would
    for role, role_rows in zip(ROLES, pairs.rows):
        hit = np.flatnonzero(bad[role_rows])
        if hit.size:
            raise DataError(f"non-finite {role} vector in {pairs.describe_triplet(hit[0])}")
    n = len(pairs)
    if 3 * n < m + 1:
        raise DataError(f"need at least {m + 1} sampled vectors to estimate an {m}x{m} "
                        f"moment, got {3 * n}; add data or raise the ridge")
    anchors, positives, negatives = pairs.rows
    cov_g = _moment(values, pairs.rows.ravel()) / (3 * n)
    return CovarianceStats(
        cov_pos=_moment(values, anchors, positives) / n,
        cov_neg=_moment(values, anchors, negatives) / n,
        cov_g=cov_g + (ridge * np.trace(cov_g) / m) * np.eye(m),
        ridge=ridge,
    )


def tradeoff_matrix(stats: CovarianceStats, alpha: float) -> np.ndarray:
    """Weighted covariance difference steering the sensitivity/specificity
    tradeoff: (1-alpha) * positive moment - alpha * negative moment."""
    return (1.0 - alpha) * stats.cov_pos - alpha * stats.cov_neg


def solve_tradeoff(stats: CovarianceStats, alpha: float, n: int):
    """Closed-form core of the constrained trace minimization.

    Whitens with the symmetric inverse square root of the geometry moment,
    eigendecomposes the whitened tradeoff matrix ascending and keeps at most
    `n` eigenvectors with strictly negative eigenvalues. Returns the
    coefficient matrix (n' x m) and the retained eigenvalues.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"alpha={alpha} outside [0, 1]")
    m = stats.m
    if not 1 <= n < m:
        raise DataError(f"n={n} outside [1, {m})")
    w, vecs = np.linalg.eigh(stats.cov_g)
    if w[0] <= 1e-13 * max(w[-1], 0.0) or w[0] <= 0.0:
        raise NumericalError(
            f"geometry moment is near-singular after ridge {stats.ridge:.1e} "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]); raise the ridge"
        )
    inv_half = (vecs * (1.0 / np.sqrt(w))) @ vecs.T
    whitened = inv_half @ tradeoff_matrix(stats, alpha) @ inv_half
    whitened = 0.5 * (whitened + whitened.T)
    lam, u = np.linalg.eigh(whitened)
    negative = int((lam < 0.0).sum())
    if negative == 0:
        raise NumericalError(
            f"no negative eigenvalues at alpha={alpha}: alpha too small or the "
            f"positive/negative statistics are inseparable"
        )
    achieved = min(n, negative)
    coef = u[:, :achieved].T @ inv_half
    return coef, lam[:achieved].copy()


# ---------------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------------


class AlphaSweepEntry(NamedTuple):
    alpha: float
    fn_at_fixed_fp: float
    fp_at_fixed_fn: float
    achieved_n: int


def _row_distances(values: np.ndarray, rows):
    """Anchor-positive and anchor-negative distances between the rows of
    `values` that the row ids name, TRIPLET_CHUNK triplets at a time."""
    anchors, positives, negatives = rows
    d_pos, d_neg = np.empty(len(anchors)), np.empty(len(anchors))
    for start in range(0, len(anchors), TRIPLET_CHUNK):
        chunk = slice(start, start + TRIPLET_CHUNK)
        a = values[anchors[chunk]]
        d_pos[chunk] = np.linalg.norm(a - values[positives[chunk]], axis=1)
        d_neg[chunk] = np.linalg.norm(a - values[negatives[chunk]], axis=1)
    return d_pos, d_neg


def pair_distances(pairs: PairIndices, per_shape_values: Iterable[np.ndarray]):
    """Distances of the positive and negative pairs, from sampled triplet
    rows plus the per-shape vectors whose stack they index."""
    return _row_distances(_stacked(pairs, per_shape_values), pairs.rows)


def sweep_alpha(
    stats: CovarianceStats,
    alphas: Sequence[float],
    n: int,
    eval_pairs: PairIndices,
    eval_values: Iterable[np.ndarray],
    mode: str = "sensitivity",
    work_point: float = 0.01,
) -> tuple[float, list[AlphaSweepEntry]]:
    """Train once per alpha and score each model on held-out pairs: sampled
    triplet rows plus the per-shape vectors whose stack they index, stacked
    once for the whole sweep.

    Sensitivity mode minimizes the false negative rate at a fixed false
    positive work point; specificity mode minimizes the false positive rate
    at a fixed false negative work point.
    """
    if mode not in ("sensitivity", "specificity"):
        raise DataError(f"mode must be sensitivity or specificity, got {mode!r}")
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise DataError("alpha grid is empty")

    values = _stacked(eval_pairs, eval_values)
    table: list[AlphaSweepEntry] = []
    for alpha in alphas:
        try:
            coef, _ = solve_tradeoff(stats, alpha, n)
        except NumericalError:
            table.append(AlphaSweepEntry(alpha, np.nan, np.nan, 0))
            continue
        # one projection of the held-out rows per alpha keeps a single
        # alpha's distances in memory
        d_pos, d_neg = _row_distances(values @ coef.T, eval_pairs.rows)
        if max(d_pos.max(), d_neg.max()) - min(d_pos.min(), d_neg.min()) == 0.0:
            raise NumericalError(f"degenerate distance distribution at alpha={alpha}: "
                                 "all pair distances equal")
        curve = roc(d_pos, d_neg)
        tp_at_fp, fp_at_fn = work_points(curve, work_point)
        table.append(AlphaSweepEntry(alpha, 1.0 - tp_at_fp, fp_at_fn, len(coef)))

    score = "fn_at_fixed_fp" if mode == "sensitivity" else "fp_at_fixed_fn"
    scores = [getattr(entry, score) for entry in table]
    if np.all(np.isnan(scores)):
        raise NumericalError("every alpha in the sweep failed to train")
    best = alphas[int(np.nanargmin(scores))]
    return best, table
