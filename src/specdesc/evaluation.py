"""Evaluation protocols: ROC with work-point readouts, CMC hit rates against
geodesic-ball ground truth, normalized descriptor distance maps, and report
emission, artefact by artefact (CSV always, self-contained SVG plots,
color-mapped OFF for per-vertex fields)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .container import make_dir, write_table
from .errors import DataError
from .mesh import TriangleMesh, save_coff

__all__ = [
    "RocCurve",
    "CmcCurve",
    "roc",
    "work_points",
    "cmc",
    "distance_maps",
    "emit_report",
]


@dataclass
class RocCurve:
    """Threshold sweep of (false positive rate, true positive rate) points.

    Accepting means "distance below threshold"; positives are pairs that
    should be accepted. Tied distances advance both rates in one step, so
    identical distributions trace the exact diagonal.
    """

    thresholds: np.ndarray  # (k,) ascending; leading -inf for the (0, 0) point
    fp_rate: np.ndarray  # (k,) nondecreasing from 0 to 1
    tp_rate: np.ndarray  # (k,) nondecreasing from 0 to 1
    n_pos: int
    n_neg: int
    auc: float


def roc(distances_pos, distances_neg) -> RocCurve:
    """Build the full ROC curve of a distance-based pair classifier."""
    pos = np.sort(np.asarray(distances_pos, dtype=np.float64))
    neg = np.sort(np.asarray(distances_neg, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise DataError("both distance collections must be nonempty")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise DataError("distances must be finite")
    sweep = np.unique(np.concatenate([pos, neg]))
    tp = np.concatenate([[0], np.searchsorted(pos, sweep, side="right")])
    fp = np.concatenate([[0], np.searchsorted(neg, sweep, side="right")])
    # twice the area in whole counts, divided once: the AUC depends only on
    # the ranking and is correctly rounded
    twice_area = int((np.diff(fp) * (tp[:-1] + tp[1:])).sum())
    return RocCurve(
        thresholds=np.concatenate([[-np.inf], sweep]), fp_rate=fp / neg.size,
        tp_rate=tp / pos.size, n_pos=int(pos.size), n_neg=int(neg.size),
        auc=twice_area / (2 * pos.size * neg.size),
    )


def work_points(curve: RocCurve, rate: float) -> tuple[float, float]:
    """Work-point readouts by linear interpolation along the sweep: the true
    positive rate at false positive rate `rate`, and the false positive rate
    at false negative rate `rate` (i.e. at true positive rate 1 - rate)."""
    if not 0.0 < rate < 1.0:
        raise DataError(f"rate={rate} outside (0, 1)")
    fp, idx = np.unique(curve.fp_rate, return_inverse=True)
    best_tp = np.zeros_like(fp)
    np.maximum.at(best_tp, idx, curve.tp_rate)
    tp, idx = np.unique(curve.tp_rate, return_inverse=True)
    best_fp = np.full_like(tp, np.inf)
    np.minimum.at(best_fp, idx, curve.fp_rate)
    return float(np.interp(rate, fp, best_tp)), float(np.interp(1.0 - rate, tp, best_fp))


@dataclass
class CmcCurve:
    """Cumulative match characteristic: hit rate within the first k matches."""

    hit_rate: np.ndarray  # (K,) nondecreasing, values in [0, 1]
    n_refs: int

    def rank1(self) -> float:
        return float(self.hit_rate[0])


def cmc(
    ref_descriptors: np.ndarray,
    target_field: np.ndarray,
    ground_truth: np.ndarray,
    max_rank: int,
) -> CmcCurve:
    """Rank target vertices by descriptor distance per reference (ties broken
    by vertex index) and accumulate the first-correct-match ranks, counted
    without a sort. `ground_truth` holds one bool row of acceptable target
    vertices per reference, as `mesh.geodesic_balls` returns them."""
    refs = np.atleast_2d(np.asarray(ref_descriptors, dtype=np.float64))
    field = np.atleast_2d(np.asarray(target_field, dtype=np.float64))
    balls = np.asarray(ground_truth, dtype=bool)
    if refs.shape[1] != field.shape[1]:
        raise DataError("reference and target descriptor dimensions differ")
    if balls.shape != (refs.shape[0], field.shape[0]):
        raise DataError("ground truth must hold one row per reference and a column per vertex")
    empty = np.flatnonzero(~balls.any(axis=1))
    if empty.size:
        raise DataError(f"reference {empty[0]}: empty ground-truth ball")
    n_target = field.shape[0]
    if not 1 <= max_rank <= n_target:
        raise DataError(f"max_rank={max_rank} outside [1, {n_target}]")
    first_hit = np.empty(refs.shape[0], dtype=np.int64)
    for i, ref in enumerate(refs):
        dist = np.linalg.norm(field - ref, axis=1)
        # the first correct match comes first in (distance, index) order
        best = int(np.argmin(np.where(balls[i], dist, np.inf)))
        d_best = dist[best]
        first_hit[i] = np.count_nonzero(dist < d_best) + np.count_nonzero(dist[:best] == d_best)
    ranks = np.arange(1, max_rank + 1)
    hit_rate = (first_hit[None, :] < ranks[:, None]).mean(axis=1)
    return CmcCurve(hit_rate=hit_rate, n_refs=refs.shape[0])


def distance_maps(fields: Sequence[np.ndarray], ref_descriptor) -> list[np.ndarray]:
    """Euclidean distance from one reference descriptor to every vertex of
    several shapes, normalized jointly to [0, 1] so the maps share a scale.
    An all-zero group stays all zero."""
    ref = np.asarray(ref_descriptor, dtype=np.float64).ravel()
    raw = []
    for field in fields:
        values = np.atleast_2d(np.asarray(field, dtype=np.float64))
        if values.shape[1] != ref.size:
            raise DataError("descriptor dimensions differ between ref and field")
        raw.append(np.linalg.norm(values - ref, axis=1))
    peak = max((float(r.max()) for r in raw), default=0.0)
    if peak <= 0.0:
        return [np.zeros_like(r) for r in raw]
    return [r / peak for r in raw]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


_COLOR_STOPS = np.array(
    [
        (0.00, 0.00, 0.00, 0.55),
        (0.30, 0.00, 0.75, 0.95),
        (0.50, 0.45, 0.95, 0.45),
        (0.70, 0.98, 0.90, 0.10),
        (1.00, 0.85, 0.10, 0.10),
    ]
)


def _colormap(values: np.ndarray) -> np.ndarray:
    """Blue-to-red map for normalized scalars."""
    t = np.clip(values, 0.0, 1.0)
    stops, channels = _COLOR_STOPS[:, 0], _COLOR_STOPS[:, 1:]
    return np.column_stack([np.interp(t, stops, channels[:, c]) for c in range(3)])


def _thinned(px: np.ndarray, py: np.ndarray, box) -> np.ndarray:
    """Indices, in order, of the pixel-coordinate points a line clipped to
    the (x0, y0, w, h) box draws alike: the points inside the box, plus the
    neighbour on each side of every run of them, so the line still leaves
    the box; and of each run of those in one pixel column, only its first,
    last, lowest and highest point."""
    x0, y0, w, h = box
    inside = (px >= x0) & (px <= x0 + w) & (py >= y0) & (py <= y0 + h)
    near = inside.copy()
    near[1:] |= inside[:-1]
    near[:-1] |= inside[1:]
    idx = np.flatnonzero(near)
    if idx.size == 0:
        return idx
    column = np.floor(px[idx])
    starts = np.flatnonzero(np.r_[True, (np.diff(column) != 0) | (np.diff(idx) != 1)])
    ends = np.r_[starts[1:], idx.size] - 1
    # sorted by height within each run, a run keeps its own positions
    run = np.repeat(np.arange(starts.size), ends - starts + 1)
    by_height = np.lexsort((py[idx], run))
    return idx[np.unique(np.r_[starts, ends, by_height[starts], by_height[ends]])]


def _svg_plot(path: Path, width: int, panels) -> None:
    """A `width` x 320 SVG with one framed line plot per (xs, ys, x_range,
    y_range, box, title) panel, its line clipped to the box and holding
    only the points `_thinned` keeps."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="320" '
        f'viewBox="0 0 {width} 320">'
    ]
    for xs, ys, (xa, xb), (ya, yb), (x0, y0, w, h), title in panels:
        clip = f"clip{x0}x{y0}"
        px = x0 + (np.asarray(xs) - xa) / (xb - xa) * w
        py = y0 + h - (np.asarray(ys) - ya) / (yb - ya) * h
        keep = _thinned(px, py, (x0, y0, w, h))
        px, py = px[keep], py[keep]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts += [
            f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="white" stroke="black"/>',
            f'<clipPath id="{clip}"><rect x="{x0}" y="{y0}" width="{w}" '
            f'height="{h}"/></clipPath>',
            f'<polyline clip-path="url(#{clip})" points="{pts}" fill="none" '
            f'stroke="#1f4e9c" stroke-width="1.2"/>',
            f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="11" '
            f'font-family="sans-serif">{title}</text>',
        ]
    parts.append("</svg>")
    write_table(path, parts)


# rows of a ROC CSV converted to Python scalars per chunk, not per column
ROW_CHUNK = 4096


def _write_roc(out: Path, i: int, curve: RocCurve) -> list[str]:
    name = f"roc_{i:03d}"
    columns = (curve.thresholds, curve.fp_rate, curve.tp_rate)
    rows = (row for start in range(0, len(curve.thresholds), ROW_CHUNK)
            for row in zip(*(c[start:start + ROW_CHUNK].tolist() for c in columns)))
    write_table(out / f"{name}.csv", ["threshold,fp_rate,tp_rate"], rows)
    # two work-point zooms: the low false positive region and the
    # low false negative (high true positive) region
    _svg_plot(out / f"{name}.svg", 640, [
        (curve.fp_rate, curve.tp_rate, (0.0, 0.1), (0.0, 1.0), (30, 20, 270, 270),
         "low FP zoom (FP in [0, 0.1])"),
        (curve.fp_rate, curve.tp_rate, (0.0, 1.0), (0.9, 1.0), (340, 20, 270, 270),
         "low FN zoom (TP in [0.9, 1])"),
    ])
    return [f"{name}.csv", f"{name}.svg"]


def _write_cmc(out: Path, i: int, curve: CmcCurve) -> list[str]:
    name = f"cmc_{i:03d}"
    write_table(out / f"{name}.csv", ["rank,hit_rate"],
                enumerate(curve.hit_rate.tolist(), start=1))
    ranks = np.arange(1, len(curve.hit_rate) + 1)
    _svg_plot(out / f"{name}.svg", 360, [
        (ranks, curve.hit_rate, (1, max(int(ranks[-1]), 2)), (0.0, 1.0),
         (40, 20, 290, 270), "hit rate vs rank"),
    ])
    return [f"{name}.csv", f"{name}.svg"]


def _write_map(out: Path, i: int, item: tuple[np.ndarray, Optional[TriangleMesh]]) -> list[str]:
    name = f"map_{i:03d}"
    values, mesh = item
    values = np.asarray(values, dtype=np.float64)
    write_table(out / f"{name}.csv", ["vertex,value"], enumerate(values.tolist()))
    if mesh is None:
        return [f"{name}.csv"]
    save_coff(mesh, _colormap(values), out / f"{name}.off")
    return [f"{name}.csv", f"{name}.off"]


# the manifest lists the ROC files, then the CMC files, then the maps
_WRITERS = {RocCurve: _write_roc, CmcCurve: _write_cmc, tuple: _write_map}


def emit_report(
    out_dir,
    artefacts: Iterable = (),
    tables: Sequence[tuple[str, Sequence[str], Sequence[Sequence]]] = (),
) -> list[str]:
    """Write each artefact as it arrives: a RocCurve as roc_NNN.csv/.svg, a
    CmcCurve as cmc_NNN.csv/.svg, a (values, mesh or None) distance map as
    map_NNN.csv and, with a mesh, a vertex-colored map_NNN.off. Then write
    each (name, header, rows) table, whose rows may be filled while the
    artefacts are made, and manifest.txt. Returns the manifest: the files of
    each kind in the order of `_WRITERS`, then the tables. An error raised
    by the artefacts or a writer removes the files of every artefact and
    table already written, then is raised again. Deterministic: identical
    inputs produce byte-identical CSV files."""
    fresh = not Path(out_dir).exists()
    out = make_dir(out_dir)
    made = {kind: [] for kind in _WRITERS}  # per kind, each artefact's file names
    written: list[str] = []
    try:
        for item in artefacts:
            kind = next(k for k in _WRITERS if isinstance(item, k))
            made[kind].append(_WRITERS[kind](out, len(made[kind]), item))
        written = [name for per_item in made.values() for files in per_item for name in files]
        for name, header, rows in tables:
            write_table(out / f"{name}.csv", [",".join(header)], rows)
            written.append(f"{name}.csv")
        write_table(out / "manifest.txt", written or [""])
    except BaseException:
        # an error while the artefacts are made or written leaves no report:
        # the files written so far go, and the directory if this call made it
        for name in {*written, *(name for per_item in made.values()
                                 for files in per_item for name in files)}:
            (out / name).unlink(missing_ok=True)
        if fresh and not any(out.iterdir()):
            out.rmdir()
        raise
    return written
