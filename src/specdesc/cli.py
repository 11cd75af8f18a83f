"""Command line pipeline: mesh corpus -> spectra -> descriptors -> training
-> evaluation.

Subcommands: ``synth``, ``spectrum``, ``describe``, ``train``, ``eval``,
``match``. Every config key can be overridden on the command line as
``--key value``. Exit codes: 0 success, 2 usage, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ManifestEntry, PipelineConfig, parse_config, read_manifest
from .container import output_dir, read_file, write_table
from .descriptors import (
    DESCRIPTOR_FAMILIES,
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
from .errors import DataError, NumericalError, ParseError, SpecdescError
from .evaluation import (
    cmc,
    distance_maps,
    emit_report,
    roc,
    work_points,
    write_cmc,
    write_map,
    write_roc,
)
from .laplacian import (
    Spectrum,
    assemble_fem,
    compute_spectrum,
    load_spectrum,
    save_spectrum,
    spectrum_cache_key,
)
from .learning import (
    ShapeSample,
    estimate_covariances,
    pair_distances,
    sample_pair_indices,
    solve_tradeoff,
    sweep_alpha,
)
from .mesh import (
    TriangleMesh,
    farthest_point_sample,
    geodesic_balls,
    intrinsic_diameter,
    load_mesh,
)
from .synth import DEFORMATIONS, SyntheticCorpusSpec, generate_corpus, load_index_map

log = logging.getLogger("specdesc")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# workspace: manifest + caches
# ---------------------------------------------------------------------------


class Workspace:
    """Lazily loads meshes, spectra (one at a time, with a content-addressed
    cache), correspondences and symmetry maps listed in the manifest."""

    def __init__(self, cfg: PipelineConfig, cache_dir: Optional[Path] = None):
        self.cfg = cfg
        manifest_path = cfg.path("manifest")
        self.entries = read_manifest(manifest_path)
        self.base = manifest_path.parent
        self.cache_dir = Path(cache_dir) if cache_dir else self.base / "spectra"
        self._meshes: dict[str, TriangleMesh] = {}
        self._held: Optional[Spectrum] = None  # the one cache entry in memory
        self._held_id: Optional[str] = None  # its shape
        self._file_hashes: dict[str, str] = {}
        self._by_id = {e.shape_id: e for e in self.entries}

    def entry(self, shape_id: str) -> ManifestEntry:
        try:
            return self._by_id[shape_id]
        except KeyError as exc:
            raise DataError(f"shape {shape_id!r} not in the manifest") from exc

    def by_split(self, *splits: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split in splits]

    def mesh(self, entry: ManifestEntry) -> TriangleMesh:
        if entry.shape_id not in self._meshes:
            self._meshes[entry.shape_id] = load_mesh(self.base / entry.path)
        return self._meshes[entry.shape_id]

    def file_hash(self, entry: ManifestEntry) -> str:
        if entry.shape_id not in self._file_hashes:
            raw = read_file(self.base / entry.path, "mesh")
            self._file_hashes[entry.shape_id] = hashlib.sha256(raw).hexdigest()
        return self._file_hashes[entry.shape_id]

    def spectrum(self, entry: ManifestEntry, count: Optional[int] = None,
                 nu: Optional[float] = None) -> Spectrum:
        """The first `count` pairs (default s, at most one per vertex), a
        prefix of the shape's cache entry; with `nu`, the whole entry once it
        reaches that basis cutoff. A miss, or an entry too short for `count`,
        solves `_solve_count(count)` pairs; one short of `nu` is solved again
        once, its count aimed by Weyl's law (eigenvalue count grows linearly
        with frequency). No entry is held while another is read or solved."""
        if count is None:
            count = self.cfg["s"]
        if self._held_id != entry.shape_id:
            self._held, self._held_id = None, entry.shape_id
            cache_path = self._cache_path(entry)
            if cache_path.is_file():
                try:
                    self._held = load_spectrum(cache_path, self.file_hash(entry),
                                               self.cfg["mass_mode"])
                    log.info("spectrum cache hit for %s (s=%d)", entry.shape_id, count)
                except DataError as exc:
                    log.warning("spectrum cache unusable for %s (%s); recomputing",
                                entry.shape_id, exc)
        if self._held is None or self._held.prefix(count) is None:
            self._solve(entry, _solve_count(count))
            log.info("computed spectrum for %s (s=%d)", entry.shape_id, count)
        if nu is None:
            return self._held.prefix(count)
        top = float(self._held.eigenvalues[-1])
        if top * (1.0 + 1e-12) < nu and len(self._held) < self._held.n_vertices:
            log.info("extending spectrum of %s from %d pairs to reach nu=%.4g",
                     entry.shape_id, len(self._held), nu)
            self._solve(entry, _solve_count(math.ceil(len(self._held) * nu / top)))
        return self._held  # geometry_vectors checks the reach

    def _cache_path(self, entry: ManifestEntry) -> Path:
        key = spectrum_cache_key(self.file_hash(entry), self.cfg["mass_mode"])
        return self.cache_dir / f"{entry.shape_id}.{key}.spec"

    def _solve(self, entry: ManifestEntry, count: int) -> None:
        """Solve `count` pairs (at most one per vertex) and make them the
        shape's cache entry, replacing its file and the entry held."""
        self._held = None
        mesh = self._meshes.get(entry.shape_id)
        if mesh is None:  # parsed, not kept: one mesh in memory at a time
            mesh = load_mesh(self.base / entry.path)
        op = assemble_fem(mesh, mass_mode=self.cfg["mass_mode"])
        self._held = compute_spectrum(op, min(count, mesh.n_vertices))
        with output_dir(self.cache_dir) as stage:
            save_spectrum(self._held, self.file_hash(entry), stage / self._cache_path(entry).name)

    def correspondence(self, entry: ManifestEntry) -> Optional[np.ndarray]:
        """Index map of `entry` onto its null shape, or None."""
        if not entry.corr_path:
            return None
        return load_index_map(self.base / entry.corr_path, "corr", self.mesh(entry).n_vertices,
                              self.mesh(self.entry(entry.null_id)).n_vertices)

    def symmetry(self, entry: ManifestEntry) -> Optional[np.ndarray]:
        """Index map of `entry` onto itself, or None."""
        if not entry.sym_path:
            return None
        n = self.mesh(entry).n_vertices
        return load_index_map(self.base / entry.sym_path, "sym", n, n)

    def shape_sample(self, entry: ManifestEntry, sample_refs=True) -> ShapeSample:
        return ShapeSample(
            shape_id=entry.shape_id,
            mesh=self.mesh(entry),
            class_label=entry.class_label,
            correspondence=self.correspondence(entry),
            corr_target=entry.null_id,
            symmetry=self.symmetry(entry),
            sample_refs=sample_refs,
        )


def _solve_count(count: int) -> int:
    """Pairs a solve computes for a request of `count`: headroom so that the
    learned basis cutoff, a high percentile of the training shapes' top
    eigenvalue, is reached by the same solve."""
    return int(count * 1.3) + 8


def _training_basis(ws: Workspace, entries) -> FrequencyBasis:
    """Basis cutoff at the configured percentile of the top eigenvalue over
    the training shapes `entries`."""
    cfg = ws.cfg
    count = cfg["s"]
    if not entries:
        raise DataError("manifest has no train shapes")
    tops = []
    for entry in entries:
        ws.mesh(entry)  # held for the pair sampler, so a cold solve parses it once
        tops.append(float(ws.spectrum(entry).eigenvalues[:count][-1]))  # a float: no view kept
    nu_max = float(np.percentile(tops, cfg["nu_max_percentile"]))
    return FrequencyBasis(nu_max=nu_max, m=cfg["m"])


_SAMPLING_KEYS = ("refs_per_shape", "positives_per_ref", "negatives_per_ref",
                  "cross_negatives_per_ref", "rng_seed")


def _check_classes(ws: Workspace, entries, ref_split: str, prefix: str) -> None:
    """The sampler's one-class failure, met before any spectrum or descriptor
    is read: cross-class negatives need a second class among `entries`."""
    classes = {e.class_label for e in entries}
    if ws.cfg[prefix + "cross_negatives_per_ref"] > 0 and len(classes) == 1:
        raise DataError(f"cross-class negatives requested but the {ref_split} and "
                        f"{ref_split}_neg shapes are all of class {classes.pop()!r}")


def _sample_split(ws: Workspace, entries, ref_split: str, prefix: str):
    """Triplet indices sampled over `entries`, in that order, with references
    on the `ref_split` shapes; they index the per-shape arrays stacked in the
    same order. The counts and seed are the settings named `prefix` +
    _SAMPLING_KEYS: "" for training, "eval_" for evaluation."""
    cfg = ws.cfg
    return sample_pair_indices(
        [ws.shape_sample(entry, sample_refs=entry.split == ref_split) for entry in entries],
        r_frac=cfg["r_frac"],
        big_r_frac=cfg["big_r_frac"],
        diameter_samples=cfg["diameter_samples"],
        **{key: cfg[prefix + key] for key in _SAMPLING_KEYS},
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: Optional[PipelineConfig]) -> int:
    spec = SyntheticCorpusSpec(
        strengths=args.strengths,
        rng_seed=args.seed,
        deformations=tuple(args.deformations.split(",")) if args.deformations else
        SyntheticCorpusSpec.deformations,
    )
    entries = generate_corpus(spec, args.out)
    log.info("wrote %d shapes to %s", len(entries), args.out)
    print(f"synth: {len(entries)} shapes, manifest at {Path(args.out) / 'manifest.csv'}")
    return EXIT_OK


def cmd_spectrum(args, cfg: PipelineConfig) -> int:
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    for entry in ws.entries:
        spectrum = ws.spectrum(entry)
        print(f"{entry.shape_id}: {len(spectrum)} eigenpairs, "
              f"nu_max={spectrum.eigenvalues[-1]:.6g}")
        del spectrum  # no entry outlives its shape's step
    return EXIT_OK


def _describe_field(ws: Workspace, entry: ManifestEntry, family: str,
                    model: Optional[ResponseModel], model_path: Optional[str]) -> np.ndarray:
    cfg = ws.cfg
    n = cfg["n"]
    if family == "learned":
        spectrum = ws.spectrum(entry, nu=model.basis.nu_max)
        try:  # the model's basis against this shape's spectrum
            return apply_response(geometry_vectors(spectrum, model.basis), model)
        except DataError as exc:
            raise DataError(f"{model_path}: shape {entry.shape_id}: {exc}") from exc
    spectrum = ws.spectrum(entry)
    if family == "hks":
        return hks(spectrum, cfg["hks_times"] or hks_default_times(spectrum, n))
    if family == "wks":
        energies, sigma = cfg["wks_energies"], cfg["wks_sigma"]
        if not energies or sigma is None:
            default_e, default_sigma = wks_default_bands(spectrum, n)
            energies = energies or default_e
            sigma = default_sigma if sigma is None else sigma
        return wks(spectrum, energies, sigma)
    if family == "shapedna":
        return shape_dna_field(spectrum, n)
    raise DataError(f"unknown descriptor family {family!r}")


def cmd_describe(args, cfg: PipelineConfig) -> int:
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    model = None
    if args.family == "learned":
        if not args.model:
            raise DataError("--model is required for the learned family")
        model = load_response_model(args.model)
    with output_dir(args.out) as stage:
        for entry in ws.entries:
            values = _describe_field(ws, entry, args.family, model, args.model)
            name = f"{entry.shape_id}.{args.family}"
            save_descriptor_binary(values, args.family, stage / f"{name}.dsc")
            save_descriptor_csv(values, stage / f"{name}.csv")
            log.info("described %s (%s, n=%d)", entry.shape_id, args.family, values.shape[1])
    print(f"describe: {len(ws.entries)} shapes -> {args.out}")
    return EXIT_OK


_REPORT_NOTE = (
    "# geometry-vector moment estimated over all sampled vectors "
    "(anchors, positives, negatives)"
)


def cmd_train(args, cfg: PipelineConfig) -> int:
    """Sweep the alpha grid on the held-out split unless the config pins
    alpha (`--alpha ""` unpins it), then solve once at the chosen alpha."""
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    best_alpha = cfg["alpha"]
    val_entries = ws.by_split("val", "val_neg") if best_alpha is None else []
    with output_dir(args.out) as stage:
        if best_alpha is None and not val_entries:
            raise DataError("manifest has no val shapes")
        entries = ws.by_split("train", "train_neg")
        for shapes, split in ((entries, "train"), (val_entries, "val")):
            _check_classes(ws, shapes, split, "")
        basis = _training_basis(ws, entries)
        train_pairs = _sample_split(ws, entries, "train", "")
        log.info("training pairs: %d triplets %s", len(train_pairs), train_pairs.tag_counts())

        def vectors(shapes):  # a generator: one shape's vectors at a time beside their stack
            return (geometry_vectors(ws.spectrum(e, nu=basis.nu_max), basis) for e in shapes)

        stats = estimate_covariances(train_pairs, vectors(entries), ridge=cfg["ridge"])
        del train_pairs  # the sweep's held-out data takes its place
        n = cfg["n"]
        table = []
        if best_alpha is None:
            best_alpha, table = sweep_alpha(
                stats,
                cfg["alpha_grid"],
                n,
                _sample_split(ws, val_entries, "val", ""),
                vectors(val_entries),
                mode=cfg["mode"],
                work_point=cfg["work_point"],
            )
            log.info("alpha sweep selected %.4g (%s mode)", best_alpha, cfg["mode"])
        coef, lam = solve_tradeoff(stats, best_alpha, n)
        model = ResponseModel(basis=basis, coefficients=coef)
        if model.n < n:
            log.warning("only %d of %d descriptor dimensions are feasible", model.n, n)
        save_response_model(model, stage / "model.json")
        write_table(stage / "training_report.csv",
                    [_REPORT_NOTE, "alpha,fn_at_fixed_fp,fp_at_fixed_fn,achieved_n"], table)
    print(f"train: alpha={best_alpha:.4g} achieved_n={model.n} "
          f"objective={float(lam.sum()):.6g} -> {Path(args.out) / 'model.json'}")
    return EXIT_OK


def _load_family_fields(ws: Workspace, family: str, directory: Path,
                        entries) -> dict[str, np.ndarray]:
    """Each entry's `family` descriptor values, checked against the mesh's
    vertex count and the family's first file's columns."""
    fields = {}
    first = None  # path and column count of the family's first file
    for entry in entries:
        path = directory / f"{entry.shape_id}.{family}.dsc"
        values = load_descriptor_binary(path, family)
        rows, dim = values.shape
        n = ws.mesh(entry).n_vertices
        if rows != n:
            raise DataError(f"{path}: {rows} rows for a mesh with {n} vertices")
        if first is None:
            first = (path, dim)
        elif dim != first[1]:
            raise DataError(f"{path}: {dim} columns, but {first[0]} has {first[1]}")
        fields[entry.shape_id] = values
    return fields


def _parse_family_dirs(specs) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for item in specs:
        if "=" not in item:
            raise DataError(f"--descriptors expects family=dir, got {item!r}")
        family, _, directory = item.partition("=")
        if family in out:
            raise DataError(f"--descriptors names family {family!r} more than once")
        out[family] = Path(directory)
    if not out:
        raise DataError("no descriptor families given")
    return out


def cmd_eval(args, cfg: PipelineConfig) -> int:
    """ROC, CMC and distance maps one family at a time: each family's fields
    are read, its report files staged as they are made, and its fields
    dropped before the next family's are read. The report is committed whole
    once every family has passed, so a bad input leaves `--out` as it was."""
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    family_dirs = _parse_family_dirs(args.descriptors)
    eval_entries = ws.by_split("eval")
    neg_entries = ws.by_split("eval_neg")
    if not eval_entries:
        raise DataError("manifest has no eval shapes")
    source, target = _cmc_pair(ws, eval_entries)
    all_entries = eval_entries + neg_entries
    _check_classes(ws, all_entries, "eval", "eval_")
    families = list(family_dirs)
    # CMC references: farthest points of the source in the descriptor space
    # of the learned family, else the first family
    fps_family = "learned" if "learned" in families else families[0]
    n_refs = min(cfg["cmc_refs"], ws.mesh(source).n_vertices)
    refs = farthest_point_sample(_load_family_fields(
        ws, fps_family, family_dirs[fps_family], [source])[source.shape_id], n_refs)
    indices = _sample_split(ws, all_entries, "eval", "eval_")
    log.info("eval triplets: %d", len(indices))

    # CMC set-up shared by the families: the references followed into the
    # target through the inverted correspondence (it maps the target into
    # the source), and their ground-truth balls on the target
    corr = ws.correspondence(target)
    inverse = -np.ones(ws.mesh(source).n_vertices, dtype=np.int64)
    inverse[corr[corr >= 0]] = np.flatnonzero(corr >= 0)
    refs = refs[inverse[refs] >= 0]
    if refs.size == 0:
        raise DataError("no CMC references carry over to the target shape")
    target_mesh = ws.mesh(target)
    radius = cfg["ball_radius_frac"] * intrinsic_diameter(target_mesh, cfg["diameter_samples"])
    # no ball is empty: each centre lies in its own closed ball
    [balls] = geodesic_balls(target_mesh, inverse[refs], ws.symmetry(target), (radius,))
    max_rank = max(1, round(cfg["cmc_rank_frac"] * target_mesh.n_vertices))

    work_point = cfg["work_point"]
    map_group = [source, target] + neg_entries[:1]
    roc_rows, cmc_rows = [], []
    roc_files, cmc_files, map_files = [], [], []

    def report_family(stage, i, family):
        """Stage the family's ROC, CMC and map files; its fields go on return."""
        fields = _load_family_fields(ws, family, family_dirs[family], all_entries)
        try:
            curve = roc(*pair_distances(indices, [fields[e.shape_id] for e in all_entries]))
        except DataError as exc:
            raise DataError(f"{family_dirs[family]}: {family} descriptors: {exc}") from exc
        tp_at_fp, fp_at_fn = work_points(curve, work_point)
        tn_at_fn = 1.0 - fp_at_fn
        roc_rows.append((family, curve.auc, tp_at_fp, tn_at_fn))
        log.info("%s: AUC %.4f TP@FP=%g %.4f TN@FN=%g %.4f",
                 family, curve.auc, work_point, tp_at_fp, work_point, tn_at_fn)
        roc_files.extend(write_roc(stage, i, curve))
        ref_values = fields[source.shape_id][refs]
        hit_rate = cmc(ref_values, fields[target.shape_id], balls, max_rank)
        cmc_rows.append((family, float(hit_rate[0]), max_rank))
        log.info("cmc %s: rank-1 %.4f (K=%d, %d refs)",
                 family, hit_rate[0], max_rank, len(refs))
        cmc_files.extend(write_cmc(stage, i, hit_rate))
        maps = distance_maps([fields[e.shape_id] for e in map_group], ref_values[0])
        for j, (values, entry) in enumerate(zip(maps, map_group), i * len(map_group)):
            map_files.extend(write_map(stage, j, values, ws.mesh(entry)))

    out = Path(args.out)
    with output_dir(out) as stage:
        for i, family in enumerate(families):
            report_family(stage, i, family)
        written = emit_report(stage, roc_files + cmc_files + map_files, tables=[
            ("roc_workpoints", ["family", "auc", "tp_at_fp", "tn_at_fn"], roc_rows),
            ("cmc_rank1", ["family", "rank1_hit_rate", "max_rank"], cmc_rows)])
    print(f"eval: {len(written)} files -> {out} (families: {', '.join(families)})")
    return EXIT_OK


def _cmc_pair(ws: Workspace, eval_entries):
    """Pick the null eval shape and its evaluation partner (a mid-strength
    near-isometry with a correspondence map by default, overridable via
    config)."""
    nulls = [e for e in eval_entries if not e.null_id]
    if not nulls:
        raise DataError("eval split has no null shape for the CMC protocol")
    source = nulls[0]
    target_id = ws.cfg["cmc_target"].strip()
    if target_id:
        target = ws.entry(target_id)
        if target.split not in ("eval", "eval_neg"):
            raise DataError(f"cmc_target={target_id}: in split {target.split}, "
                            "not eval or eval_neg")
        if target.null_id != source.shape_id:
            raise DataError(f"cmc_target={target_id}: its null shape is "
                            f"{target.null_id or 'unset'}, not the CMC source {source.shape_id}")
        if not target.corr_path:
            raise DataError(f"{target_id}: CMC target has no correspondence")
        return source, target
    partners = [e for e in eval_entries if e.null_id == source.shape_id and e.corr_path]
    if not partners:
        raise DataError("no transformed eval shape with a correspondence map")
    bends = [e for e in partners if "bend" in e.shape_id]
    pool = bends or partners
    return source, pool[len(pool) // 2]


def cmd_match(args, cfg: PipelineConfig) -> int:
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    [(family, directory)] = _parse_family_dirs([args.descriptors]).items()
    source = ws.entry(args.source)
    target = ws.entry(args.target)
    fields = _load_family_fields(ws, family, directory, [source, target])
    source_values = fields[source.shape_id]
    refs = farthest_point_sample(source_values, min(args.refs, len(source_values)))
    target_values = fields[target.shape_id]
    rows = []
    for ref in refs.tolist():
        dist = np.linalg.norm(target_values - source_values[ref], axis=1)
        order = np.argsort(dist, kind="stable")[: args.top]
        rows += ([ref, rank, tv, d] for rank, (tv, d) in
                 enumerate(zip(order.tolist(), dist[order].tolist()), start=1))
    [values] = distance_maps([target_values], source_values[refs[0]])
    out = Path(args.out)
    with output_dir(out) as stage:
        emit_report(stage, write_map(stage, 0, values, ws.mesh(target)),
                    tables=[("matches", ["ref_vertex", "rank", "target_vertex", "distance"], rows)])
    print(f"match: {len(refs)} references ({family}) -> {out / 'matches.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _at_least_one(text: str) -> int:
    """The argparse type of `match --refs` and `--top`."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return value


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    # abbreviation matching must stay off: unknown --key flags are config
    # overrides and must not bind to prefixes of real options
    parser = argparse.ArgumentParser(
        prog="specdesc",
        description="Spectral descriptor pipeline for deformable shapes",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    p = sub.add_parser("synth", help="generate the synthetic shape corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strengths", type=int, default=5)
    p.add_argument("--deformations", default="", help="comma list among " + ",".join(DEFORMATIONS))
    p.set_defaults(func=cmd_synth, needs_config=False)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--spectrum-cache", default=None)

    p = sub.add_parser("spectrum", help="compute and cache spectra")
    common(p)
    p.set_defaults(func=cmd_spectrum, needs_config=True)

    p = sub.add_parser("describe", help="write descriptor fields per shape")
    common(p)
    p.add_argument("--family", required=True, choices=DESCRIPTOR_FAMILIES)
    p.add_argument("--model", default=None, help="model file for --family learned")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_describe, needs_config=True)

    p = sub.add_parser("train", help="train the optimal response model")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, needs_config=True)

    p = sub.add_parser("eval", help="ROC/CMC/distance-map evaluation report")
    common(p)
    p.add_argument("--descriptors", nargs="+", required=True,
                   metavar="FAMILY=DIR")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval, needs_config=True)

    p = sub.add_parser("match", help="rank best matches for sampled references")
    common(p)
    p.add_argument("--descriptors", required=True, metavar="FAMILY=DIR")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--refs", type=_at_least_one, default=25)
    p.add_argument("--top", type=_at_least_one, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match, needs_config=True)

    return parser


def _apply_overrides(cfg: Optional[PipelineConfig], extra: list[str]) -> None:
    """Interpret leftover arguments as ``--key value`` config overrides; a
    command without a config takes none."""
    for i in range(0, len(extra), 2):
        if cfg is None or not extra[i].startswith("--"):
            raise ParseError(f"unrecognized arguments: {' '.join(extra[i:])}")
        if i + 1 == len(extra):
            raise ParseError(f"bad override: {extra[i]} has no value")
        if extra[i] in extra[:i:2]:
            raise ParseError(f"bad override: {extra[i]} given more than once")
        cfg.override(extra[i][2:], extra[i + 1])


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = parse_config(args.config) if args.needs_config else None
        try:
            _apply_overrides(cfg, extra)
        except (ParseError, DataError) as exc:
            parser.print_usage(sys.stderr)
            log.error("%s", exc)
            return EXIT_USAGE
        if cfg is not None:
            cfg.check()
        return args.func(args, cfg)
    except NumericalError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except SpecdescError as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
