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
from .container import make_dir, read_file, write_table
from .descriptors import (
    DESCRIPTOR_FAMILIES,
    DescriptorField,
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
        self._last: tuple[Optional[str], Optional[Spectrum]] = (None, None)  # id, entry
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

    def spectrum(self, entry: ManifestEntry, count: Optional[int] = None) -> Spectrum:
        """The first `count` eigenpairs (at most one per vertex), served as a
        prefix of the shape's cache entry; a miss, or an entry too short for
        the request, solves `_solve_count(count)` pairs into the entry."""
        if count is None:
            count = self.cfg["s"]
        shape_id, cached = self._last
        if shape_id != entry.shape_id:
            cached = self._load_entry(entry)
            if cached is not None:
                log.info("spectrum cache hit for %s (s=%d)", entry.shape_id, count)
        served = cached.prefix(count) if cached is not None else None
        if served is None:
            served = self._solve(entry, _solve_count(count)).prefix(count)
            log.info("computed spectrum for %s (s=%d)", entry.shape_id, count)
        return served

    def spectrum_reaching(self, entry: ManifestEntry, nu_target: float) -> Spectrum:
        """The shape's cache entry once it covers `nu_target` (basis cutoff).
        An entry that falls short is solved again once, its count aimed by
        Weyl's law (eigenvalue count grows linearly with frequency)."""
        self.spectrum(entry)
        spectrum = self._last[1]
        top = float(spectrum.eigenvalues[-1])
        if top * (1.0 + 1e-12) >= nu_target or len(spectrum) >= spectrum.n_vertices:
            return spectrum
        aim = math.ceil(len(spectrum) * nu_target / top)
        log.info("extending spectrum of %s from %d pairs to reach nu=%.4g",
                 entry.shape_id, len(spectrum), nu_target)
        return self._solve(entry, _solve_count(aim))  # geometry_vectors checks the reach

    def _cache_path(self, entry: ManifestEntry) -> Path:
        key = spectrum_cache_key(self.file_hash(entry), self.cfg["mass_mode"])
        return self.cache_dir / f"{entry.shape_id}.{key}.spec"

    def _load_entry(self, entry: ManifestEntry) -> Optional[Spectrum]:
        """The shape's cache file, which replaces the entry held (an earlier
        shape's is read again); None when it is missing or unusable. A hit
        parses no mesh."""
        self._last = (None, None)  # released before this shape's is read
        cache_path = self._cache_path(entry)
        if not cache_path.is_file():
            return None
        try:
            spectrum = load_spectrum(cache_path, self.file_hash(entry))
        except DataError as exc:
            log.warning("spectrum cache unusable for %s (%s); recomputing",
                        entry.shape_id, exc)
            return None
        self._last = (entry.shape_id, spectrum)
        return spectrum

    def _solve(self, entry: ManifestEntry, count: int) -> Spectrum:
        """Solve `count` pairs (at most one per vertex) and make them the
        shape's cache entry, replacing its file."""
        mesh = load_mesh(self.base / entry.path)  # not kept: one mesh in memory at a time
        op = assemble_fem(mesh, mass_mode=self.cfg["mass_mode"])
        spectrum = compute_spectrum(op, min(count, mesh.n_vertices))
        make_dir(self.cache_dir)
        save_spectrum(spectrum, self.file_hash(entry), self._cache_path(entry))
        self._last = (entry.shape_id, spectrum)
        return spectrum

    def geometry_vectors(self, entry: ManifestEntry, basis: FrequencyBasis) -> np.ndarray:
        return geometry_vectors(self.spectrum_reaching(entry, basis.nu_max), basis)

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


def _training_basis(ws: Workspace) -> FrequencyBasis:
    """Basis cutoff at the configured percentile of the top eigenvalue over
    the training shapes."""
    cfg = ws.cfg
    count = cfg["s"]
    entries = ws.by_split("train", "train_neg")
    if not entries:
        raise DataError("manifest has no train shapes")
    tops = []
    for entry in entries:
        spectrum = ws.spectrum(entry)
        tops.append(float(spectrum.eigenvalues[min(count, len(spectrum)) - 1]))
    nu_max = float(np.percentile(tops, cfg["nu_max_percentile"]))
    return FrequencyBasis(nu_max=nu_max, m=cfg["m"])


_SAMPLING_KEYS = ("refs_per_shape", "positives_per_ref", "negatives_per_ref",
                  "cross_negatives_per_ref", "rng_seed")


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
    return EXIT_OK


def _describe_field(ws: Workspace, entry: ManifestEntry, family: str,
                    model: Optional[ResponseModel], model_path: Optional[str]) -> DescriptorField:
    cfg = ws.cfg
    n = cfg["n"]
    if family == "learned":
        spectrum = ws.spectrum_reaching(entry, model.basis.nu_max)
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
    out = make_dir(args.out)
    # every shape is described before any file is written, so a failure
    # leaves no partial result in `out`
    fields = [_describe_field(ws, entry, args.family, model, args.model)
              for entry in ws.entries]
    for entry, field in zip(ws.entries, fields):
        save_descriptor_binary(field, out / f"{entry.shape_id}.{args.family}.dsc")
        save_descriptor_csv(field, out / f"{entry.shape_id}.{args.family}.csv")
        log.info("described %s (%s, n=%d)", entry.shape_id, args.family, field.dim)
    print(f"describe: {len(ws.entries)} shapes -> {out}")
    return EXIT_OK


_REPORT_NOTE = (
    "# geometry-vector moment estimated over all sampled vectors "
    "(anchors, positives, negatives)"
)


def cmd_train(args, cfg: PipelineConfig) -> int:
    """Sweep the alpha grid on the held-out split unless the config pins
    alpha (`--alpha ""` unpins it), then solve once at the chosen alpha."""
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    out = make_dir(args.out)
    basis = _training_basis(ws)
    entries = ws.by_split("train", "train_neg")
    train_pairs = _sample_split(ws, entries, "train", "")
    log.info("training pairs: %d triplets %s", len(train_pairs), train_pairs.tag_counts())
    # generators: one shape's vectors at a time beside their stack
    stats = estimate_covariances(train_pairs, (ws.geometry_vectors(e, basis) for e in entries),
                                 ridge=cfg["ridge"])
    del train_pairs  # the sweep's held-out data takes its place
    n = cfg["n"]
    table = []
    best_alpha = cfg["alpha"]
    if best_alpha is None:
        entries = ws.by_split("val", "val_neg")
        best_alpha, table = sweep_alpha(
            stats,
            cfg["alpha_grid"],
            n,
            _sample_split(ws, entries, "val", ""),
            (ws.geometry_vectors(e, basis) for e in entries),
            mode=cfg["mode"],
            work_point=cfg["work_point"],
        )
        log.info("alpha sweep selected %.4g (%s mode)", best_alpha, cfg["mode"])
    coef, lam = solve_tradeoff(stats, best_alpha, n)
    model = ResponseModel(basis=basis, coefficients=coef)
    if model.n < n:
        log.warning("only %d of %d descriptor dimensions are feasible", model.n, n)
    save_response_model(model, out / "model.json")
    write_table(out / "training_report.csv",
                [_REPORT_NOTE, "alpha,fn_at_fixed_fp,fp_at_fixed_fn,achieved_n"], table)
    print(f"train: alpha={best_alpha:.4g} achieved_n={model.n} "
          f"objective={float(lam.sum()):.6g} -> {out / 'model.json'}")
    return EXIT_OK


def _load_family_fields(ws: Workspace, family: str, directory: Path,
                        entries) -> dict[str, np.ndarray]:
    """Each entry's `family` descriptor values, checked against the header's
    family, the mesh's vertex count and the family's first file's columns."""
    fields = {}
    first = None  # path and column count of the family's first file
    for entry in entries:
        path = directory / f"{entry.shape_id}.{family}.dsc"
        field = load_descriptor_binary(path)
        if field.family != family:
            raise DataError(f"{path}: holds {field.family!r} descriptors, not {family!r}")
        n = ws.mesh(entry).n_vertices
        if len(field) != n:
            raise DataError(f"{path}: {len(field)} rows for a mesh with {n} vertices")
        if first is None:
            first = (path, field.dim)
        elif field.dim != first[1]:
            raise DataError(f"{path}: {field.dim} columns, but {first[0]} has {first[1]}")
        fields[entry.shape_id] = field.values
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
    """ROC, CMC and distance maps one family at a time. Every input is
    checked before the first file is written, so a bad one leaves no report;
    then each family's fields are read, its report files written as they are
    made, and its fields dropped before the next family's are read."""
    ws = Workspace(cfg, cache_dir=args.spectrum_cache)
    family_dirs = _parse_family_dirs(args.descriptors)
    eval_entries = ws.by_split("eval")
    neg_entries = ws.by_split("eval_neg")
    if not eval_entries:
        raise DataError("manifest has no eval shapes")
    source, target = _cmc_pair(ws, eval_entries)
    all_entries = eval_entries + neg_entries
    families = list(family_dirs)
    fps_family = "learned" if "learned" in families else families[0]
    n_refs = min(cfg["cmc_refs"], ws.mesh(source).n_vertices)
    refs = None

    def checked(family):
        """The family's fields, checked; the CMC references are sampled on
        the source in the FPS family's descriptor space as it passes."""
        nonlocal refs
        fields = _load_family_fields(ws, family, family_dirs[family], all_entries)
        if family == fps_family:
            refs = farthest_point_sample(fields[source.shape_id], n_refs)
        return fields

    # every family is checked before the first write, the last one first, so
    # the first family's fields are the ones held for its own pass
    for family in families[:0:-1]:
        checked(family)
    held = [checked(families[0])]
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

    def family_artefacts(family):
        """The family's ROC curve, CMC curve and distance maps, each yielded
        as soon as it is made; its fields go with this generator."""
        fields = held.pop() if held else _load_family_fields(
            ws, family, family_dirs[family], all_entries)
        curve = roc(*pair_distances(indices, [fields[e.shape_id] for e in all_entries]))
        tp_at_fp, fp_at_fn = work_points(curve, work_point)
        tn_at_fn = 1.0 - fp_at_fn
        roc_rows.append((family, curve.auc, tp_at_fp, tn_at_fn))
        log.info("%s: AUC %.4f TP@FP=%g %.4f TN@FN=%g %.4f",
                 family, curve.auc, work_point, tp_at_fp, work_point, tn_at_fn)
        yield curve
        ref_values = fields[source.shape_id][refs]
        hits = cmc(ref_values, fields[target.shape_id], balls, max_rank)
        cmc_rows.append((family, hits.rank1(), max_rank))
        log.info("cmc %s: rank-1 %.4f (K=%d, %d refs)",
                 family, hits.rank1(), max_rank, hits.n_refs)
        yield hits
        group = [fields[e.shape_id] for e in map_group]
        yield from zip(distance_maps(group, ref_values[0]), map(ws.mesh, map_group))

    out = Path(args.out)
    artefacts = (item for family in families for item in family_artefacts(family))
    written = emit_report(out, artefacts, tables=[
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
    maps = distance_maps([target_values], source_values[refs[0]])
    out = Path(args.out)
    emit_report(out, [(maps[0], ws.mesh(target))],
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
