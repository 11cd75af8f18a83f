#!/usr/bin/env python3
"""Benchmark of the specdesc pipeline, driven through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root. Each workload synthesizes a corpus with
``specdesc synth --seed N``, prepares its starting state, then repeats its
command sequence as many times as fits in S seconds (at least once), one
``specdesc`` command per child process. Every command's exit code and output
files are checked, and model and report bytes are compared with the first
run of the same source tree. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the full run record (provenance, digests, checks,
per-function trace).

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` one
more pass runs with every command under ``perfbench/traced_cli.py`` and the
metrics are the per-layer ones. ``perfbench/README.md`` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"
WORK = ROOT / ".perfbench_work"

RUN_BUDGET_S = 165.0  # a run must end within 180 s, set-up included
UNTRACED = ["-c", "import sys; from specdesc.cli import main; sys.exit(main())"]
TRACED_CLI = HERE / "traced_cli.py"


@dataclass(frozen=True)
class Scale:
    """How the acceptance corpus is cut down so that a run fits the time
    budget: extra ``synth`` arguments and config keys replaced in
    ``CORPUS_CONFIG``."""

    synth_args: tuple[str, ...]
    overrides: dict[str, str]


# 18 shapes: every base shape, bends of the two articulated shapes at
# strengths 1 (train/eval) and 2 (validation/eval)
SCALE = Scale(
    synth_args=("--strengths", "2", "--deformations", "bend"),
    overrides={"s": "40"},
)
# the same corpus with few references, for the benchmark's own smoke test
MINI_SCALE = Scale(
    synth_args=SCALE.synth_args,
    overrides={
        "s": "30", "m": "20", "refs_per_shape": "4", "negatives_per_ref": "40",
        "cross_negatives_per_ref": "20", "eval_refs_per_shape": "4",
        "eval_negatives_per_ref": "40", "eval_cross_negatives_per_ref": "20",
        "cmc_refs": "40",
    },
)
MATCH = ("multisphere", "multisphere_bend_2")  # source and target of `match`


# ---------------------------------------------------------------------------
# metric definitions (BENCHMARK.json is generated from these)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


# Bounds: on the shared 2-core machine this was tuned on, runs a minute apart
# differ by up to 35% in wall time, so timings get the widest bound allowed;
# the quality metrics are deterministic for a seed and vary little across seeds
END_TO_END = [
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("success_rate", "ratio", "higher", 0.01),
    Metric("learned_tp_at_fp", "ratio", "higher", 0.05),
    Metric("learned_rank1", "ratio", "higher", 0.15),
    Metric("val_fn_at_fp", "ratio", "lower", 0.25),
]

COMMANDS = ("spectrum", "train", "describe", "eval", "match")
LAYERS = ("mesh", "laplacian", "descriptors", "learning", "evaluation", "synth", "cli")
# functions reported as <name>.self_s and <name>.calls
TIMED = (
    "mesh.load_mesh", "mesh.intrinsic_diameter", "mesh.geodesic_distance_fields",
    "mesh.farthest_point_sample",
    "laplacian.compute_spectrum", "laplacian.assemble_fem", "laplacian.load_spectrum",
    "laplacian.save_spectrum",
    "descriptors.geometry_vectors", "descriptors.hks", "descriptors.wks",
    "descriptors.save_descriptor_csv", "descriptors.save_descriptor_binary",
    "descriptors.load_descriptor_binary",
    "learning.sample_pair_indices", "learning.build_pairs", "learning.PairIndices.gather",
    "learning.estimate_covariances", "learning.sweep_alpha", "learning.pair_distances",
    "learning.solve_response",
    "evaluation.roc", "evaluation.cmc", "evaluation.match_ground_truth",
    "evaluation.emit_report",
    "synth.generate_corpus",
)


def _per_layer_metrics() -> list[Metric]:
    metrics = [Metric("cli.import.self_s", "s", "lower")]
    for cmd in COMMANDS:
        metrics += [Metric(f"cli.{cmd}.wall_s", "s", "lower"),
                    Metric(f"cli.{cmd}.self_s", "s", "lower"),
                    Metric(f"cli.{cmd}.peak_rss_mb", "MB", "lower")]
    for name in TIMED:
        metrics += [Metric(f"{name}.self_s", "s", "lower"),
                    Metric(f"{name}.calls", "count", "lower")]
    metrics += [Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    metrics += [
        Metric("laplacian.eigenpairs_solved", "count", "lower"),
        Metric("laplacian.load_spectrum.bytes_read", "B", "lower"),
        Metric("laplacian.save_spectrum.bytes_written", "B", "lower"),
        Metric("laplacian.cache_hit_ratio", "ratio", "higher"),
        Metric("laplacian.cache_files", "count", "lower"),
        Metric("laplacian.cache_bytes", "B", "lower"),
        Metric("descriptors.save_descriptor_csv.bytes_written", "B", "lower"),
        Metric("learning.sample_pair_indices.triplets", "count", "lower"),
        Metric("learning.build_pairs.rss_rise_mb", "MB", "lower"),
        Metric("learning.estimate_covariances.rss_rise_mb", "MB", "lower"),
        Metric("learning.triplet_bytes", "B", "lower"),
        Metric("learning.ref_resamples", "count", "lower"),
        Metric("learning.ref_accept_ratio", "ratio", "higher"),
        Metric("evaluation.report_bytes", "B", "lower"),
        Metric("trace.coverage", "ratio", "higher"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
    ]
    return metrics


PER_LAYER = _per_layer_metrics()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Dirs:
    """Paths of one set-up: config, corpus, spectrum cache and outputs."""

    def __init__(self, base: Path):
        self.base = base
        self.config = base / "config.cfg"
        self.corpus = base / "corpus"
        self.cache = self.corpus / "spectra"  # the CLI's default cache location
        self.logs = base / "logs"

    def out(self, name: str) -> Path:
        """An output directory of the pipeline, e.g. ``train_sens``."""
        return self.base / name


def _describe(d: Dirs, family: str, out: str, model: Optional[str] = None) -> list:
    argv = ["describe", "--config", d.config, "--family", family, "--out", d.out(out)]
    return argv + (["--model", d.out(model) / "model.json"] if model else [])


def _train(d: Dirs, mode: str, out: str) -> list:
    return ["train", "--config", d.config, "--mode", mode, "--out", d.out(out)]


def _eval(d: Dirs, learned: str, out: str) -> list:
    specs = [f"hks={d.out('desc')}", f"wks={d.out('desc')}", f"learned={d.out(learned)}"]
    return ["eval", "--config", d.config, "--descriptors", *specs, "--out", d.out(out)]


def _match(d: Dirs) -> list:
    source, target = MATCH
    return ["match", "--config", d.config, "--descriptors", f"learned={d.out('desc_sens')}",
            "--source", source, "--target", target, "--out", d.out("match")]


@dataclass
class Workload:
    why: str
    prepare: Callable[[Dirs], list]  # untimed, part of set-up
    commands: Callable[[Dirs], list]  # one timed pass
    cold: bool = False  # empty the spectrum cache before each pass


WORKLOADS = {
    "cold_pipeline": Workload(
        why="first run over new shapes: each pass starts from an empty spectrum cache, "
            "so eigensolves, cache writes and pair-trained filters dominate",
        prepare=lambda d: [_describe(d, "hks", "desc"), _describe(d, "wks", "desc")],
        commands=lambda d: [
            ["spectrum", "--config", d.config],
            _train(d, "sensitivity", "train_sens"),
            _describe(d, "learned", "desc_sens", model="train_sens"),
            _eval(d, "desc_sens", "report_sens"),
        ],
        cold=True,
    ),
    "warm_eval": Workload(
        why="re-evaluating descriptor families with cached spectra and models: mesh "
            "loading, descriptor files and reports dominate; no solve and no training run",
        prepare=lambda d: [_train(d, "sensitivity", "train_sens"),
                              _train(d, "specificity", "train_spec"),
                              _describe(d, "learned", "desc_sens", model="train_sens")],
        commands=lambda d: [
            _describe(d, "hks", "desc"), _describe(d, "wks", "desc"),
            _describe(d, "shapedna", "desc"),
            _describe(d, "learned", "desc_sens", model="train_sens"),
            _describe(d, "learned", "desc_spec", model="train_spec"),
            _eval(d, "desc_sens", "report_sens"), _eval(d, "desc_spec", "report_spec"),
            _match(d),
        ],
    ),
}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def corpus_config() -> str:
    """``CORPUS_CONFIG`` from tests/conftest.py, read without importing the
    test module (which needs pytest)."""
    tree = ast.parse(CONFTEST.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CORPUS_CONFIG" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"{CONFTEST}: no CORPUS_CONFIG")


def scaled_config(text: str, overrides: dict[str, str]) -> str:
    missing = set(overrides)
    lines = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in overrides:
            line = f"{key} = {overrides[key]}"
            missing.discard(key)
        lines.append(line)
    if missing:
        raise RuntimeError(f"CORPUS_CONFIG has no key(s) {sorted(missing)}")
    return "\n".join(lines) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One finished ``specdesc`` command."""

    argv: list
    wall_s: float
    rss_mb: float
    code: int
    stderr: Path
    trace: Optional[Path] = None
    problems: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.argv[0])

    @property
    def out(self) -> Optional[Path]:
        return Path(self.argv[self.argv.index("--out") + 1]) if "--out" in self.argv else None


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.serial = 0

    def run(self, argv: list, logs: Path, trace: bool = False) -> Run:
        argv = [str(a) for a in argv]
        self.serial += 1
        stem = logs / f"{self.serial:03d}_{argv[0]}"
        logs.mkdir(parents=True, exist_ok=True)
        trace_path = stem.with_suffix(".trace.json") if trace else None
        prefix = [str(TRACED_CLI), str(trace_path), "--"] if trace else UNTRACED
        timeout = max(1.0, self.deadline - time.monotonic())
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *prefix, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = Run(argv, wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path, trace_path)
        if run.code != 0:
            run.problems.append(f"exit code {run.code}")
        return run


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

RATE_COLUMNS = {"fp_rate", "tp_rate", "hit_rate", "auc", "tp_at_fp", "tn_at_fn",
                "rank1_hit_rate", "fn_at_fixed_fp", "fp_at_fixed_fn"}


def read_csv(path: Path) -> list[dict]:
    """Rows of a CSV with optional leading '#' lines; raises ValueError on a
    ragged row and on a rate that is not a finite number in [0, 1]."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    if not lines:
        raise ValueError(f"{path.name}: empty")
    rows = list(csv.DictReader(lines))
    for i, row in enumerate(rows, start=2):
        if None in row or None in row.values():
            raise ValueError(f"{path.name}: row {i} has the wrong number of fields")
        for column in RATE_COLUMNS & row.keys():
            value = float(row[column])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{path.name}: row {i} {column}={row[column]}")
    return rows


def _check_descriptors(out: Path, family: str, shape_ids: list[str]) -> None:
    for sid in shape_ids:
        raw = (out / f"{sid}.{family}.dsc").read_bytes()
        if raw[:8] != b"SDDESC01":
            raise ValueError(f"{sid}.{family}.dsc: bad magic")
        nv, n, fam_len = int.from_bytes(raw[8:12], "little"), \
            int.from_bytes(raw[12:16], "little"), raw[16]
        if len(raw) != 17 + fam_len + 8 * nv * n:
            raise ValueError(f"{sid}.{family}.dsc: wrong size")
        with open(out / f"{sid}.{family}.csv") as fh:
            header = fh.readline()
            if not header.startswith("vertex,") or sum(1 for _ in fh) != nv:
                raise ValueError(f"{sid}.{family}.csv: wrong header or row count")


def check_outputs(run: Run, dirs: Dirs, shape_ids: list[str]) -> dict[str, str]:
    """Check one command's output files; returns the SHA-256 of every model
    and report file, keyed by its path below the set-up directory. Problems
    are appended to ``run.problems``."""
    digests: dict[str, str] = {}
    if run.code != 0:
        return digests
    out = run.out
    try:
        if run.name == "spectrum":
            if len(list(dirs.cache.glob("*.spec"))) < len(shape_ids):
                raise ValueError("fewer cached spectra than shapes")
        elif run.name == "train":
            model = json.loads((out / "model.json").read_text())
            coefficients = [v for row in model["coefficients"] for v in row]
            if not coefficients or not all(math.isfinite(v) for v in coefficients):
                raise ValueError("model.json: empty or non-finite coefficients")
            if not read_csv(out / "training_report.csv"):
                raise ValueError("training_report.csv: no rows")
            files = [out / "model.json", out / "training_report.csv"]
        elif run.name == "describe":
            _check_descriptors(out, run.argv[run.argv.index("--family") + 1], shape_ids)
        else:  # eval and match write a report with a manifest
            listed = (out / "manifest.txt").read_text().split()
            missing = [f for f in listed if not (out / f).is_file()]
            if missing:
                raise ValueError(f"report files missing: {missing}")
            files = sorted(out.glob("*.csv"))
            for path in files:
                if not read_csv(path):
                    raise ValueError(f"{path.name}: no rows")
        if run.name in ("train", "eval", "match"):
            for path in files:
                digests[str(path.relative_to(dirs.base))] = sha256_bytes(path.read_bytes())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"output check: {exc}")
    return digests


def compare_digests(digests: dict[str, str], reference: dict[str, str],
                    owners: dict[str, Run], what: str) -> None:
    """Mark the command that wrote a file whose bytes differ from `reference`."""
    for path, digest in digests.items():
        if path in reference and reference[path] != digest:
            owners[path].problems.append(f"{path}: bytes differ from {what}")


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


@dataclass
class TraceSummary:
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    rss_rise_mb: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)  # (run, trace record, coverage)

    def add(self, run: Run) -> None:
        record = json.loads(run.trace.read_text())
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, rise_kb) in enumerate(spans):
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_time[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.rss_rise_mb[name] = max(self.rss_rise_mb.get(name, 0.0), rise_kb / 1024.0)
        for name, value in record["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.counts["learning.triplets"] = (
            self.counts.get("learning.triplets", 0) + sum(record["triplets"]))
        roots = [(s[1], s[2]) for s in spans if s[3] < 0]
        coverage = _union_length(roots) / (record["end"] - record["start"])
        self.commands.append((run, record, coverage))


LOGGED_TRIPLETS = re.compile(r"(?:training pairs|eval triplets): (\d+)")


def check_trace(workload: Workload, traced: list[Run], summary: TraceSummary,
                cache_files: int) -> None:
    """Count checks of the traced pass; a failed check marks the command
    it concerns as failed."""
    for run, record, coverage in summary.commands:
        if coverage < 0.9:
            run.problems.append(f"trace coverage {coverage:.3f} < 0.9")
        logged = [int(n) for n in LOGGED_TRIPLETS.findall(run.stderr.read_text())]
        if logged != record["triplets"][: len(logged)]:
            run.problems.append(f"logged triplets {logged} != sampled {record['triplets']}")
        if not workload.cold and record["counts"].get("laplacian.eigenpairs_solved", 0):
            run.problems.append("eigensolve on a warm spectrum cache")
    if workload.cold:
        solves = summary.calls.get("laplacian.compute_spectrum", 0)
        if solves != cache_files:
            traced[0].problems.append(f"{solves} solves but {cache_files} cache files")


def per_layer_metrics(traced: list[Run], summary: TraceSummary, setup_trace: TraceSummary,
                      cache: Path, overhead: float) -> dict[str, float]:
    m: dict[str, float] = {"cli.import.self_s": summary.self_s.get("cli.import", 0.0)}
    for cmd in COMMANDS:
        runs = [r for r in traced if r.name == cmd]
        m[f"cli.{cmd}.wall_s"] = sum(r.wall_s for r in runs)
        m[f"cli.{cmd}.self_s"] = summary.self_s.get(f"cli.cmd_{cmd}", 0.0)
        m[f"cli.{cmd}.peak_rss_mb"] = max((r.rss_mb for r in runs), default=0.0)
    for name in TIMED:
        source = setup_trace if name.startswith("synth.") else summary
        m[f"{name}.self_s"] = source.self_s.get(name, 0.0)
        m[f"{name}.calls"] = source.calls.get(name, 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in summary.self_s.items()
                                   if k.startswith(layer + "."))
    c = summary.counts
    loads = summary.calls.get("laplacian.load_spectrum", 0)
    solves = summary.calls.get("laplacian.compute_spectrum", 0)
    cached = list(cache.glob("*.spec"))
    refs = c.get("learning.refs_accepted", 0)
    resamples = c.get("learning.ref_resamples", 0)
    m.update({
        "laplacian.eigenpairs_solved": c.get("laplacian.eigenpairs_solved", 0),
        "laplacian.load_spectrum.bytes_read": c.get("laplacian.load_spectrum.bytes_read", 0),
        "laplacian.save_spectrum.bytes_written":
            c.get("laplacian.save_spectrum.bytes_written", 0),
        "laplacian.cache_hit_ratio": loads / (loads + solves) if loads + solves else 0.0,
        "laplacian.cache_files": len(cached),
        "laplacian.cache_bytes": sum(p.stat().st_size for p in cached),
        "descriptors.save_descriptor_csv.bytes_written":
            c.get("descriptors.save_descriptor_csv.bytes_written", 0),
        "learning.sample_pair_indices.triplets": c.get("learning.triplets", 0),
        "learning.build_pairs.rss_rise_mb": summary.rss_rise_mb.get("learning.build_pairs", 0.0),
        "learning.estimate_covariances.rss_rise_mb":
            summary.rss_rise_mb.get("learning.estimate_covariances", 0.0),
        "learning.triplet_bytes": c.get("learning.triplet_bytes", 0),
        "learning.ref_resamples": resamples,
        "learning.ref_accept_ratio": refs / (refs + resamples) if refs else 0.0,
        "evaluation.report_bytes": c.get("evaluation.report_bytes", 0),
        "trace.coverage": min((c for _, _, c in summary.commands), default=0.0),
        "trace.overhead_ratio": overhead,
    })
    return m


# ---------------------------------------------------------------------------
# quality metrics from the program's own reports
# ---------------------------------------------------------------------------


def _family_row(path: Path, family: str) -> dict:
    return next(row for row in read_csv(path) if row["family"] == family)


def quality_metrics(dirs: Dirs) -> dict[str, float]:
    sweep = read_csv(dirs.out("train_sens") / "training_report.csv")
    return {
        "learned_tp_at_fp": float(
            _family_row(dirs.out("report_sens") / "roc_workpoints.csv", "learned")["tp_at_fp"]),
        "learned_rank1": float(
            _family_row(dirs.out("report_sens") / "cmc_rank1.csv", "learned")["rank1_hit_rate"]),
        # the sensitivity sweep selects the alpha with the lowest FN@FP
        "val_fn_at_fp": min(float(row["fn_at_fixed_fp"]) for row in sweep),
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

_BLAS_PROBE = r"""
import ctypes, json, sys, numpy, scipy, scipy.sparse.linalg
info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": {}}
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                config = getattr(lib, prefix + "get_config" + suffix)
                threads = getattr(lib, prefix + "get_num_threads" + suffix)
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            info["openblas"][path.rsplit("/", 1)[-1]] = {
                "config": config().decode(), "threads": threads()}
print(json.dumps(info))
"""


def _read_first(path: str, key: str) -> Optional[str]:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def src_tree_digest() -> tuple[str, int]:
    """SHA-256 over the package sources and their total line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def provenance(runner: Runner) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    probe = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True,
                           text=True, env=runner.env, timeout=60)
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {"error": probe.stderr}
    mem_kb = _read_first("/proc/meminfo", "MemTotal")
    digest, lines = src_tree_digest()
    return {
        "git_commit": commit or None,
        "src_sha256": digest,
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "platform": platform.platform(),
        **versions,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


def benchmark(name: str, seed: int, seconds: float, trace: bool, scale: Scale = None,
              work: Path = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    scale = scale or SCALE
    work = work or WORK
    workload = WORKLOADS[name]
    started = time.monotonic()
    runner = Runner(deadline=started + RUN_BUDGET_S)
    base_config = corpus_config()
    config = scaled_config(base_config, scale.overrides)
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    record: dict = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "corpus_config_sha256": sha256_bytes(base_config.encode()),
        "config_sha256": sha256_bytes(config.encode()),
        "config_overrides": scale.overrides, "synth_args": list(scale.synth_args),
    }
    try:
        # -- set-up: synthesize the corpus and prepare the starting state --
        dirs = Dirs(run_dir)
        dirs.base.mkdir(parents=True)
        dirs.config.write_text(config)
        setup_started = time.perf_counter()
        synth = runner.run(["synth", "--out", dirs.corpus, "--seed", seed,
                            *scale.synth_args], dirs.logs, trace=trace)
        prepared = [synth] + [runner.run(argv, dirs.logs)
                              for argv in workload.prepare(dirs)]
        setup_s = time.perf_counter() - setup_started
        failed_setup = [f"{r.name}: {r.problems}" for r in prepared if r.problems]
        if failed_setup:
            raise SetupError(f"set-up failed: {failed_setup}")
        shape_ids = [line.split(",", 1)[0] for line in
                     (dirs.corpus / "manifest.csv").read_text().splitlines()[1:]]
        setup_trace = TraceSummary()
        if trace:
            setup_trace.add(synth)

        # -- timed passes ---------------------------------------------------
        passes: list[list[Run]] = []
        walls: list[float] = []
        first_digests: dict[str, str] = {}
        owners: dict[str, Run] = {}  # file -> the first command that wrote it

        def one_pass(traced: bool) -> None:
            if workload.cold:
                shutil.rmtree(dirs.cache, ignore_errors=True)
            t0 = time.perf_counter()
            runs = [runner.run(argv, dirs.logs, trace=traced)
                    for argv in workload.commands(dirs)]
            wall = time.perf_counter() - t0
            digests, writers = {}, {}
            for run in runs:
                written = check_outputs(run, dirs, shape_ids)
                digests.update(written)
                writers.update(dict.fromkeys(written, run))
            compare_digests(digests, first_digests, writers, "the first pass")
            for path, run in writers.items():
                owners.setdefault(path, run)
                first_digests.setdefault(path, digests[path])
            passes.append(runs)
            if not traced:
                walls.append(wall)
            else:
                record["traced_wall_s"] = wall

        # as many passes as fit in the window, at least one
        measure_started = time.monotonic()
        while not walls or (
            time.monotonic() - measure_started + statistics.median(walls) <= seconds
            and time.monotonic() + 2 * max(walls) < runner.deadline
        ):
            one_pass(traced=False)
        if trace:
            one_pass(traced=True)
        all_runs = [r for runs in passes for r in runs]

        # -- bytes against the first run of this source tree and seed -------
        src_digest, _ = src_tree_digest()
        key = sha256_bytes(json.dumps([src_digest, name, seed, config,
                                       scale.synth_args]).encode())[:24]
        ref_path = work / "reference" / f"{key}.json"
        if ref_path.is_file():
            reference = json.loads(ref_path.read_text())
            compare_digests(first_digests, reference, owners, "the first run")
        elif not any(r.problems for r in all_runs):
            ref_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = ref_path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(first_digests, indent=1, sort_keys=True))
            tmp.replace(ref_path)

        metrics: dict[str, float]
        if trace:
            traced = passes[-1]
            summary = TraceSummary()
            for run in traced:
                if run.trace.is_file():
                    summary.add(run)
                else:
                    run.problems.append("no trace written")
            cache_files = len(list(dirs.cache.glob("*.spec")))
            check_trace(workload, traced, summary, cache_files)
            overhead = record["traced_wall_s"] / statistics.median(walls)
            metrics = per_layer_metrics(traced, summary, setup_trace, dirs.cache, overhead)
            total = sum(summary.self_s.values())
            record["layer_share"] = {
                layer: round(metrics[f"{layer}.self_s"] / total, 4) for layer in LAYERS}
            record["functions"] = {
                k: {"self_s": round(v, 6), "calls": summary.calls[k]}
                for k, v in sorted(summary.self_s.items(), key=lambda kv: -kv[1])}
            record["coverage"] = [(r.name, coverage) for r, _, coverage in summary.commands]
        else:
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": max(r.rss_mb for runs in passes for r in runs),
            }
            try:
                metrics.update(quality_metrics(dirs))
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                all_runs[-1].problems.append(f"quality metrics: {exc}")
                metrics.update(dict.fromkeys(
                    ("learned_tp_at_fp", "learned_rank1", "val_fn_at_fp"), 0.0))

        attempted = len(all_runs)
        failed = sum(1 for r in all_runs if r.problems)
        metrics["success_rate"] = 1.0 - failed / attempted
        prefix = f"{run_dir}{os.sep}"
        record.update({
            "setup_s": setup_s,
            "pass_walls_s": walls,
            "commands": [{"argv": [a.replace(prefix, "") for a in r.argv],
                          "wall_s": r.wall_s, "rss_mb": r.rss_mb, "problems": r.problems}
                         for r in prepared + all_runs],
            "error_rate": failed / attempted,
            "digests": first_digests,
            "provenance": provenance(runner),
        })
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {},
        }
        units = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
        for metric_name, unit in units.items():
            result["metrics"][metric_name] = {"value": metrics[metric_name], "unit": unit}
        return result, record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------------


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [{"name": k, "why": w.why} for k, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "specdesc" / "cli.py").is_file() or not CONFTEST.is_file():
        print(f"perfbench: {ROOT} holds no specdesc sources (src/, tests/conftest.py)",
              file=sys.stderr)
        return 2
    try:
        result, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
