#!/usr/bin/env python3
"""Compare every file the pipeline writes under two source trees, byte for byte.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--acceptance]

Each ``src`` directory runs synth, spectrum, train x2, describe x5, eval x2
and match, one child process per command, in a temporary directory of its
own. The two trees run step by step, and the tree that runs a step first
alternates from step to step, so their times are taken under the same
conditions. The default corpus is the benchmark's (``synth --seed 1`` at
perfbench's ``SCALE``, s = 40); ``--acceptance`` runs the full
``CORPUS_CONFIG`` of tests/conftest.py on the default ``synth`` corpus.
Prints each file whose SHA-256 differs, or each file or directory that one
tree lacks, with its byte size in both trees; each command's wall time and
peak RSS in both trees (from ``os.wait4``, as perfbench measures them); and
the line total of each tree's ``specdesc/*.py``. Exits 1 on any file difference.
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(bench)


def pipeline(work: Path, acceptance: bool) -> list[list]:
    """Write the config into `work` and return the pipeline's commands, each
    an argv that writes under `work`."""
    config = work / "config.cfg"
    text = bench.corpus_config()
    config.write_text(text if acceptance else bench.scaled_config(text, bench.SCALE.overrides))
    base = ["--config", config]
    steps = [["synth", "--out", work / "corpus",
              *([] if acceptance else ["--seed", "1", *bench.SCALE.synth_args])],
             ["spectrum", *base]]
    steps += [["train", *base, "--mode", mode, "--out", work / f"train_{mode[:4]}"]
              for mode in ("sensitivity", "specificity")]
    steps += [["describe", *base, "--family", f, "--out", work / "desc"]
              for f in ("hks", "wks", "shapedna")]
    steps += [["describe", *base, "--family", "learned", "--out", work / f"desc_{tag}",
               "--model", work / f"train_{tag}" / "model.json"] for tag in ("sens", "spec")]
    family_dirs = [f"hks={work / 'desc'}", f"wks={work / 'desc'}"]
    steps += [["eval", *base, "--descriptors", *family_dirs, f"learned={work / f'desc_{tag}'}",
               "--out", work / f"report_{tag}"] for tag in ("sens", "spec")]
    source, target = bench.MATCH
    steps.append(["match", *base, "--descriptors", f"learned={work / 'desc_sens'}",
                  "--source", source, "--target", target, "--out", work / "match"])
    return steps


def run_step(src: Path, step: list) -> tuple[float, float]:
    """Run one command with the specdesc of `src` in a child process; its
    wall seconds and peak RSS MB. A failing command ends the comparison."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *bench.UNTRACED, *map(str, step)], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        code = os.waitstatus_to_exitcode(status)
        if code:
            err.seek(0)
            sys.exit(f"{src}: {step[0]} exited {code}\n"
                     f"{err.read().decode(errors='replace')[-2000:]}")
    return wall, rusage.ru_maxrss / 1024.0


def digests(work: Path) -> dict:
    """The SHA-256 and byte size of every file written under `work`, and a
    "directory" mark for every directory, so one that a single tree leaves
    behind (such as an empty staging directory) differs; by relative path."""
    return {str(p.relative_to(work)): (hashlib.sha256(p.read_bytes()).hexdigest(),
                                       p.stat().st_size) if p.is_file() else ("directory", "-")
            for p in sorted(work.rglob("*"))}


def src_lines(src: Path) -> int:
    """Lines of the package modules under `src`, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "specdesc").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--acceptance", action="store_true", help="full CORPUS_CONFIG corpus")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        trees = [(args.parent_src.resolve(), Path(a)), (args.change_src.resolve(), Path(b))]
        plans = [pipeline(work, args.acceptance) for _, work in trees]
        usage = ([], [])
        # step by step, the tree that runs first alternating, so neither
        # tree's times always follow the other's run of the same command
        for i, steps in enumerate(zip(*plans)):
            for t in ((0, 1) if i % 2 == 0 else (1, 0)):
                usage[t].append((f"{i + 1:02d} {steps[t][0]}", *run_step(trees[t][0], steps[t])))
        old, new = digests(Path(a)), digests(Path(b))
    old_usage, new_usage = usage
    differ = [name for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    missing = ("missing", "-")
    for name in differ:
        (old_sha, old_size), (new_sha, new_size) = old.get(name, missing), new.get(name, missing)
        print(f"differs: {name} {old_size} → {new_size} B ({old_sha[:12]} -> {new_sha[:12]})")
    print(f"{len(old.keys() | new.keys())} files compared, {len(differ)} differ")
    print(f"{'command':<12} {'parent wall, peak RSS':>24} {'change wall, peak RSS':>24}")
    for (name, old_wall, old_rss), (_, new_wall, new_rss) in zip(old_usage, new_usage):
        print(f"{name:<12} {old_wall:>10.2f} s {old_rss:>8.1f} MB "
              f"{new_wall:>10.2f} s {new_rss:>8.1f} MB")
    print(f"specdesc/*.py lines: {src_lines(args.parent_src)} -> {src_lines(args.change_src)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
