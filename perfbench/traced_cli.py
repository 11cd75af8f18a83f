"""Run one ``specdesc`` command with the package's public functions timed.

    python3 perfbench/traced_cli.py TRACE_JSON -- <specdesc arguments>

Before calling ``specdesc.cli.main`` this wraps every public function and
public method defined in the layer modules. Each wrapper replaces the
original wherever the package looks the name up: in the defining module and
in every module that imported it by name, so ``specdesc.cli.compute_spectrum``
is timed as ``laplacian.compute_spectrum``. Spans (name, start, end, parent,
rise of the ``ru_maxrss`` high-water mark) and counters stay in memory and
are written to TRACE_JSON when the command ends. The package is not edited.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402  (imports after T0 count as uncovered time)
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402

LAYERS = ("mesh", "laplacian", "descriptors", "learning", "evaluation", "synth", "cli")
# the entry point itself: each command's top span is cli.cmd_<command>
NOT_WRAPPED = {"cli.main"}
RESAMPLE_WARNING = "has an empty positive ball"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, rss rise kB]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.triplets: list[int] = []  # one entry per sample_pair_indices call

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rss_before = _maxrss_kb()
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[index]
                span[2] = time.perf_counter()
                span[4] = _maxrss_kb() - rss_before
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        return traced


# -- counters taken from arguments and results ------------------------------


def _size(path) -> int:
    return os.path.getsize(path)


def _after_compute_spectrum(t, a, result):
    t.count("laplacian.eigenpairs_solved", len(result.eigenvalues))


def _after_load_spectrum(t, a, result):
    t.count("laplacian.load_spectrum.bytes_read", _size(a["path"]))


def _after_save_spectrum(t, a, result):
    t.count("laplacian.save_spectrum.bytes_written", _size(a["path"]))


def _after_save_descriptor_csv(t, a, result):
    t.count("descriptors.save_descriptor_csv.bytes_written", _size(a["path"]))


def _after_sample_pair_indices(t, a, result):
    t.triplets.append(len(result))
    ref_shapes = sum(1 for shape in a["shapes"] if shape.sample_refs)
    t.count("learning.refs_accepted", ref_shapes * a["refs_per_shape"])


def _after_build_pairs(t, a, result):
    # anchors, positives and negatives: three (N, m) float64 arrays
    t.count("learning.triplet_bytes", 3 * result.anchors.size * 8)


def _after_emit_report(t, a, result):
    out = a["out_dir"]
    files = [*result, "manifest.txt"]
    t.count("evaluation.report_bytes", sum(_size(os.path.join(out, f)) for f in files))


HOOKS = {
    "laplacian.compute_spectrum": _after_compute_spectrum,
    "laplacian.load_spectrum": _after_load_spectrum,
    "laplacian.save_spectrum": _after_save_spectrum,
    "descriptors.save_descriptor_csv": _after_save_descriptor_csv,
    "learning.sample_pair_indices": _after_sample_pair_indices,
    "learning.build_pairs": _after_build_pairs,
    "evaluation.emit_report": _after_emit_report,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module and
    rebind each function in every ``specdesc`` module that holds it."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"specdesc.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            full = f"{layer}.{name}"
            if isinstance(obj, types.FunctionType) and full not in NOT_WRAPPED:
                wrapped[obj] = tracer.wrap(full, obj, HOOKS.get(full))
            elif isinstance(obj, type):
                for method_name, method in list(vars(obj).items()):
                    if not method_name.startswith("_") and isinstance(method, types.FunctionType):
                        setattr(obj, method_name, tracer.wrap(f"{full}.{method_name}", method))
    for module_name, module in list(sys.modules.items()):
        if module_name != "specdesc" and not module_name.startswith("specdesc."):
            continue
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(module, name, wrapped[obj])


def _count_resamples(tracer: Tracer):
    shown = warnings.showwarning

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if RESAMPLE_WARNING in str(message):
            tracer.count("learning.ref_resamples", 1)
        shown(message, category, filename, lineno, file, line)

    return showwarning


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py TRACE_JSON -- <specdesc arguments>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    started = time.perf_counter()
    cli = importlib.import_module("specdesc.cli")
    tracer.spans.append(["cli.import", started, time.perf_counter(), -1, 0])
    install(tracer)
    try:
        with warnings.catch_warnings():
            # every resampled reference is counted, not only the first per text
            warnings.filterwarnings("always", message=f".*{RESAMPLE_WARNING}")
            warnings.showwarning = _count_resamples(tracer)
            return cli.main(cli_args)
    finally:
        record = {
            "start": T0,
            "end": time.perf_counter(),
            "spans": tracer.spans,
            "counts": tracer.counts,
            "triplets": tracer.triplets,
        }
        with open(trace_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
