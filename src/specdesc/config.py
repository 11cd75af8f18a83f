"""Pipeline configuration and shape manifests.

The config is a flat ``key = value`` text file with one ``[section]`` per
pipeline stage. Every key is unique across sections so the CLI can override
any of them with ``--key value``. The shape manifest is a CSV listing every
mesh with its class label, split role, and optional correspondence/symmetry
files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .container import read_text, write_file
from .errors import DataError, ParseError

__all__ = [
    "PipelineConfig",
    "ManifestEntry",
    "SETTINGS",
    "parse_config",
    "parse_config_text",
    "read_manifest",
    "write_manifest",
]

MODES = ("sensitivity", "specificity")
MASS_MODES = ("lumped", "consistent")

NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
POSITIVE = (lambda v: v > 0, "must be positive")
UNIT = (lambda v: 0 <= v <= 1, "outside [0, 1]")


def _one_of(words):
    return words, "must be one of " + ", ".join(words)


# The one settings table: key -> (section, default, kind, (test, rule)). A
# kind is int, float, None (a number that may be left empty), list (a comma
# list of numbers) or str. `PipelineConfig.check` reads every value by its
# kind, then asks each number it holds to be finite and to pass the test or,
# for a str with a tuple of words, asks for one of them. An empty default is
# derived at run time.
SETTINGS = {
    "manifest": ("shapes", "manifest.csv", str, None),
    "s": ("spectral", "300", int, AT_LEAST_1),
    "mass_mode": ("spectral", "lumped", str, _one_of(MASS_MODES)),
    "m": ("basis", "150", int, (lambda v: v >= 4, "must be at least 4")),
    "nu_max_percentile": ("basis", "95", float, (lambda v: 0 <= v <= 100, "outside [0, 100]")),
    "n": ("descriptor", "12", int, AT_LEAST_1),
    "hks_times": ("descriptor", "", list, POSITIVE),
    "wks_energies": ("descriptor", "", list, POSITIVE),
    "wks_sigma": ("descriptor", "", None, POSITIVE),
    "r_frac": ("learning", "0.02", float, POSITIVE),
    "big_r_frac": ("learning", "0.05", float, POSITIVE),
    "refs_per_shape": ("learning", "50", int, NON_NEGATIVE),
    "positives_per_ref": ("learning", "10", int, AT_LEAST_1),
    "negatives_per_ref": ("learning", "200", int, NON_NEGATIVE),
    "cross_negatives_per_ref": ("learning", "100", int, NON_NEGATIVE),
    "alpha": ("learning", "", None, UNIT),
    "alpha_grid": ("learning", "0.01,0.02,0.03,0.05,0.07,0.09,0.13,0.2,0.35,0.6", list, UNIT),
    "ridge": ("learning", "1e-6", float, NON_NEGATIVE),
    "rng_seed": ("learning", "0", int, NON_NEGATIVE),
    "diameter_samples": ("learning", "32", int, (lambda v: v >= 2, "must be at least 2")),
    "work_point": ("eval", "0.01", float, (lambda v: 0 < v < 1, "outside (0, 1)")),
    "mode": ("eval", "sensitivity", str, _one_of(MODES)),
    "ball_radius_frac": ("eval", "0.01", float, NON_NEGATIVE),
    "cmc_rank_frac": ("eval", "0.01", float, UNIT),
    "cmc_refs": ("eval", "150", int, AT_LEAST_1),
    "cmc_target": ("eval", "", str, None),
    "eval_rng_seed": ("eval", "1", int, NON_NEGATIVE),
    "eval_refs_per_shape": ("eval", "40", int, NON_NEGATIVE),
    "eval_positives_per_ref": ("eval", "10", int, AT_LEAST_1),
    "eval_negatives_per_ref": ("eval", "250", int, NON_NEGATIVE),
    "eval_cross_negatives_per_ref": ("eval", "120", int, NON_NEGATIVE),
}
_KIND_NAMES = {int: "an integer", float: "a number", None: "a number",
               list: "a comma list of numbers"}


def _read(kind, raw: str):
    """`raw` read as a value of `kind`; ValueError when it is not one."""
    if kind is list:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    if kind is None:
        return float(raw) if raw.strip() else None
    return kind(raw)


@dataclass
class PipelineConfig:
    """Parsed configuration: the text of every setting by its key, plus the
    base directory used to resolve relative paths."""

    values: dict[str, str]
    base_dir: Path = field(default_factory=Path)

    def __getitem__(self, key: str):
        """The setting's value as its kind; `check` has read them all."""
        return _read(SETTINGS[key][2], self.values[key])

    def path(self, key: str) -> Path:
        return (self.base_dir / self.values[key]).resolve()

    def check(self) -> None:
        """Raise DataError naming the first setting that is not of its kind,
        holds a number that is not finite or breaks its rule, in table order;
        or both radii unless r_frac < big_r_frac."""
        for key, raw in self.values.items():
            _, _, kind, rule = SETTINGS[key]
            try:
                value = _read(kind, raw)
            except ValueError:
                raise DataError(f"{key}={raw} must be {_KIND_NAMES[kind]}") from None
            if kind is str:
                if rule is not None and value not in rule[0]:
                    raise DataError(f"{key}={raw} {rule[1]}")
                continue
            numbers = value if kind is list else [] if value is None else [value]
            if not all(map(math.isfinite, numbers)):
                raise DataError(f"{key}={raw} must be finite")
            if not all(map(rule[0], numbers)):
                raise DataError(f"{key}={raw} {rule[1]}")
        if not self["r_frac"] < self["big_r_frac"]:
            raise DataError(f"r_frac={self.values['r_frac']} must be below "
                            f"big_r_frac={self.values['big_r_frac']}")

    def override(self, key: str, value: str) -> None:
        """Set a key by its flat name; keys are unique across sections."""
        if key not in self.values:
            raise DataError(f"unknown config key {key!r}")
        self.values[key] = value


def parse_config_text(text: str, base_dir: Path = Path(".")) -> PipelineConfig:
    values = {key: row[1] for key, row in SETTINGS.items()}
    sections = {row[0] for row in SETTINGS.values()}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ParseError(f"line {lineno}: unknown config section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if SETTINGS.get(key, ("",))[0] != section:
            raise ParseError(f"line {lineno}: unknown key {key!r} in [{section}]")
        values[key] = value
    return PipelineConfig(values=values, base_dir=Path(base_dir))


def parse_config(path) -> PipelineConfig:
    p = Path(path)
    text = read_text(p, "config")
    try:
        return parse_config_text(text, base_dir=p.parent)
    except ParseError as exc:
        raise ParseError(f"{p}: {exc}") from exc


# ---------------------------------------------------------------------------
# shape manifest
# ---------------------------------------------------------------------------

MANIFEST_FIELDS = [
    "shape_id",
    "path",
    "class_label",
    "split",
    "null_id",
    "corr_path",
    "sym_path",
]

VALID_SPLITS = {"train", "train_neg", "val", "val_neg", "eval", "eval_neg"}


@dataclass
class ManifestEntry:
    shape_id: str
    path: str
    class_label: str
    split: str
    null_id: str = ""
    corr_path: str = ""
    sym_path: str = ""


def read_manifest(path) -> list[ManifestEntry]:
    p = Path(path)
    entries: list[ManifestEntry] = []
    reader = csv.reader(io.StringIO(read_text(p, "manifest"), newline=""))
    rows = filter(None, reader)  # a blank line holds no row
    header = next(rows, None)
    if header is None or [f.strip() for f in header] != MANIFEST_FIELDS:
        raise ParseError(f"{p}: manifest header must be {','.join(MANIFEST_FIELDS)}")
    for row in rows:
        if len(row) != len(MANIFEST_FIELDS):
            raise ParseError(f"{p}: line {reader.line_num}: {len(row)} fields, "
                             f"but the header has {len(MANIFEST_FIELDS)}")
        entry = ManifestEntry(*(value.strip() for value in row))
        if entry.split not in VALID_SPLITS:
            raise ParseError(f"{p}: shape {entry.shape_id}: bad split {entry.split!r}")
        entries.append(entry)
    if not entries:
        raise DataError(f"{p}: manifest lists no shapes")
    ids = [e.shape_id for e in entries]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{p}: duplicate shape ids")
    return entries


def write_manifest(entries, path) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([MANIFEST_FIELDS] + [
        [e.shape_id, e.path, e.class_label, e.split, e.null_id, e.corr_path, e.sym_path]
        for e in entries])
    write_file(path, [text.getvalue()])
