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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import DataError, ParseError

__all__ = [
    "PipelineConfig",
    "ManifestEntry",
    "DEFAULTS",
    "parse_config",
    "parse_config_text",
    "read_manifest",
    "write_manifest",
]

# Section -> key -> default (all values are strings; empty string means
# "derive a default at run time").
DEFAULTS: dict[str, dict[str, str]] = {
    "shapes": {
        "manifest": "manifest.csv",
    },
    "spectral": {
        "s": "300",
        "mass_mode": "lumped",
    },
    "basis": {
        "m": "150",
        "nu_max_percentile": "95",
    },
    "descriptor": {
        "n": "12",
        "hks_times": "",
        "wks_energies": "",
        "wks_sigma": "",
    },
    "learning": {
        "r_frac": "0.02",
        "big_r_frac": "0.05",
        "refs_per_shape": "50",
        "positives_per_ref": "10",
        "negatives_per_ref": "200",
        "cross_negatives_per_ref": "100",
        "alpha": "",
        "alpha_grid": "0.01,0.02,0.03,0.05,0.07,0.09,0.13,0.2,0.35,0.6",
        "ridge": "1e-6",
        "rng_seed": "0",
        "diameter_samples": "32",
    },
    "eval": {
        "work_point": "0.01",
        "mode": "sensitivity",
        "ball_radius_frac": "0.01",
        "cmc_rank_frac": "0.01",
        "cmc_refs": "150",
        "cmc_target": "",
        "eval_rng_seed": "1",
        "eval_refs_per_shape": "40",
        "eval_positives_per_ref": "10",
        "eval_negatives_per_ref": "250",
        "eval_cross_negatives_per_ref": "120",
    },
}

MODES = ("sensitivity", "specificity")
MASS_MODES = ("lumped", "consistent")

# The one table of setting rules, as (keys, test, rule): `PipelineConfig.check`
# applies the test to every number a non-empty setting of those keys holds
# (NaN fails every test), or, for a tuple of words, asks for one of them.
_RULES = (
    (("ball_radius_frac", "ridge", "rng_seed", "eval_rng_seed", "refs_per_shape",
      "eval_refs_per_shape", "negatives_per_ref", "eval_negatives_per_ref",
      "cross_negatives_per_ref", "eval_cross_negatives_per_ref"),
     lambda v: v >= 0, "must be non-negative"),
    (("s", "n", "cmc_refs", "positives_per_ref", "eval_positives_per_ref"),
     lambda v: v >= 1, "must be at least 1"),
    (("diameter_samples",), lambda v: v >= 2, "must be at least 2"),
    (("m",), lambda v: v >= 4, "must be at least 4"),
    (("hks_times", "wks_energies", "wks_sigma", "r_frac", "big_r_frac"),
     lambda v: v > 0, "must be positive"),
    (("cmc_rank_frac", "alpha", "alpha_grid"), lambda v: 0 <= v <= 1, "outside [0, 1]"),
    (("work_point",), lambda v: 0 < v < 1, "outside (0, 1)"),
    (("nu_max_percentile",), lambda v: 0 <= v <= 100, "outside [0, 100]"),
    (("mode",), MODES, "must be one of " + ", ".join(MODES)),
    (("mass_mode",), MASS_MODES, "must be one of " + ", ".join(MASS_MODES)),
)
_RULE_OF = {key: (test, rule) for keys, test, rule in _RULES for key in keys}
# the keys that commands read with `get_int`; `check` parses them the same way
_INTEGERS = ("s", "m", "n", "diameter_samples", "cmc_refs", "rng_seed", "eval_rng_seed",
             "refs_per_shape", "eval_refs_per_shape", "positives_per_ref",
             "eval_positives_per_ref", "negatives_per_ref", "eval_negatives_per_ref",
             "cross_negatives_per_ref", "eval_cross_negatives_per_ref")


@dataclass
class PipelineConfig:
    """Parsed configuration: raw string values per section plus the base
    directory used to resolve relative paths."""

    values: dict[str, dict[str, str]]
    base_dir: Path = field(default_factory=Path)

    # -- typed accessors ---------------------------------------------------

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError as exc:
            raise DataError(f"unknown config key [{section}] {key}") from exc

    def get_int(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError as exc:
            raise ParseError(f"config [{section}] {key}={raw}: expected integer") from exc

    def get_float(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ParseError(f"config [{section}] {key}={raw}: expected number") from exc

    def get_floats(self, section: str, key: str) -> list[float]:
        raw = self.get(section, key).strip()
        if not raw:
            return []
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ParseError(f"config [{section}] {key}={raw}: expected numbers") from exc

    def path(self, section: str, key: str) -> Path:
        return (self.base_dir / self.get(section, key)).resolve()

    def check(self) -> None:
        """Raise DataError naming the first setting outside its _RULES rule
        or, for an _INTEGERS key, not an integer; or both radii unless
        r_frac < big_r_frac."""
        for section, entries in self.values.items():
            for key, raw in entries.items():
                if key in _INTEGERS:
                    try:
                        int(raw)
                    except ValueError:
                        raise DataError(f"{key}={raw} must be an integer") from None
                if key in _RULE_OF:
                    test, rule = _RULE_OF[key]
                    if not (raw in test if isinstance(test, tuple) else
                            all(test(v) for v in self.get_floats(section, key))):
                        raise DataError(f"{key}={raw} {rule}")
        r, big_r = self.get("learning", "r_frac"), self.get("learning", "big_r_frac")
        if not self.get_float("learning", "r_frac") < self.get_float("learning", "big_r_frac"):
            raise DataError(f"r_frac={r} must be below big_r_frac={big_r}")

    # -- mutation / serialization -------------------------------------------

    def override(self, key: str, value: str) -> None:
        """Set a key by its flat name; keys are unique across sections."""
        for section, entries in self.values.items():
            if key in entries:
                entries[key] = value
                return
        raise DataError(f"unknown config key {key!r}")

    def serialize(self) -> str:
        lines = []
        for section, entries in self.values.items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)


def _fresh_defaults() -> dict[str, dict[str, str]]:
    return {sec: dict(entries) for sec, entries in DEFAULTS.items()}


def parse_config_text(text: str, base_dir: Path = Path(".")) -> PipelineConfig:
    values = _fresh_defaults()
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in values:
                raise ParseError(f"line {lineno}: unknown config section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in values[section]:
            raise ParseError(f"line {lineno}: unknown key {key!r} in [{section}]")
        values[section][key] = value
    return PipelineConfig(values=values, base_dir=Path(base_dir))


def _utf8_text(p: Path) -> str:
    try:
        return p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def parse_config(path) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file not found: {p}")
    text = _utf8_text(p)
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
    if not p.is_file():
        raise DataError(f"manifest not found: {p}")
    entries: list[ManifestEntry] = []
    reader = csv.DictReader(io.StringIO(_utf8_text(p), newline=""))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != MANIFEST_FIELDS:
        raise ParseError(f"{p}: manifest header must be {','.join(MANIFEST_FIELDS)}")
    for row in reader:
        entry = ManifestEntry(**{k: (row[k] or "").strip() for k in MANIFEST_FIELDS})
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for e in entries:
            writer.writerow(
                [e.shape_id, e.path, e.class_label, e.split, e.null_id, e.corr_path, e.sym_path]
            )
