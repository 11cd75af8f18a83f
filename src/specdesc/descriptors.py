"""Per-point spectral descriptors and the frequency-response machinery.

All descriptors here share one template: a bank of scalar frequency
responses evaluated at the eigenvalues, weighted by the squared
eigenfunctions at each vertex. The heat kernel signature uses low-pass
exponentials, the wave kernel signature normalized log-normal bands, and the
generic parametric descriptor an arbitrary coefficient matrix over a fixed
B-spline basis, which is what the learning stage optimizes. Everything is
built from squared eigenfunctions, so eigenvector sign flips never matter.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .container import Container, read_text, write_file, write_table
from .errors import DataError
from .laplacian import Spectrum

__all__ = [
    "FrequencyBasis",
    "ResponseModel",
    "hks",
    "hks_default_times",
    "wks",
    "wks_default_bands",
    "geometry_vectors",
    "apply_response",
    "shape_dna_field",
    "save_response_model",
    "load_response_model",
    "save_descriptor_csv",
    "save_descriptor_binary",
    "load_descriptor_binary",
]

DESCRIPTOR_FAMILIES = ("hks", "wks", "shapedna", "learned")


@dataclass(frozen=True)
class FrequencyBasis:
    """Clamped uniform cubic B-spline basis on [0, nu_max].

    The m functions are nonnegative, sum to one everywhere on the interval
    (partition of unity), and vanish identically above nu_max.
    """

    nu_max: float
    m: int

    kind = "cubic-bspline"

    def __post_init__(self):
        if self.m < 4:
            raise DataError("cubic B-spline basis needs m >= 4")
        if not 0.0 < self.nu_max < np.inf:
            raise DataError(f"nu_max={self.nu_max} must be positive and finite")

    @cached_property
    def knots(self) -> np.ndarray:
        interior = np.linspace(0.0, self.nu_max, self.m - 2)
        return np.concatenate([[0.0] * 3, interior, [self.nu_max] * 3])

    def evaluate(self, frequencies) -> np.ndarray:
        """Design matrix of shape (len(frequencies), m); rows above nu_max
        are identically zero, tiny negative inputs clip to zero.

        Cox-de Boor recurrence (de Boor 1978) for the four splines that are
        nonzero on each point's knot interval, in the operation order of
        scipy's ``BSpline.design_matrix``, whose values it equals bit for bit.
        """
        nu = np.atleast_1d(np.asarray(frequencies, dtype=np.float64))
        if not np.isfinite(nu).all():
            raise DataError("basis frequencies must be finite")
        x = np.clip(nu, 0.0, self.nu_max)
        t = self.knots
        # t[ell] <= x < t[ell + 1]; x = nu_max belongs to the last interval
        ell = np.clip(np.searchsorted(t, x, "right") - 1, 3, len(t) - 5)
        h = np.zeros((len(x), 4))
        h[:, 0] = 1.0
        for j in range(1, 4):
            hh = h[:, :j].copy()
            h[:, 0] = 0.0
            for q in range(1, j + 1):
                right, left = t[ell + q], t[ell + q - j]
                w = hh[:, q - 1] / (right - left)
                h[:, q - 1] += w * (right - x)
                h[:, q] = w * (x - left)
        design = np.zeros((len(x), self.m))
        np.put_along_axis(design, (ell - 3)[:, None] + np.arange(4), h, axis=1)
        design[nu > self.nu_max] = 0.0
        return design


@dataclass
class ResponseModel:
    """A bank of n frequency responses expressed in a fixed basis."""

    basis: FrequencyBasis
    coefficients: np.ndarray  # (n, m)

    def __post_init__(self):
        self.coefficients = np.atleast_2d(np.asarray(self.coefficients, dtype=np.float64))
        if self.coefficients.shape[1] != self.basis.m:
            raise DataError(
                f"coefficient columns {self.coefficients.shape[1]} "
                f"!= basis size {self.basis.m}"
            )
        if not np.isfinite(self.coefficients).all():
            raise DataError("response coefficients must be finite")

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]


# ---------------------------------------------------------------------------
# fixed descriptors
# ---------------------------------------------------------------------------


def hks(spectrum: Spectrum, times) -> np.ndarray:
    """Heat kernel signature: remaining heat at each vertex after each time.

    p_i(x) = sum_k exp(-nu_k t_i) phi_k(x)^2
    """
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if t.size == 0 or (t <= 0).any():
        raise DataError("hks times must be positive")
    if len(spectrum) == 0:
        raise DataError("empty spectrum")
    weights = np.exp(-np.outer(spectrum.eigenvalues, t))
    return spectrum.squared() @ weights


def hks_default_times(spectrum: Spectrum, n: int) -> np.ndarray:
    """Logarithmic time ladder between 4 ln 10 / nu_last and 4 ln 10 / nu_2."""
    if n < 1:
        raise DataError("need at least one time")
    lo = 4.0 * np.log(10.0) / float(spectrum.eigenvalues[-1])
    hi = 4.0 * np.log(10.0) / spectrum.first_positive()
    return np.geomspace(lo, hi, n)


def wks(spectrum: Spectrum, energies, sigma: float) -> np.ndarray:
    """Wave kernel signature: time-averaged presence probability of a quantum
    particle prepared in log-normal energy bands.

    Band weights are normalized to unit sum so bands are comparable in
    magnitude; eigenvalues in the numerical null space are excluded (their
    log energy is undefined).
    """
    e = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    if e.size == 0 or (e <= 0).any():
        raise DataError("wks energies must be positive")
    if not sigma > 0:
        raise DataError("sigma must be positive")
    eps = 1e-8 * spectrum.first_positive()
    keep = spectrum.eigenvalues > eps
    log_nu = np.log(spectrum.eigenvalues[keep])
    sq = spectrum.squared()[:, keep]
    out = np.zeros((spectrum.n_vertices, e.size))
    for i, energy in enumerate(e):
        gap = np.log(energy) - log_nu
        if np.abs(gap).min(initial=np.inf) > 3.0 * sigma:
            warnings.warn(
                f"wks band {i} (energy {energy:.4g}) contains no eigenvalue "
                f"within 3 sigma",
                RuntimeWarning,
                stacklevel=2,
            )
        band = np.exp(-(gap**2) / (2.0 * sigma**2))
        total = band.sum()
        if total > 0:
            out[:, i] = sq @ (band / total)
    return out


def wks_default_bands(spectrum: Spectrum, n: int) -> tuple[np.ndarray, float]:
    """Log-spaced band centers with a two-sigma interior margin.

    The width is 3.5 grid steps of the final center ladder; solving that
    self-consistently with the margins gives sigma = 3.5 * range / (n + 13).
    """
    if n < 2:
        raise DataError("need at least two bands")
    lo = np.log(spectrum.first_positive())
    hi = np.log(float(spectrum.eigenvalues[-1]))
    if not hi > lo:
        raise DataError("spectrum too short for wks bands")
    sigma = 3.5 * (hi - lo) / (n + 13)
    log_e = np.linspace(lo + 2.0 * sigma, hi - 2.0 * sigma, n)
    return np.exp(log_e), float(sigma)


def shape_dna_field(spectrum: Spectrum, n: int) -> np.ndarray:
    """Truncated eigenvalue sequence broadcast to every vertex, so the global
    descriptor can run through the same point-wise evaluation protocols."""
    if n < 1 or n > len(spectrum):
        raise DataError(f"n={n} outside [1, {len(spectrum)}]")
    return np.tile(spectrum.eigenvalues[:n], (spectrum.n_vertices, 1))


# ---------------------------------------------------------------------------
# parametric descriptor
# ---------------------------------------------------------------------------


def geometry_vectors(spectrum: Spectrum, basis: FrequencyBasis) -> np.ndarray:
    """Accumulate the basis design matrix over the spectrum: a (V, m) array,
    one shape-independent geometry vector of basis responses per vertex,
    weighted by the squared eigenfunctions. The spectrum must reach nu_max
    (else the series truncation is invalid: compute more eigenpairs), and
    nu_max the first positive eigenvalue (else every vector is the same)."""
    top = float(spectrum.eigenvalues[-1])
    if basis.nu_max > top * (1.0 + 1e-12):
        raise DataError(
            f"spectrum reaches nu={top:.6g} but the basis needs nu_max="
            f"{basis.nu_max:.6g}; compute more eigenpairs"
        )
    if basis.nu_max < spectrum.first_positive():
        raise DataError(f"basis cutoff nu_max={basis.nu_max:.6g} lies below the first "
                        f"positive eigenvalue {spectrum.first_positive():.6g}")
    design = basis.evaluate(spectrum.eigenvalues)  # (s, m)
    return spectrum.squared() @ design


def apply_response(gvecs: np.ndarray, model: ResponseModel) -> np.ndarray:
    """Linear map from (V, m) geometry vectors to descriptors, vertex by vertex."""
    if model.coefficients.shape[1] != gvecs.shape[1]:
        raise DataError(
            f"model expects {model.coefficients.shape[1]}-dim geometry vectors, "
            f"field has {gvecs.shape[1]}"
        )
    return gvecs @ model.coefficients.T


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_MODEL_VERSION = 1


def save_response_model(model: ResponseModel, path) -> None:
    doc = {
        "format_version": _MODEL_VERSION,
        "basis": {"kind": model.basis.kind, "nu_max": model.basis.nu_max,
                  "m": model.basis.m},
        "n": model.n,
        "coefficients": [[float(v) for v in row] for row in model.coefficients],
    }
    write_file(path, [json.dumps(doc, indent=1, sort_keys=True), "\n"])


def load_response_model(path) -> ResponseModel:
    p = Path(path)
    try:
        doc = json.loads(read_text(p, "model"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{p}: not a valid model file: {exc}") from exc
    try:
        if doc["format_version"] != _MODEL_VERSION:
            raise DataError(f"unsupported model version {doc['format_version']}")
        if doc["basis"]["kind"] != FrequencyBasis.kind:
            raise DataError(f"unsupported basis kind {doc['basis']['kind']!r}")
        basis = FrequencyBasis(nu_max=float(doc["basis"]["nu_max"]),
                               m=int(doc["basis"]["m"]))
        coef = np.asarray(doc["coefficients"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{p}: malformed model file: {exc}") from exc
    return ResponseModel(basis=basis, coefficients=coef)


def save_descriptor_csv(values: np.ndarray, path) -> None:
    header = "vertex," + ",".join(f"d{j}" for j in range(values.shape[1]))
    write_table(path, [header], ([i, *row] for i, row in enumerate(values.tolist())))


_DESC = Container(b"SDDESC01", "<IIB", "descriptor")


def save_descriptor_binary(values: np.ndarray, family: str, path) -> None:
    fam = family.encode()
    _DESC.write(path, (*values.shape, len(fam)), fam, values)


def load_descriptor_binary(path, family: str) -> np.ndarray:
    """The (V, n) values of a descriptor file that must hold `family`."""
    raw, (nv, n, fam_len) = _DESC.read(path)
    try:
        fam = raw[_DESC.size:_DESC.size + fam_len].decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: descriptor family name is not UTF-8") from exc
    if fam not in DESCRIPTOR_FAMILIES:
        raise DataError(f"{path}: unknown descriptor family {fam!r}")
    if fam != family:
        raise DataError(f"{path}: holds {fam!r} descriptors, not {family!r}")
    return _DESC.floats(raw, _DESC.size + fam_len, nv * n, path).reshape(nv, n)
