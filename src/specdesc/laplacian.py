"""Linear-FEM Laplace-Beltrami operator and its truncated spectrum.

The stiffness matrix carries the classic cotangent weights with the positive
semi-definite sign convention (eigenvalues >= 0, units of inverse area); the
mass matrix is either lumped (diagonal, one third of the incident triangle
area per vertex) or the consistent linear-element mass. Boundaries, when
present, get natural (Neumann) conditions by construction.

The generalized eigenproblem is solved with shift-invert Lanczos (ARPACK)
using a deterministic start vector, with a dense fallback for small meshes
or near-complete spectra. With lumped mass D both solvers work on the
standard symmetric problem D^-1/2·K·D^-1/2 and scale its eigenvectors by
D^-1/2, so Lanczos needs no mass product per step; consistent mass keeps
the generalized form. A truncation that would split a numerically
degenerate eigenvalue cluster is widened by up to five extra pairs so that
cluster sums of squared eigenfunctions stay well defined; the same rule cuts
a shorter spectrum out of a longer one (:meth:`Spectrum.prefix`).
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import MASS_MODES
from .container import Container
from .errors import DataError, NumericalError
from .mesh import TriangleMesh

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "FemOperator",
    "Spectrum",
    "assemble_fem",
    "compute_spectrum",
    "save_spectrum",
    "load_spectrum",
]

COT_CLAMP = 1e8
DENSE_SOLVER_MAX_VERTICES = 600
CLUSTER_REL_GAP = 1e-8
CLUSTER_MAX_EXTEND = 5


@dataclass
class FemOperator:
    """Stiffness/mass pair of the linear FEM discretization."""

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix
    mass_mode: str

    @property
    def n_vertices(self) -> int:
        return self.stiffness.shape[0]


def assemble_fem(mesh: TriangleMesh, mass_mode: str = "lumped") -> FemOperator:
    """Assemble cotangent stiffness and (lumped or consistent) mass matrices.

    Off-diagonal stiffness for edge (i, j) is -(cot a + cot b)/2 over the
    incident triangles; diagonals make every row sum to zero. Cotangents of
    magnitude beyond ``COT_CLAMP`` are clamped with a warning; if every face
    is that degenerate the mesh is rejected.
    """
    if mass_mode not in MASS_MODES:
        raise DataError(f"mass_mode must be one of {MASS_MODES}, got {mass_mode!r}")
    from scipy import sparse
    tri = mesh.faces
    v1 = mesh.vertices[tri[:, 0]]
    v2 = mesh.vertices[tri[:, 1]]
    v3 = mesh.vertices[tri[:, 2]]
    e12, e23, e31 = v2 - v1, v3 - v2, v1 - v3
    double_area = np.linalg.norm(np.cross(e12, -e31), axis=1)
    area = 0.5 * double_area

    # half-cotangent opposite each edge: cot(angle at k) / 2 for edge (i, j)
    with np.errstate(divide="ignore", invalid="ignore"):
        c12 = np.einsum("ij,ij->i", e23, -e31) / (2.0 * double_area)
        c23 = np.einsum("ij,ij->i", e31, -e12) / (2.0 * double_area)
        c31 = np.einsum("ij,ij->i", e12, -e23) / (2.0 * double_area)
    half_clamp = 0.5 * COT_CLAMP
    cots = np.stack([c12, c23, c31])
    bad = ~np.isfinite(cots) | (np.abs(cots) > half_clamp)
    if bad.any(axis=0).all():
        raise DataError("all faces are degenerate; cannot assemble the operator")
    if bad.any():
        warnings.warn(
            f"{int(bad.any(axis=0).sum())} near-degenerate faces: cotangents clamped",
            RuntimeWarning,
            stacklevel=2,
        )
        cots = np.where(np.isfinite(cots), np.clip(cots, -half_clamp, half_clamp),
                        half_clamp)
    c12, c23, c31 = cots

    t1, t2, t3 = tri[:, 0], tri[:, 1], tri[:, 2]
    # off-diagonals are minus the half-cotangents; diagonals restore row sums
    off = np.concatenate([-c12, -c12, -c23, -c23, -c31, -c31])
    diag = np.concatenate([c12 + c31, c12 + c23, c23 + c31])
    rows = np.concatenate([t1, t2, t2, t3, t3, t1, t1, t2, t3])
    cols = np.concatenate([t2, t1, t3, t2, t1, t3, t1, t2, t3])
    data = np.concatenate([off, diag])
    stiffness = sparse.coo_matrix(
        (data, (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    ).tocsr()

    if mass_mode == "lumped":
        lump = np.zeros(mesh.n_vertices)
        for k in range(3):
            np.add.at(lump, tri[:, k], area / 3.0)
        mass = sparse.diags(lump).tocsr()
    else:
        mii = area / 6.0
        mij = area / 12.0
        mdata = np.concatenate([mij, mij, mij, mij, mij, mij, mii, mii, mii])
        mass = sparse.coo_matrix(
            (mdata, (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
        ).tocsr()
    return FemOperator(stiffness=stiffness, mass=mass, mass_mode=mass_mode)


@dataclass
class Spectrum:
    """Ascending eigenvalues and mass-orthonormal eigenfunctions."""

    eigenvalues: np.ndarray  # (s,)
    eigenfunctions: np.ndarray  # (V, s)
    mass_mode: str

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_vertices(self) -> int:
        return self.eigenfunctions.shape[0]

    def squared(self) -> np.ndarray:
        """Per-vertex squared eigenfunctions (V, s); sign-flip invariant."""
        return self.eigenfunctions**2

    def prefix(self, count: int) -> Optional["Spectrum"]:
        """The first `count` pairs (at most one per vertex), widened by the
        cluster rule of :func:`compute_spectrum` so the cut equals that of a
        direct solve; None when this spectrum is too short to apply the rule."""
        if count < 1:
            raise DataError(f"count={count} outside [1, {self.n_vertices}]")
        count = min(count, self.n_vertices)
        if len(self) < min(self.n_vertices, count + CLUSTER_MAX_EXTEND):
            return None
        cut = _cluster_cut(self.eigenvalues, count)
        if cut == len(self):
            return self
        return Spectrum(eigenvalues=self.eigenvalues[:cut],
                        eigenfunctions=self.eigenfunctions[:, :cut],
                        mass_mode=self.mass_mode)

    def first_positive(self) -> float:
        """Smallest eigenvalue clearly above the numerical null space."""
        vals = self.eigenvalues
        if len(vals) < 2:
            raise DataError("spectrum needs at least two eigenvalues")
        floor = 1e-8 * abs(vals[-1]) + 1e-300
        pos = vals[vals > floor]
        if pos.size == 0:
            raise DataError("spectrum has no positive eigenvalues")
        return float(pos[0])


def _deterministic_start(n: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(n)


def _lumped_standard_form(op: FemOperator):
    """D^-1/2 and the symmetrized sparse D^-1/2·K·D^-1/2 of a lumped-mass
    operator: its eigenvectors ψ give the pencil's φ = D^-1/2·ψ with the same
    eigenvalues (Vallet & Lévy 2008, *Manifold Harmonics*)."""
    from scipy import sparse
    inv_sqrt = 1.0 / np.sqrt(op.mass.diagonal())
    stiff = op.stiffness.tocoo()
    scaled = inv_sqrt[stiff.row] * stiff.data * inv_sqrt[stiff.col]
    sym = sparse.csr_matrix((scaled, (stiff.row, stiff.col)), shape=stiff.shape)
    return inv_sqrt, 0.5 * (sym + sym.T)


def _dense_pairs(op: FemOperator, k: int):
    """The k smallest pairs from a dense solve that computes only those."""
    from scipy.linalg import eigh
    wanted = [0, k - 1]
    if op.mass_mode == "lumped":
        inv_sqrt, sym = _lumped_standard_form(op)
        vals, vecs = eigh(sym.toarray(), subset_by_index=wanted)
        return vals, inv_sqrt[:, None] * vecs
    return eigh(op.stiffness.toarray(), op.mass.toarray(), subset_by_index=wanted)


def _arpack_pairs(op: FemOperator, k: int):
    """The k smallest pairs by shift-invert Lanczos just below zero; lumped
    mass runs as a standard symmetric problem, which needs no mass product
    per iteration."""
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh
    n = op.n_vertices
    sigma = -1e-8 * op.stiffness.diagonal().sum() / n
    if op.mass_mode == "lumped":
        inv_sqrt, matrix = _lumped_standard_form(op)
        mass = None
    else:
        inv_sqrt, matrix, mass = None, op.stiffness, op.mass.tocsc()
    try:
        vals, funcs = eigsh(
            matrix.tocsc(),
            k=k,
            M=mass,
            sigma=sigma,
            which="LM",
            v0=_deterministic_start(n),
        )
    except ArpackNoConvergence as exc:
        raise NumericalError(
            f"eigensolver did not converge: {len(exc.eigenvalues)} of {k} pairs "
            f"after the iteration limit"
        ) from exc
    except ArpackError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if inv_sqrt is not None:
        funcs = inv_sqrt[:, None] * funcs
    order = np.argsort(vals, kind="stable")
    return vals[order], funcs[:, order]


def _cluster_cut(vals: np.ndarray, count: int) -> int:
    """Truncation length at or after `count` that splits no cluster of
    numerically equal eigenvalues, widened by at most CLUSTER_MAX_EXTEND
    pairs and never beyond len(vals)."""
    cut = count
    limit = min(count + CLUSTER_MAX_EXTEND, len(vals))
    while cut < limit:
        gap = vals[cut] - vals[cut - 1]
        scale = max(abs(vals[cut]), abs(vals[cut - 1]), 1e-300)
        if gap / scale < CLUSTER_REL_GAP:
            cut += 1
        else:
            break
    return cut


def compute_spectrum(op: FemOperator, count: int) -> Spectrum:
    """Smallest `count` generalized eigenpairs of the stiffness/mass pencil.

    May return up to ``CLUSTER_MAX_EXTEND`` extra pairs when the requested
    truncation would split a cluster of numerically equal eigenvalues.
    """
    n = op.n_vertices
    if not 1 <= count <= n:
        raise DataError(f"count={count} outside [1, {n}]")
    want = min(n, count + CLUSTER_MAX_EXTEND + 1)
    if n <= DENSE_SOLVER_MAX_VERTICES or want > n // 3:
        vals, funcs = _dense_pairs(op, want)
    else:
        vals, funcs = _arpack_pairs(op, want)

    cut = _cluster_cut(vals, count)
    vals = np.asarray(vals[:cut], dtype=np.float64)
    funcs = np.ascontiguousarray(funcs[:, :cut], dtype=np.float64)

    # polish mass-orthonormality; both solvers are already close
    gram = funcs.T @ (op.mass @ funcs)
    defect = np.abs(gram - np.eye(cut)).max()
    if defect > 1e-10:
        chol = np.linalg.cholesky(gram)
        funcs = np.linalg.solve(chol, funcs.T).T
        gram = funcs.T @ (op.mass @ funcs)
        defect = np.abs(gram - np.eye(cut)).max()
    if defect > 1e-6:
        raise NumericalError(f"eigenfunctions not mass-orthonormal (defect {defect:.2e})")
    _check_residuals(op, vals, funcs)
    return Spectrum(eigenvalues=vals, eigenfunctions=funcs, mass_mode=op.mass_mode)


def _check_residuals(op: FemOperator, vals: np.ndarray, funcs: np.ndarray) -> None:
    """Relative residual check per pair; null-space modes are compared to the
    operator scale instead (their stiffness image is pure roundoff)."""
    res = op.stiffness @ funcs - op.mass @ funcs * vals[None, :]
    res_norm = np.linalg.norm(res, axis=0)
    img_norm = np.linalg.norm(op.stiffness @ funcs, axis=0)
    scale = np.abs(op.stiffness.diagonal()).max()
    null = img_norm <= 1e-9 * scale * np.sqrt(op.n_vertices)
    bad = ~null & (res_norm > 1e-6 * img_norm)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise NumericalError(
            f"eigenpair {k} residual {res_norm[k]:.2e} exceeds 1e-6 * {img_norm[k]:.2e}"
        )


# ---------------------------------------------------------------------------
# binary spectrum cache
# ---------------------------------------------------------------------------

_CACHE = Container(b"SDSPEC01", "<IIB32s", "spectrum cache")


def save_spectrum(spectrum: Spectrum, mesh_hash: str, path) -> None:
    """Binary cache: header (vertex count, pair count, mass mode, version via
    magic), SHA-256 of the mesh file, eigenvalues, then eigenfunctions
    row-major."""
    digest = bytes.fromhex(mesh_hash)
    if len(digest) != 32:
        raise DataError("mesh_hash must be a sha256 hex digest")
    header = (*spectrum.eigenfunctions.shape, MASS_MODES.index(spectrum.mass_mode), digest)
    _CACHE.write(path, header, spectrum.eigenvalues, spectrum.eigenfunctions)


def load_spectrum(path, mesh_hash: str) -> Spectrum:
    """Load a cached spectrum of the mesh file whose SHA-256 is `mesh_hash`;
    raises DataError on any mismatch or damage, including non-finite values
    and eigenvalues out of ascending order."""
    raw, (nv, s, mode_idx, digest) = _CACHE.read(path)
    if digest.hex() != mesh_hash:
        raise DataError(f"{path}: cached spectrum belongs to a different mesh")
    if mode_idx >= len(MASS_MODES):
        raise DataError(f"{path}: unknown mass mode tag {mode_idx}")
    flat = _CACHE.floats(raw, _CACHE.size, s + nv * s, path)
    if (np.diff(flat[:s]) < 0).any():
        raise DataError(f"{path}: cached eigenvalues are not in ascending order")
    return Spectrum(
        eigenvalues=flat[:s],
        eigenfunctions=flat[s:].reshape(nv, s),
        mass_mode=MASS_MODES[mode_idx],
    )


def spectrum_cache_key(mesh_bytes_hash: str, mass_mode: str) -> str:
    """Stable cache key from mesh file content and mass mode: one entry per
    mesh, holding the longest spectrum solved so far."""
    h = hashlib.sha256()
    h.update(mesh_bytes_hash.encode())
    h.update(f":{mass_mode}".encode())
    return h.hexdigest()[:16]
