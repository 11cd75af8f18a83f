"""Triangle mesh ingestion, validation, geodesic distances and point sampling.

Geodesics are plain edge-graph Dijkstra distances: deterministic, invariant
under face reordering, and accurate enough for ball-membership thresholds at
a few percent of the intrinsic diameter. Farthest point sampling is greedy,
seeded at vertex 0, with ties broken toward the smallest vertex index, so two
runs always produce the same sequence.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .container import read_text, write_table
from .errors import DataError, MeshValidationError, ParseError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "TriangleMesh",
    "load_mesh",
    "save_off",
    "save_coff",
    "geodesic_distance_fields",
    "geodesic_balls",
    "intrinsic_diameter",
    "farthest_point_sample",
]

# A face counts as degenerate when its area falls at or below this fraction
# of the squared mean edge length.
DEGENERATE_AREA_FACTOR = 1e-12

# centres whose ball searches run in one Dijkstra call; each call holds a
# dense (2 * BALL_BLOCK, V) float64 array however small the balls are
# (0.6 MB at V = 2,354), and the balls are OR-ed row by row, so the block
# size changes the peak memory, not the balls
BALL_BLOCK = 16


class TriangleMesh:
    """A validated triangle mesh.

    Parameters
    ----------
    vertices : (V, 3) array_like
        Vertex positions; arbitrary length units, kept exactly as given.
    faces : (F, 3) array_like
        Vertex index triples.

    Every mesh passes the full structural validation (index ranges,
    degenerate faces, edge manifoldness, single connected component).
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshValidationError("vertices must be an array of shape (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshValidationError("faces must be an array of shape (F, 3)")
        self._validate()

    # -- basic counts -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    # -- derived structure -------------------------------------------------

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges (sorted index pairs in lexicographic order)
        and the number of faces sharing each; the key i * V + j sorts the
        same way as the pairs."""
        nv = self.n_vertices
        half = np.sort(self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, counts = np.unique(half[:, 0] * nv + half[:, 1], return_counts=True)
        return np.column_stack([keys // nv, keys % nv]), counts

    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (E, 2) array of sorted index pairs."""
        return self._edge_table[0]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        diff = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return np.linalg.norm(diff, axis=1)

    @cached_property
    def face_areas(self) -> np.ndarray:
        v0 = self.vertices[self.faces[:, 0]]
        e1 = self.vertices[self.faces[:, 1]] - v0
        e2 = self.vertices[self.faces[:, 2]] - v0
        return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)

    @cached_property
    def _edge_graph(self) -> sparse.csr_matrix:
        from scipy import sparse
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = self.edge_lengths
        graph = sparse.coo_matrix(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n_vertices, self.n_vertices),
        )
        return graph.tocsr()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise MeshValidationError(f"vertex {bad} has a non-finite coordinate")
        nv, nf = self.n_vertices, self.n_faces
        if nv == 0 or nf == 0:
            raise MeshValidationError("mesh has no vertices or no faces")
        f = self.faces
        out = (f < 0) | (f >= nv)
        if out.any():
            bad = int(np.flatnonzero(out.any(axis=1))[0])
            raise MeshValidationError(
                f"face {bad} references vertex index outside [0, {nv})"
            )
        same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
        if same.any():
            bad = int(np.flatnonzero(same)[0])
            raise MeshValidationError(f"face {bad} has repeated vertex indices")
        mean_edge = float(self.edge_lengths.mean())
        thin = self.face_areas <= DEGENERATE_AREA_FACTOR * mean_edge * mean_edge
        if thin.any():
            bad = int(np.flatnonzero(thin)[0])
            raise MeshValidationError(
                f"face {bad} is degenerate (area {self.face_areas[bad]:.3e})"
            )
        edges, counts = self._edge_table
        if (counts > 2).any():
            e = edges[np.flatnonzero(counts > 2)[0]]
            raise MeshValidationError(
                f"edge ({e[0]}, {e[1]}) is shared by more than two faces"
            )
        degree = np.bincount(edges.ravel(), minlength=nv)
        if (degree == 0).any():
            bad = int(np.flatnonzero(degree == 0)[0])
            raise MeshValidationError(f"vertex {bad} belongs to no face")
        if (ncomp := _component_count(nv, edges)) != 1:
            raise MeshValidationError(
                f"mesh has {ncomp} connected components; expected a single one"
            )


def _component_count(nv: int, edges: np.ndarray) -> int:
    """Connected components of the edge graph: each vertex takes the least
    label of itself and its neighbours, then that label's label, until no
    label changes; each component then holds one vertex labelled itself."""
    label = np.arange(nv)
    i, j = edges[:, 0], edges[:, 1]
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, label):
            return int((label == np.arange(nv)).sum())
        label = new


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def _significant_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _read_off(path: Path, text: str):
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(f"{path}: empty OFF file")
    header = lines[0].split()
    if header[0] != "OFF":
        raise ParseError(f"{path}: missing OFF header")
    rest = header[1:]
    idx = 1
    if not rest:
        if len(lines) < 2:
            raise ParseError(f"{path}: missing OFF counts line")
        rest = lines[1].split()
        idx = 2
    if len(rest) < 2:
        raise ParseError(f"{path}: malformed OFF counts line")
    try:
        nv, nf = int(rest[0]), int(rest[1])
    except ValueError as exc:
        raise ParseError(f"{path}: malformed OFF counts line") from exc
    if nv < 0 or nf < 0:
        raise ParseError(f"{path}: malformed OFF counts line")
    if len(lines) < idx + nv + nf:
        raise ParseError(f"{path}: truncated OFF file")
    verts = np.empty((nv, 3), dtype=np.float64)
    for i in range(nv):
        parts = lines[idx + i].split()
        if len(parts) < 3:
            raise ParseError(f"{path}: vertex line {i} has fewer than 3 coordinates")
        try:
            verts[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
        except ValueError as exc:
            raise ParseError(f"{path}: bad vertex line {i}") from exc
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        parts = lines[idx + nv + i].split()
        try:
            count = int(parts[0])
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: bad face line {i}") from exc
        if count != 3 or len(parts) < 4:
            raise ParseError(f"{path}: face {i} is not a triangle")
        try:
            faces[i] = [int(parts[1]), int(parts[2]), int(parts[3])]
        except ValueError as exc:
            raise ParseError(f"{path}: bad face line {i}") from exc
    return verts, faces


def _read_obj(path: Path, text: str):
    verts = []
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "v":
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad vertex") from exc
        elif key == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise ParseError(f"{path}:{lineno}: only triangular faces supported")
            idx = []
            for ref in refs:
                token = ref.split("/", 1)[0]
                try:
                    value = int(token)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad face index {ref!r}") from exc
                if value <= 0:
                    raise ParseError(
                        f"{path}:{lineno}: OBJ face indices are 1-based, got {value}"
                    )
                idx.append(value - 1)
            faces.append(idx)
        # all other statements (vt, vn, usemtl, ...) are ignored
    if not verts or not faces:
        raise ParseError(f"{path}: no usable vertex/face data")
    return np.asarray(verts, dtype=np.float64), np.asarray(faces, dtype=np.int64)


def load_mesh(path) -> TriangleMesh:
    """Load and validate a triangle mesh from an OFF or OBJ file.

    Vertex order is preserved exactly as in the file. Raises
    :class:`ParseError` for malformed files and :class:`MeshValidationError`
    (naming the offending element) for structurally invalid meshes.
    """
    p = Path(path)
    fmt = p.suffix.lstrip(".").lower()
    readers = {"off": _read_off, "obj": _read_obj}
    if fmt not in readers:
        raise ParseError(f"{p}: unsupported mesh format {fmt!r}")
    verts, faces = readers[fmt](p, read_text(p, "mesh"))
    try:
        return TriangleMesh(verts, faces)
    except MeshValidationError as exc:
        raise MeshValidationError(f"{p}: {exc}") from exc


def save_off(mesh: TriangleMesh, path) -> None:
    """Write an ASCII OFF file; float formatting is shortest round-trip, so
    identical meshes produce byte-identical files."""
    _write_off(mesh, "OFF", mesh.vertices.tolist(), path)


def save_coff(mesh: TriangleMesh, colors: np.ndarray, path) -> None:
    """Write a COFF file with one RGB color (floats in [0, 1]) per vertex."""
    colors = np.asarray(colors, dtype=np.float64)
    if colors.shape != (mesh.n_vertices, 3):
        raise DataError("colors must be (V, 3)")
    rgb = np.clip(np.rint(colors * 255.0), 0, 255).astype(np.int64)
    rows = ([*v, *c, 255] for v, c in zip(mesh.vertices.tolist(), rgb.tolist()))
    _write_off(mesh, "COFF", rows, path)


def _write_off(mesh: TriangleMesh, magic: str, vertex_rows, path) -> None:
    faces = ([3, *f] for f in mesh.faces.tolist())
    write_table(path, [magic, f"{mesh.n_vertices} {mesh.n_faces} 0"],
                itertools.chain(vertex_rows, faces), sep=" ")


# ---------------------------------------------------------------------------
# geodesics and sampling
# ---------------------------------------------------------------------------


def geodesic_distance_fields(mesh: TriangleMesh, sources, limit: float = np.inf) -> np.ndarray:
    """Dijkstra distances from several sources at once; rows follow `sources`.
    Distances beyond `limit` are not searched and read inf. Every Dijkstra
    search of the package goes through here, directed: the edge graph holds
    both directions of each edge, so no call transposes it."""
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return np.zeros((0, mesh.n_vertices))
    if sources.min() < 0 or sources.max() >= mesh.n_vertices:
        raise DataError("source vertex outside mesh")
    from scipy.sparse import csgraph
    dist = csgraph.dijkstra(mesh._edge_graph, directed=True, indices=sources, limit=limit)
    return np.atleast_2d(dist)


def geodesic_balls(mesh: TriangleMesh, centers, symmetry, radii) -> list[np.ndarray]:
    """Closed geodesic balls, one bool (len(centers), V) array per radius in
    `radii`: row i holds the vertices within that radius of centers[i] or of
    its image under `symmetry` (an int vertex map, or None). A centre or image
    of -1 adds nothing. Searches stop at max(radii), BALL_BLOCK centres per
    Dijkstra call. Every geodesic ball of the package is taken here."""
    centers = np.asarray(centers, dtype=np.int64)
    sources = centers[None]
    if symmetry is not None:
        mirrored = np.where(centers >= 0, np.asarray(symmetry, dtype=np.int64)[centers], -1)
        # an image equal to its centre adds no second source
        sources = np.stack([centers, np.where(mirrored == centers, -1, mirrored)])
    balls = [np.zeros((len(centers), mesh.n_vertices), dtype=bool) for _ in radii]
    for start in range(0, len(centers), BALL_BLOCK):
        block = sources[:, start:start + BALL_BLOCK]
        dist = geodesic_distance_fields(mesh, block[block >= 0], limit=max(radii))
        # the rows of dist hold the valid centres, then the valid images
        ends = np.cumsum([0, *(block >= 0).sum(axis=1)])
        for valid, a, b in zip(block >= 0, ends, ends[1:]):
            for ball, radius in zip(balls, radii):
                ball[start:start + BALL_BLOCK][valid] |= dist[a:b] <= radius
    return balls


def _fps(distance_from, k: int):
    """Greedy farthest point sampling from vertex 0.

    `distance_from(v)` returns the per-vertex distance field of vertex v.
    Returns (selected indices, max pairwise distance over selected).
    """
    selected = np.empty(k, dtype=np.int64)
    selected[0] = 0
    dmin = distance_from(0)
    max_pair = 0.0
    for i in range(1, k):
        nxt = int(np.argmax(dmin))  # ties resolve to the smallest index
        selected[i] = nxt
        field = distance_from(nxt)
        max_pair = max(max_pair, float(field[selected[:i]].max()))
        dmin = np.minimum(dmin, field)
    return selected, max_pair


def farthest_point_sample(field: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest point sampling of `k` vertices, seeded at vertex 0, in
    descriptor space: `field` holds one descriptor row per vertex, (V, d) or
    (V,), and the metric is Euclidean."""
    values = np.asarray(field, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    nv = values.shape[0]
    if not 1 <= k <= nv:
        raise DataError(f"k={k} outside [1, {nv}]")
    selected, _ = _fps(lambda v: np.linalg.norm(values - values[v], axis=1), k)
    return selected


def intrinsic_diameter(mesh: TriangleMesh, samples: int) -> float:
    """Approximate intrinsic diameter: max pairwise geodesic distance over a
    farthest-point-sampled subset of `samples` vertices (geodesic FPS seeded
    at vertex 0, hence deterministic and non-decreasing in `samples`)."""
    if samples < 2:
        raise DataError("samples must be at least 2")
    samples = min(samples, mesh.n_vertices)
    _, diameter = _fps(lambda v: geodesic_distance_fields(mesh, [v])[0], samples)
    return diameter
