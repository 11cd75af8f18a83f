"""Synthetic shape corpus: base shapes, deformations, exact correspondences.

A fully synthetic, self-contained evaluation corpus: a handful of analytic
base shapes (icosphere, torus, flat annulus, capsule, articulated multi-lobe
blob) deformed by rigid motion, near-isometric joint bending, vertex jitter,
hole punching, and decimation, each at five strengths. Every deformed mesh
carries an exact vertex correspondence back to its null shape: bending,
jitter and rigid motion preserve vertex identity; holes record the surviving
vertices; decimation regenerates the shape on a sub-grid of the fine
parameterization so coarse vertices coincide with fine ones bitwise.

Revolution shapes get a deterministic low-order angular modulation (even
cosine harmonics) so that points on a parallel are geometrically
distinguishable; the modulation is chosen to commute with the reflection
``x -> -x``, which therefore remains an exact intrinsic symmetry and is
emitted as the symmetry map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import ManifestEntry, write_manifest
from .container import make_dir, read_text, write_table
from .errors import DataError, MeshValidationError
from .mesh import TriangleMesh, geodesic_balls, intrinsic_diameter, save_off

__all__ = [
    "SyntheticCorpusSpec",
    "icosphere",
    "grid_mesh",
    "flat_annulus",
    "torus",
    "capsule",
    "multi_sphere",
    "rigid_motion",
    "bend",
    "jitter",
    "punch_holes",
    "generate_corpus",
    "save_index_map",
    "load_index_map",
]

JITTER_DIAMETER_FRACTION = 0.001  # displacement std per unit strength
HOLE_RADIUS_BASE_FRACTION = 0.01  # hole radius = (base + step * strength) * diameter
HOLE_RADIUS_STEP_FRACTION = 0.005
DIAMETER_SAMPLES = 32
DEFORMATIONS = ("bend", "jitter", "holes", "rigid", "decimate")


# ---------------------------------------------------------------------------
# base shapes
# ---------------------------------------------------------------------------

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> TriangleMesh:
    """Icosahedron with `subdivisions` rounds of 4-1 midpoint subdivision.

    Vertices of level ``k`` keep their indices at every level above ``k``,
    which makes cross-resolution correspondences exact.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.asarray(v, dtype=np.float64) for v in verts]
    verts = [v / np.linalg.norm(v) for v in verts]
    faces = list(_ICO_FACES)
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            idx = cache.get(key)
            if idx is None:
                mid = 0.5 * (verts[a] + verts[b])
                mid = mid / np.linalg.norm(mid)
                verts.append(mid)
                idx = len(verts) - 1
                cache[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = new_faces
    vertices = np.asarray(verts) * radius
    return TriangleMesh(vertices, np.asarray(faces, dtype=np.int64))


def _quad_faces(a, b, c, d) -> np.ndarray:
    """Triangles (a, b, c) and (a, c, d) of every quad, quad after quad in
    row-major order of the equally shaped corner-id arrays."""
    a, b, c, d = (np.ravel(corner) for corner in (a, b, c, d))
    return np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def grid_mesh(nx: int, ny: Optional[int] = None, width: float = 1.0,
              height: Optional[float] = None) -> TriangleMesh:
    """Planar rectangle split into `nx` x `ny` cells, two triangles each.

    All cells share the same diagonal direction, so on a square grid the
    cotangent stiffness reduces to the classic 5-point stencil.
    """
    ny = nx if ny is None else ny
    height = width if height is None else height
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    ids = np.arange(gx.size).reshape(ny + 1, nx + 1)
    return TriangleMesh(vertices, _quad_faces(ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:],
                                              ids[1:, :-1]))


def torus(n_u: int = 40, n_v: int = 24, major: float = 1.0, minor: float = 0.3,
          bumps: bool = True) -> TriangleMesh:
    u = np.arange(n_u) * (2.0 * np.pi / n_u)
    v = np.arange(n_v) * (2.0 * np.pi / n_v)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    r = np.full_like(uu, minor)
    if bumps:
        r = minor * (1.0 + 0.10 * np.cos(3.0 * uu) + 0.06 * np.cos(2.0 * vv))
    x = (major + r * np.cos(vv)) * np.cos(uu)
    y = (major + r * np.cos(vv)) * np.sin(uu)
    z = r * np.sin(vv)
    vertices = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    g = np.pad(np.arange(n_u * n_v).reshape(n_u, n_v), ((0, 1), (0, 1)), mode="wrap")
    return TriangleMesh(vertices, _quad_faces(g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]))


def torus_symmetry(n_u: int = 40, n_v: int = 24) -> np.ndarray:
    """Reflection (u, v) -> (-u, -v) as a vertex index map."""
    i = np.arange(n_u)[:, None]
    j = np.arange(n_v)[None, :]
    return (((-i) % n_u) * n_v + ((-j) % n_v)).ravel()


def flat_annulus(n_r: int = 12, n_theta: int = 48, r_inner: float = 0.5,
                 r_outer: float = 1.85) -> TriangleMesh:
    radii = np.linspace(r_inner, r_outer, n_r)
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    vertices = np.column_stack(
        [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel(), np.zeros(rr.size)]
    )
    g = np.pad(np.arange(n_r * n_theta).reshape(n_r, n_theta), ((0, 0), (0, 1)), mode="wrap")
    return TriangleMesh(vertices, _quad_faces(g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]))


# -- surfaces of revolution --------------------------------------------------


@dataclass
class RevolutionShape:
    """A closed surface of revolution with optional angular modulation.

    Row ``i`` of vertices lies at height ``zs[i]`` around the axis with base
    radius ``radii[i]``, strictly between the poles at ``z_bottom`` and
    ``z_top``. The angular modulation multiplies the radius by
    ``1 + sum(amp * cos(k * theta) * win)``; cosine-only terms preserve the
    reflection theta -> -theta (y -> -y), and mixing even and odd harmonics
    avoids any residual rotational symmetry that would make distinct points
    isometrically indistinguishable.
    """

    zs: np.ndarray
    radii: np.ndarray
    n_seg: int
    z_bottom: float
    z_top: float
    harmonics: tuple[tuple[int, float], ...] = ()
    joints: tuple[float, ...] = ()
    window_skew: float = 0.0

    def _row_ids(self) -> np.ndarray:
        """(rows, n_seg) ids of the row vertices; the poles are the first
        and the last vertex."""
        return 1 + np.arange(len(self.zs) * self.n_seg).reshape(-1, self.n_seg)

    def mesh(self) -> TriangleMesh:
        theta = np.arange(self.n_seg) * (2.0 * np.pi / self.n_seg)
        t = (self.zs - self.z_bottom) / (self.z_top - self.z_bottom)
        # a nonzero skew removes any end-to-end flip isometry, so no two
        # distinct surface points are exactly interchangeable
        window = np.sin(np.pi * t) * (1.0 + self.window_skew * (t - 0.5))
        mod = np.ones((len(self.zs), self.n_seg))
        for k, amp in self.harmonics:
            mod += amp * window[:, None] * np.cos(k * theta)[None, :]
        r = self.radii[:, None] * mod
        x = r * np.cos(theta)[None, :]
        y = r * np.sin(theta)[None, :]
        z = np.broadcast_to(self.zs[:, None], r.shape)
        vertices = np.vstack([[0.0, 0.0, self.z_bottom],
                              np.column_stack([x.ravel(), y.ravel(), z.ravel()]),
                              [0.0, 0.0, self.z_top]])
        ids = self._row_ids()
        ring = np.hstack([ids, ids[:, :1]])  # the seam closes each row
        pole = np.zeros(self.n_seg, dtype=np.int64)
        faces = np.vstack([
            np.column_stack([pole, ring[0, 1:], ring[0, :-1]]),
            _quad_faces(ring[:-1, :-1], ring[:-1, 1:], ring[1:, 1:], ring[1:, :-1]),
            np.column_stack([pole + ids.size + 1, ring[-1, :-1], ring[-1, 1:]]),
        ])
        return TriangleMesh(vertices, faces)

    def symmetry(self) -> np.ndarray:
        """Reflection y -> -y: (row, j) -> (row, -j mod n_seg)."""
        ids = self._row_ids()
        mirrored = ids[:, (-np.arange(self.n_seg)) % self.n_seg]
        return np.concatenate([[0], mirrored.ravel(), [ids.size + 1]])

    def decimated(self) -> tuple["RevolutionShape", np.ndarray]:
        """Halve rows and segments; returns the coarse shape and the map
        from each coarse vertex to its bitwise-identical fine vertex."""
        if (len(self.zs) + 1) % 2 or self.n_seg % 2:
            raise DataError("decimation needs (rows+1) and n_seg even")
        coarse = replace(self, zs=self.zs[1::2], radii=self.radii[1::2], n_seg=self.n_seg // 2)
        ids = self._row_ids()
        return coarse, np.concatenate([[0], ids[1::2, ::2].ravel(), [ids.size + 1]])


def _uniform_arclength_levels(r_of, n_rows):
    """Profile parameters t in (0, 1) of `n_rows` rows spaced uniformly along
    the arc length of the curve (t, r_of(t))."""
    t = np.linspace(0.0, 1.0, 4096)
    ds = np.hypot(np.diff(t), np.diff(r_of(t)))
    s = np.concatenate([[0.0], np.cumsum(ds)])
    s /= s[-1]
    targets = np.arange(1, n_rows + 1) / (n_rows + 1)
    return np.interp(targets, s, t)


def capsule(n_seg: int = 36, n_rows: int = 39, length: float = 2.1,
            radius: float = 0.55, bumps: bool = True) -> RevolutionShape:
    """Cylinder with hemispherical caps; one bendable joint at mid-height."""
    half = length / 2.0
    z0, z1 = -half - radius, half + radius

    def r_of_level(t):
        z = z0 + (z1 - z0) * np.asarray(t)
        r = np.empty_like(z)
        lo, hi = -half, half
        r[:] = radius
        below = z < lo
        above = z > hi
        r[below] = np.sqrt(np.maximum(radius**2 - (z[below] - lo) ** 2, 0.0))
        r[above] = np.sqrt(np.maximum(radius**2 - (z[above] - hi) ** 2, 0.0))
        return r

    levels = _uniform_arclength_levels(r_of_level, n_rows)
    harmonics = ((3, 0.09), (4, 0.055)) if bumps else ()
    return RevolutionShape(
        zs=z0 + (z1 - z0) * levels,
        radii=r_of_level(levels),
        n_seg=n_seg,
        z_bottom=z0,
        z_top=z1,
        harmonics=harmonics,
        joints=(0.0,),
    )


def multi_sphere(n_seg: int = 36, n_rows: int = 43,
                 lobe_radii: Sequence[float] = (0.72, 0.5, 0.72),
                 spacings: Sequence[float] = (1.0, 1.3), neck: float = 0.2,
                 bumps: bool = True, window_skew: float = 0.0) -> RevolutionShape:
    """Chain of spherical lobes joined by narrow necks (articulated blob).

    The default has two identical end lobes separated by necks of different
    length: coarse-scale content repeats while mid-scale content does not,
    the classic confusion case for purely low-pass descriptors.
    """
    lobe_radii = np.asarray(lobe_radii, dtype=np.float64)
    centers = np.concatenate([[0.0], np.cumsum(np.asarray(spacings, dtype=np.float64))])
    if len(centers) != len(lobe_radii):
        raise DataError("need one spacing per consecutive lobe pair")
    z0 = centers[0] - lobe_radii[0]
    z1 = centers[-1] + lobe_radii[-1]

    def r_of_level(t):
        z = z0 + (z1 - z0) * np.asarray(t)
        vals = lobe_radii[None, :] ** 2 - (z[:, None] - centers[None, :]) ** 2
        best = vals.max(axis=1)
        inside = (z > centers[0]) & (z < centers[-1])
        best[inside] = np.maximum(best[inside], neck**2)
        return np.sqrt(np.maximum(best, 0.0))

    levels = _uniform_arclength_levels(r_of_level, n_rows)
    # joints at the neck waists between consecutive lobes
    joints = []
    for i in range(len(lobe_radii) - 1):
        za, zb = centers[i], centers[i + 1]
        ra, rb = lobe_radii[i], lobe_radii[i + 1]
        joints.append(0.5 * (za + zb) + (ra**2 - rb**2) / (2.0 * (zb - za)))
    harmonics = ((3, 0.08), (4, 0.05)) if bumps else ()
    return RevolutionShape(
        zs=z0 + (z1 - z0) * levels,
        radii=r_of_level(levels),
        n_seg=n_seg,
        z_bottom=z0,
        z_top=z1,
        harmonics=harmonics,
        joints=tuple(joints),
        window_skew=window_skew,
    )


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rigid_motion(mesh: TriangleMesh, strength: int) -> TriangleMesh:
    """Deterministic rotation + translation scaled by strength 0..5."""
    if strength == 0:
        return mesh
    rot = _rotation_matrix(np.array([1.0, 2.0, 3.0]), strength * (2.0 * np.pi / 12.0))
    scale = float(np.linalg.norm(np.ptp(mesh.vertices, axis=0)))
    shift = strength * 0.05 * scale * np.array([0.31, -0.17, 0.23])
    return TriangleMesh(mesh.vertices @ rot.T + shift, mesh.faces, validate=False)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def bend(mesh: TriangleMesh, joints: Sequence[float], strength: int,
         window: float = 0.3) -> TriangleMesh:
    """Near-isometric articulation around the z-axis joints.

    Every cross-section plane z = const is carried rigidly onto a plane
    normal to a bent centerline; the bend angle accumulates a smoothstep
    contribution per joint (alternating sign) so the axial metric is
    preserved exactly on the centerline and distorted only by the section
    radius times the local curvature. Bending happens in the (x, z) plane,
    which commutes with the y -> -y reflection symmetry of the revolution
    shapes."""
    if strength == 0 or not joints:
        return mesh
    verts = mesh.vertices
    z = verts[:, 2]
    zmin, zmax = float(z.min()), float(z.max())
    grid = np.linspace(zmin, zmax, 4096)
    theta_grid = np.zeros_like(grid)
    for idx, zj in enumerate(joints):
        angle = np.deg2rad(6.0 * strength) * (1.0 if idx % 2 == 0 else -0.8)
        theta_grid += angle * _smoothstep((grid - (zj - window)) / (2.0 * window))
    # centerline: integrate the unit tangent of the bent axis
    dz = grid[1] - grid[0]
    tx, tz = np.sin(theta_grid), np.cos(theta_grid)
    cx = np.concatenate([[0.0], np.cumsum(0.5 * (tx[1:] + tx[:-1]) * dz)])
    cz = zmin + np.concatenate([[0.0], np.cumsum(0.5 * (tz[1:] + tz[:-1]) * dz)])
    theta = np.interp(z, grid, theta_grid)
    out = verts.copy()
    out[:, 0] = np.interp(z, grid, cx) + verts[:, 0] * np.cos(theta)
    out[:, 2] = np.interp(z, grid, cz) - verts[:, 0] * np.sin(theta)
    return TriangleMesh(out, mesh.faces, validate=False)


def jitter(mesh: TriangleMesh, sigma: float, rng: np.random.Generator) -> TriangleMesh:
    """Gaussian vertex displacement with per-coordinate std `sigma`."""
    noise = rng.standard_normal(mesh.vertices.shape) * sigma
    return TriangleMesh(mesh.vertices + noise, mesh.faces, validate=False)


def punch_holes(mesh: TriangleMesh, n_holes: int, radius: float,
                rng: np.random.Generator):
    """Remove the faces inside `n_holes` small geodesic balls.

    Returns (holed mesh, correspondence holed -> original). Retries with a
    smaller radius if the punched mesh fails validation (e.g. disconnects).
    """
    for attempt in range(4):
        r = radius * (0.7**attempt)
        centers = []
        candidates = rng.permutation(mesh.n_vertices)
        for c in candidates:
            if all(
                np.linalg.norm(mesh.vertices[c] - mesh.vertices[o]) > 6.0 * r
                for o in centers
            ):
                centers.append(int(c))
            if len(centers) == n_holes:
                break
        [balls] = geodesic_balls(mesh, centers, None, (r,))
        drop = balls.any(axis=0)[mesh.faces].any(axis=1)
        kept_faces = mesh.faces[~drop]
        keep = np.unique(kept_faces)
        remap = -np.ones(mesh.n_vertices, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        try:
            holed = TriangleMesh(mesh.vertices[keep], remap[kept_faces])
        except MeshValidationError:
            continue
        return holed, keep
    raise DataError("hole punching kept breaking the mesh; radius too large")


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------


@dataclass
class SyntheticCorpusSpec:
    base_shapes: tuple[str, ...] = (
        "triblob",
        "capsule",
        "icosphere",
        "ellipsoid",
        "sphere_small",
        "disk",
        "flat_annulus",
        "annulus_wide",
        "multisphere",
        "torus",
    )
    deformations: tuple[str, ...] = ("bend", "jitter", "holes")
    strengths: int = 5
    rng_seed: int = 0


def _ellipsoid() -> TriangleMesh:
    sphere = icosphere(3)
    return TriangleMesh(sphere.vertices * np.array([1.3, 0.8, 1.05]), sphere.faces)


# base shape -> (split, deformations, strengths, build); None takes the
# spec's deformations or its strengths 1..n. `build()` returns a surface of
# revolution, the only kind that bends or decimates, or a (mesh, symmetry) pair
_BASES = {
    # articulated trainer: same family as the eval blob, different
    # proportions, no exact self-equivalences (unequal lobes + skew)
    "triblob": ("train", None, None, lambda: multi_sphere(
        n_seg=48, n_rows=49, lobe_radii=(0.68, 0.42, 0.58), spacings=(0.85, 1.1), neck=0.17,
        window_skew=0.35)),
    "capsule": ("train_neg", (), (), capsule),
    "icosphere": ("train_neg", ("jitter",), (3,), lambda: (icosphere(3), None)),
    "ellipsoid": ("train_neg", (), (), lambda: (_ellipsoid(), None)),
    "sphere_small": ("train_neg", (), (), lambda: (icosphere(3, radius=0.9), None)),
    "disk": ("train_neg", (), (), lambda: (flat_annulus(r_inner=0.25, r_outer=1.9), None)),
    "flat_annulus": ("val_neg", ("jitter",), (3,), lambda: (flat_annulus(), None)),
    "annulus_wide": ("val_neg", (), (), lambda: (
        flat_annulus(n_r=10, n_theta=52, r_inner=0.9, r_outer=2.0), None)),
    # sized so the surface area matches the rest of the corpus; spectral
    # descriptors are not scale invariant and the filter bank is shared
    "multisphere": ("eval", None, None, lambda: multi_sphere(
        n_seg=48, n_rows=49, lobe_radii=(0.65, 0.45, 0.65), spacings=(0.9, 1.17), neck=0.18)),
    "torus": ("eval_neg", ("jitter",), (2, 4), lambda: (torus(), torus_symmetry())),
    "dumbbell": ("train", None, None, lambda: multi_sphere(
        n_seg=52, n_rows=49, lobe_radii=(0.72, 0.62), spacings=(1.45,), neck=0.19,
        window_skew=0.6)),
}


_INDEX_MAP_NAMES = {"corr": "correspondence", "sym": "symmetry"}


def save_index_map(values, path, tag: str) -> None:
    """Text index map: a ``<tag> N`` header line, then N vertex indices one
    per line, -1 for no image. ``corr`` maps a deformed shape onto its null
    shape, ``sym`` maps a shape onto its intrinsically symmetric self."""
    values = np.asarray(values, dtype=np.int64)
    write_table(path, [f"{tag} {len(values)}"], ([v] for v in values.tolist()))


def load_index_map(path, tag: str, n_source: int, n_target: int) -> np.ndarray:
    """The index map file of a shape with `n_source` vertices onto one with
    `n_target` vertices, as an int64 array: one entry per source vertex,
    each -1 or a target vertex."""
    name = _INDEX_MAP_NAMES[tag]
    tokens = read_text(path, name).split()
    if len(tokens) < 2 or tokens[0] != tag:
        raise DataError(f"{path}: not a {name} file")
    try:
        count, values = int(tokens[1]), np.asarray(tokens[2:], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {name} file holds a non-integer token") from exc
    if len(values) != count:
        raise DataError(f"{path}: truncated {name} file")
    if len(values) != n_source:
        raise DataError(f"{path}: {len(values)} entries for a shape with {n_source} vertices")
    bad = (values < -1) | (values >= n_target)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DataError(f"{path}: entry {i} references vertex {int(values[i])} outside "
                        f"[-1, {n_target})")
    return values


def _deform(shape, mesh: TriangleMesh, sym: Optional[np.ndarray], kind: str, strength: int,
            seed_seq: np.random.SeedSequence, diameter: float):
    """Returns (mesh, correspondence to null, symmetry or None); bending and
    decimation read the RevolutionShape `shape` that `mesh` was built from."""
    identity = np.arange(mesh.n_vertices, dtype=np.int64)
    if kind == "rigid":
        return rigid_motion(mesh, strength), identity, sym
    if kind == "bend":
        return bend(mesh, shape.joints, strength), identity, sym
    if kind == "jitter":
        rng = np.random.default_rng(seed_seq)
        sigma = strength * JITTER_DIAMETER_FRACTION * diameter
        return jitter(mesh, sigma, rng), identity, sym
    if kind == "holes":
        rng = np.random.default_rng(seed_seq)
        radius = (HOLE_RADIUS_BASE_FRACTION + HOLE_RADIUS_STEP_FRACTION * strength) * diameter
        holed, kept = punch_holes(mesh, n_holes=strength, radius=radius, rng=rng)
        if sym is not None:
            # restricted to the kept vertices, -1 where the mirror was removed
            remap = -np.ones(mesh.n_vertices, dtype=np.int64)
            remap[kept] = np.arange(len(kept))
            sym = remap[sym[kept]]
        return holed, kept, sym
    coarse, corr = shape.decimated()  # "decimate", the last of DEFORMATIONS
    return coarse.mesh(), corr, None


def generate_corpus(spec: SyntheticCorpusSpec, out_dir) -> list[ManifestEntry]:
    """Write the corpus meshes, correspondences, symmetry maps and manifest.

    Fully deterministic for a given spec (seeded per shape/deformation), so a
    second run reproduces every file byte for byte. The spec is checked
    before anything is written; a bad field is named by its synth option.
    """
    unknown = [name for name in spec.base_shapes if name not in _BASES]
    if unknown:
        raise DataError(f"unknown base shape {unknown[0]!r}")
    if not set(spec.deformations) <= set(DEFORMATIONS):
        raise DataError(f"deformations={','.join(spec.deformations)}: each must be one of "
                        f"{', '.join(DEFORMATIONS)}")
    if spec.strengths < 1:
        raise DataError(f"strengths={spec.strengths} must be at least 1")
    if spec.rng_seed < 0:
        raise DataError(f"seed={spec.rng_seed} must be non-negative")
    out = make_dir(out_dir)
    entries: list[ManifestEntry] = []
    for base_idx, base_name in enumerate(spec.base_shapes):
        split, deforms, strengths, build = _BASES[base_name]
        shape = build()
        if isinstance(shape, RevolutionShape):
            base, base_sym = shape.mesh(), shape.symmetry()
        else:
            base, base_sym = shape
        save_off(base, out / f"{base_name}.off")
        sym_path = ""
        if base_sym is not None:
            sym_path = f"{base_name}.sym"
            save_index_map(base_sym, out / sym_path, "sym")
        entries.append(
            ManifestEntry(
                shape_id=base_name,
                path=f"{base_name}.off",
                class_label=base_name,
                split=split,
                sym_path=sym_path,
            )
        )
        deforms = spec.deformations if deforms is None else deforms
        strengths = range(1, spec.strengths + 1) if strengths is None else strengths
        if not deforms:
            continue
        diameter = intrinsic_diameter(base, DIAMETER_SAMPLES)
        for di, kind in enumerate(deforms):
            for strength in strengths:
                seed_seq = np.random.SeedSequence(
                    entropy=spec.rng_seed,
                    spawn_key=(base_idx, di, strength),
                )
                dmesh, corr, sym = _deform(shape, base, base_sym, kind, strength, seed_seq,
                                           diameter)
                shape_id = f"{base_name}_{kind}_{strength}"
                save_off(dmesh, out / f"{shape_id}.off")
                save_index_map(corr, out / f"{shape_id}.corr", "corr")
                dsym_path = ""
                if sym is not None:
                    dsym_path = f"{shape_id}.sym"
                    save_index_map(sym, out / dsym_path, "sym")
                if split == "train":
                    # odd strengths train, even strengths are held out for
                    # the alpha sweep; shape ids never cross the split
                    dsplit = "train" if strength % 2 == 1 else "val"
                else:
                    dsplit = split
                entries.append(
                    ManifestEntry(
                        shape_id=shape_id,
                        path=f"{shape_id}.off",
                        class_label=base_name,
                        split=dsplit,
                        null_id=base_name,
                        corr_path=f"{shape_id}.corr",
                        sym_path=dsym_path,
                    )
                )
    write_manifest(entries, out / "manifest.csv")
    return entries
