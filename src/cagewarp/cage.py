"""Triangle cage meshes: construction, validation, interpolation, OBJ I/O.

A cage is a closed, consistently wound triangle mesh that encloses the
geometry it will deform. Cage topology is the identity of a cage family:
a deformed cage is the same mesh with moved vertices, and every consumer
of a (source, deformed) pair checks that vertex counts and triangle lists
agree before using them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonManifoldCageError, TopologyMismatchError

# (point, triangle) pairs per chunk of mvc.mvc_weights and of
# surface_distance: the one bound on their scratch memory, about 3.3 and
# 3.1 MiB at any point count. glibc hands a freed heap top back to the OS
# once it outgrows a threshold that follows the largest array freed, and
# the next chunk faults it in again. At 2**16 every MVC chunk did: one call
# on 2900 points x 432 triangles took 72k minor page faults and 320-390 ms
# in a fresh process (2 cores). At 2**14 it took 1.1-1.7k faults and
# 200-245 ms in half of the fresh processes and churned as before in the
# rest; warm calls cost the same at both sizes, and weights are
# bit-identical.
CHUNK_PAIRS = 2**14


@dataclass
class CageMesh:
    """A closed 2-manifold triangle mesh with outward-facing winding.

    Parameters
    ----------
    vertices : (V, 3) float array
        Vertex positions.
    triangles : (T, 3) int array
        Vertex indices per triangle, counterclockwise seen from outside.

    Construction validates the mesh: indices in range, no degenerate
    triangles, every undirected edge shared by exactly two triangles in
    opposite directions (closed + consistently wound), positive enclosed
    volume (outward orientation), and no near-zero triangle areas.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    _trusted: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError(f"triangles must be (T, 3), got {self.triangles.shape}")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("cage vertices contain non-finite values")
        if not self._trusted:
            self._validate()

    def _validate(self):
        tri = self.triangles
        nv = len(self.vertices)
        if tri.size == 0:
            raise NonManifoldCageError("cage has no triangles")
        if tri.min() < 0 or tri.max() >= nv:
            raise NonManifoldCageError(
                f"triangle index out of range [0, {nv})")
        if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
                  | (tri[:, 0] == tri[:, 2])):
            raise NonManifoldCageError("degenerate triangle repeats a vertex")

        # Closed + consistent winding: every directed edge occurs exactly
        # once, and its reverse occurs exactly once as well.
        edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
        keys = edges[:, 0] * nv + edges[:, 1]
        if len(np.unique(keys)) != len(keys):
            raise NonManifoldCageError(
                "directed edge shared by two triangles (inconsistent winding "
                "or non-manifold fan)")
        rev = edges[:, 1] * nv + edges[:, 0]
        if not np.array_equal(np.sort(keys), np.sort(rev)):
            raise NonManifoldCageError("boundary edge found; cage is not closed")

        diag = self.bbox_diagonal()
        areas = triangle_areas(self.vertices, tri)
        if np.any(areas <= 1e-14 * diag * diag):
            worst = int(np.argmin(areas))
            raise NonManifoldCageError(
                f"triangle {worst} has near-zero area {areas[worst]:.3e}")
        if self.signed_volume() <= 0.0:
            raise NonManifoldCageError(
                "enclosed volume is not positive; winding is inward")

    def __len__(self) -> int:
        return len(self.vertices)

    def bbox(self):
        return bbox_of(self.vertices)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))

    def signed_volume(self) -> float:
        """Enclosed volume via the divergence theorem (positive = outward)."""
        v = self.vertices
        a, b, c = (v[self.triangles[:, i]] for i in range(3))
        return float(np.einsum("ij,ij->", a, np.cross(b, c)) / 6.0)

    def face_normals(self) -> np.ndarray:
        """Unit outward normal of each triangle, (T, 3)."""
        v = self.vertices
        n = np.cross(v[self.triangles[:, 1]] - v[self.triangles[:, 0]],
                     v[self.triangles[:, 2]] - v[self.triangles[:, 0]])
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def with_vertices(self, vertices: np.ndarray,
                      validate: bool = True) -> "CageMesh":
        """Same topology, new vertex positions."""
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.shape != self.vertices.shape:
            raise TopologyMismatchError(
                f"expected {self.vertices.shape[0]} vertices, "
                f"got {vertices.shape[0]}")
        return CageMesh(vertices, self.triangles.copy(), _trusted=not validate)

    def check_same_topology(self, other: "CageMesh") -> None:
        """Raise TopologyMismatchError unless other has this vertex count
        and these triangles."""
        if not (len(self.vertices) == len(other.vertices)
                and np.array_equal(self.triangles, other.triangles)):
            raise TopologyMismatchError(
                "cages differ in vertex count or triangles")


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    cross = np.cross(vertices[triangles[:, 1]] - a, vertices[triangles[:, 2]] - a)
    return 0.5 * np.linalg.norm(cross, axis=1)


def bbox_of(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) corners of a raw (N, 3) array."""
    pts = np.asarray(points, dtype=np.float64)
    return pts.min(axis=0), pts.max(axis=0)


def inflate_degenerate_axes(lo: np.ndarray, hi: np.ndarray,
                            fraction: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Grow near-zero box extents to `fraction` of the box diagonal.

    A fully degenerate box (a single point) gets unit extent on every axis
    so downstream padding still has something to work with.
    """
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    extent = hi - lo
    diag = float(np.linalg.norm(extent))
    if diag == 0.0:
        half = 0.5
        return lo - half, hi + half
    floor = fraction * diag
    thin = extent < floor
    if np.any(thin):
        pad = 0.5 * (floor - extent[thin])
        lo[thin] -= pad
        hi[thin] += pad
    return lo, hi


def build_template_cage(points: np.ndarray, resolution: int = 2,
                        padding: float = 0.1) -> CageMesh:
    """Build a gridded-box cage around a point set.

    The cage is the surface of the padded axis-aligned bounding box,
    subdivided into a resolution x resolution lattice per face. It has
    (r+1)^3 - (r-1)^3 vertices and 12 r^2 triangles, all wound outward.

    Parameters
    ----------
    points : (N, 3) array
        Geometry to enclose. Its bounding box, grown by `padding` times
        the extent per axis, becomes the cage box. Axes with near-zero
        extent are inflated so the box never collapses.
    resolution : int
        Lattice subdivisions per box edge (>= 1).
    padding : float
        Fractional margin per axis (>= 0).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError("points must be a non-empty (N, 3) array")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")

    lo, hi = bbox_of(points)
    lo, hi = inflate_degenerate_axes(lo, hi)
    extent = hi - lo
    lo = lo - padding * extent
    hi = hi + padding * extent
    return box_cage(lo, hi, resolution)


def box_cage(lo: np.ndarray, hi: np.ndarray, resolution: int = 2) -> CageMesh:
    """Gridded surface of the box [lo, hi] as a CageMesh."""
    r = int(resolution)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent on every axis")

    # Surface nodes of the (r+1)^3 lattice, in lexicographic (i, j, k)
    # order so construction is deterministic.
    side = r + 1
    ijk = np.stack(np.meshgrid(np.arange(side), np.arange(side),
                               np.arange(side), indexing="ij"),
                   axis=-1).reshape(-1, 3)
    on_surface = np.any((ijk == 0) | (ijk == r), axis=1)
    surf_ijk = ijk[on_surface]
    index_of = -np.ones((side, side, side), dtype=np.int64)
    index_of[surf_ijk[:, 0], surf_ijk[:, 1], surf_ijk[:, 2]] = \
        np.arange(len(surf_ijk))
    vertices = lo + surf_ijk / r * (hi - lo)

    triangles = []
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3
        for level in (0, r):
            for u in range(r):
                for v in range(r):
                    corner = {}
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        node = [0, 0, 0]
                        node[axis] = level
                        node[b] = u + du
                        node[c] = v + dv
                        corner[(du, dv)] = index_of[tuple(node)]
                    q00, q10 = corner[(0, 0)], corner[(1, 0)]
                    q11, q01 = corner[(1, 1)], corner[(0, 1)]
                    if level == r:   # outward normal +e_axis = e_b x e_c
                        triangles.append((q00, q10, q11))
                        triangles.append((q00, q11, q01))
                    else:            # outward normal -e_axis
                        triangles.append((q00, q11, q10))
                        triangles.append((q00, q01, q11))
    return CageMesh(vertices, np.asarray(triangles, dtype=np.int64))


def interpolate_cage(source: CageMesh, deformed: CageMesh,
                     lam: float) -> CageMesh:
    """Blend between a source cage and its deformed counterpart.

    Vertices are lam * deformed + (1 - lam) * source, so lam = 0 returns
    the source positions bit-for-bit and lam = 1 the deformed ones. Values
    outside [0, 1] extrapolate and are allowed with a warning.
    """
    source.check_same_topology(deformed)
    lam = float(lam)
    if lam < 0.0 or lam > 1.0:
        warnings.warn(f"interpolation factor {lam} is outside [0, 1]; "
                      "extrapolating", stacklevel=2)
    if lam == 0.0:
        vertices = source.vertices.copy()
    elif lam == 1.0:
        vertices = deformed.vertices.copy()
    else:
        vertices = lam * deformed.vertices + (1.0 - lam) * source.vertices
    # Interpolants of a valid pair may transiently self-intersect; keep
    # topology checks but skip geometric revalidation.
    return CageMesh(vertices, source.triangles.copy(), _trusted=True)


def read_obj_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a Wavefront OBJ file into (vertices, triangles) arrays.

    Faces with more than three sides are fan-triangulated. Texture and
    normal indices in face records are ignored. No manifold checks.
    """
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] == "v":
                if len(tokens) < 4:
                    raise ValueError(f"{path}:{lineno}: malformed vertex line")
                vertices.append([float(t) for t in tokens[1:4]])
            elif tokens[0] == "f":
                idx = [int(t.split("/")[0]) for t in tokens[1:]]
                if len(idx) < 3:
                    raise ValueError(f"{path}:{lineno}: face with < 3 vertices")
                idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
    if not vertices:
        raise ValueError(f"{path}: no vertices found")
    return (np.asarray(vertices, dtype=np.float64),
            np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def read_cage_obj(path) -> CageMesh:
    """Read a cage from a Wavefront OBJ file, validating it as a cage."""
    vertices, faces = read_obj_arrays(path)
    return CageMesh(vertices, faces)


def read_deformed_cage(path, source: CageMesh) -> CageMesh:
    """Read a deformed counterpart of source from a Wavefront OBJ file.

    Only what MVC needs is checked: finite vertices, and source's vertex
    count and triangles. The geometry is not validated: an edit may
    invert the cage, and a fitted cage is built unvalidated too.
    """
    vertices, faces = read_obj_arrays(path)
    deformed = CageMesh(vertices, faces, _trusted=True)
    source.check_same_topology(deformed)
    return deformed


def write_cage_obj(cage: CageMesh, path) -> None:
    """Write a cage as ASCII OBJ. Output is deterministic byte-for-byte."""
    lines = []
    for v in cage.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in cage.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("\n".join(lines) + "\n")


def surface_distance(points: np.ndarray, cage: CageMesh) -> np.ndarray:
    """Distance from each point to the cage surface (always >= 0).

    Chunks of CHUNK_PAIRS // T points are measured against all T
    triangles at once. A point's distance to a triangle is its distance
    to the supporting plane when its projection falls inside the
    triangle, and to the nearest edge otherwise. Per-pair values are
    (T, rows) arrays; the offsets the dot products take are (T, rows, 3),
    row-major per triangle, so a stacked matmul runs BLAS's dot kernel
    on each triangle exactly as a (rows, 3) @ (3,) product would, and the
    result does not depend on the chunking.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = cage.vertices
    a, b, c = (v[cage.triangles[:, k]] for k in range(3))    # (T, 3) each
    e0, e1, bc = b - a, c - a, c - b
    n = np.cross(e0, e1)
    # Barycentric coordinates come from the 2x2 Gram system of e0, e1.
    g00, g01, g11, n_sq, bc_sq = (
        _matvec(p[:, None], q)
        for p, q in ((e0, e0), (e0, e1), (e1, e1), (n, n), (bc, bc)))
    det = g00 * g11 - g01 * g01
    # BLAS takes a one-row product down another path, which rounds
    # differently, so a last row on its own joins the chunk before it.
    starts = list(range(0, len(points) - 1, max(2, CHUNK_PAIRS // len(n))))
    dist2 = np.empty(len(points))
    for lo, hi in zip(starts or [0], starts[1:] + [len(points)]):
        x = points[lo:hi]
        d = _offsets(x, a)
        h = _matvec(d, n)                # signed plane offset times |n|
        hn = h / n_sq
        proj = np.empty_like(d)
        for k in range(3):
            np.subtract(d[..., k], hn * n[:, k, None], out=proj[..., k])
        p0, p1 = _matvec(proj, e0), _matvec(proj, e1)
        s = (g11 * p0 - g01 * p1) / det
        t = (g00 * p1 - g01 * p0) / det
        inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
        edge = np.minimum(
            _segment_dist2(x, a, e0, g00, d),
            np.minimum(_segment_dist2(x, b, bc, bc_sq, _offsets(x, b)),
                       _segment_dist2(x, a, e1, g11, d)))
        dist2[lo:hi] = np.where(inside, h * h / n_sq, edge).min(axis=0)
    return np.sqrt(dist2)


def _offsets(x, start):
    """x - start for points x (rows, 3) and T starts, (T, rows, 3)."""
    out = np.empty((len(start), len(x), 3))
    for k in range(3):
        np.subtract(x[:, k], start[:, k, None], out=out[..., k])
    return out


def _matvec(m, vec):
    """m[t] @ vec[t] for (T, rows, 3) m and (T, 3) vec, (T, rows)."""
    return (m @ vec[:, :, None])[..., 0]


def _segment_dist2(x, start, ab, ab_sq, offsets):
    """Squared distances from points x to T segments, (T, rows).

    offsets is x - start; the closest point start + t ab is formed
    before the difference, and the squares are summed in np.einsum's
    order for three terms.
    """
    t = np.clip(_matvec(offsets, ab) / ab_sq, 0.0, 1.0)
    diff = [x[:, k] - (start[:, k, None] + t * ab[:, k, None])
            for k in range(3)]
    return diff[0] * diff[0] + diff[2] * diff[2] + diff[1] * diff[1]


def winding_numbers(points: np.ndarray, cage: CageMesh) -> np.ndarray:
    """Generalized winding number of each point with respect to the cage.

    Uses the signed solid angle of each triangle (van Oosterom-Strackee).
    For a closed outward-wound cage the result is ~1 inside and ~0 outside.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    total = np.zeros(len(points))
    v = cage.vertices
    for t0, t1, t2 in cage.triangles:
        a = v[t0] - points
        b = v[t1] - points
        c = v[t2] - points
        la = np.linalg.norm(a, axis=1)
        lb = np.linalg.norm(b, axis=1)
        lc = np.linalg.norm(c, axis=1)
        numer = np.einsum("ij,ij->i", a, np.cross(b, c))
        denom = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
                 + np.einsum("ij,ij->i", b, c) * la
                 + np.einsum("ij,ij->i", c, a) * lb)
        total += 2.0 * np.arctan2(numer, denom)
    return total / (4.0 * np.pi)
