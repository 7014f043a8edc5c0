"""Point inputs, triangle meshes and cages: construction, validation,
edge tables, interpolation, OBJ I/O.

A cage (CageMesh) is a TriangleMesh checked to be closed and consistently
wound; it encloses the geometry it will deform. Cage topology is the
identity of a cage family: a deformed cage is a TriangleMesh with the
same triangles and moved vertices, and every consumer of a (source,
deformed) pair checks that vertex counts and triangle lists agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import NonManifoldCageError, TopologyMismatchError

# (point, triangle) pairs per chunk of mvc.mvc_weights, surface_distance
# and winding_numbers, (site, neighbour) pairs per block of the site
# gradient fit, and 9 per row of a block of covariance re-factoring: the
# one bound on their scratch memory (2.7, 2.2, 2.2, 5 and 1 MiB at any
# size beyond the output and the fit's neighbour table, on box cages of
# resolution 2-6), and on the MVC rows that mvc_weights maps through a
# deformed cage one chunk at a time. glibc returns a freed heap top past
# a threshold that follows the largest array freed to the OS, and the
# next chunk faults it in again. At 2**16 every MVC chunk did: one call on
# 2900 points x 432 triangles took 72k minor faults and 320-390 ms in a
# fresh process (2 cores). At 2**14 it took 1.1-1.7k faults and 200-245
# ms in half of the fresh processes and churned as before in the rest,
# until MVC kept a chunk's arrays in one buffer per call; warm calls cost
# the same at both sizes, and weights are bit-identical.
CHUNK_PAIRS = 2**14


@dataclass
class TriangleMesh:
    """A triangle mesh: (V, 3) float64 vertices, (T, 3) int64 triangles.

    Construction checks the shapes, that the vertices are finite and that
    the indices are in range. It may be open, non-manifold or inverted: a
    target, or a deformed, fitted or interpolated cage.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    # The mesh's name in messages, and what an index out of range raises.
    kind: ClassVar[str] = "mesh"
    index_error: ClassVar[type[ValueError]] = ValueError

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError(f"triangles must be (T, 3), got {self.triangles.shape}")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError(f"{self.kind} vertices contain non-finite values")
        nv = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= nv):
            raise self.index_error(f"triangle index out of range [0, {nv})")

    @cached_property
    def edges(self) -> EdgeTable:
        """The edge table of the triangles, built on first use."""
        return edge_table(self.triangles)

    def bbox(self):
        return bbox_of(self.vertices)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))

    def with_vertices(self, vertices: np.ndarray):
        """A mesh of this type with these triangles and new vertex
        positions: a CageMesh is checked as a cage again."""
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.shape != self.vertices.shape:
            raise TopologyMismatchError(
                f"expected {self.vertices.shape[0]} vertices, "
                f"got {vertices.shape[0]}")
        return type(self)(vertices, self.triangles.copy())

    def check_same_topology(self, other: "TriangleMesh") -> None:
        """Raise TopologyMismatchError unless other has this vertex count
        and these triangles."""
        if not (len(self.vertices) == len(other.vertices)
                and np.array_equal(self.triangles, other.triangles)):
            raise TopologyMismatchError(
                "cages differ in vertex count or triangles")


class CageMesh(TriangleMesh):
    """A closed 2-manifold triangle mesh, wound counterclockwise seen
    from outside.

    Construction validates the mesh beyond TriangleMesh's checks: no
    degenerate triangles, no unused vertex, every undirected edge shared
    by exactly two triangles in opposite directions (closed + consistently
    wound), no near-zero triangle areas, and positive enclosed volume
    (outward).
    """

    kind = "cage"
    index_error = NonManifoldCageError

    def __post_init__(self):
        super().__post_init__()
        tri = self.triangles
        if tri.size == 0:
            raise NonManifoldCageError("cage has no triangles")
        if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
                  | (tri[:, 0] == tri[:, 2])):
            raise NonManifoldCageError("degenerate triangle repeats a vertex")

        # Closed + consistent winding: every undirected edge is run once
        # from its lower vertex index and once from its higher.
        table = self.edges
        backwards = table.backwards[:, :, 0]
        runs = [np.bincount(table.opposite[way], minlength=len(table.pairs))
                for way in (~backwards, backwards)]
        if np.max(runs) > 1:
            raise NonManifoldCageError(
                "directed edge shared by two triangles (inconsistent winding "
                "or non-manifold fan)")
        if not np.array_equal(*runs):
            raise NonManifoldCageError(
                "boundary edge found; cage is not closed")
        # A stray vertex would still widen the diagonal tolerances scale by.
        used = np.bincount(tri.ravel(), minlength=len(self.vertices)) > 0
        if not used.all():
            raise NonManifoldCageError(
                f"vertex {int(np.argmin(used))} is used by no triangle")

        diag = self.bbox_diagonal()
        areas = triangle_areas(self.vertices, tri)
        if np.any(areas <= 1e-14 * diag * diag):
            worst = int(np.argmin(areas))
            raise NonManifoldCageError(
                f"triangle {worst} has near-zero area {areas[worst]:.3e}")
        if self.signed_volume() <= 0.0:
            raise NonManifoldCageError(
                "enclosed volume is not positive; winding is inward")

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


class EdgeTable(NamedTuple):
    """The edges of triangles, each once, and how the corners see them."""

    tri: np.ndarray          # (T, 3) triangles
    pairs: np.ndarray        # (E, 2) unique undirected edges, sorted pairs
    opposite: np.ndarray     # (3, T) the edge opposite corner k
    backwards: np.ndarray    # (3, T, 1) the triangle runs it from pairs[:, 1]


def edge_table(tri) -> EdgeTable:
    """The EdgeTable of (T, 3) triangles, T >= 1."""
    a, b = tri[:, [1, 2, 0]].T, tri[:, [2, 0, 1]].T     # (3, T) each
    # The key lo * n + hi sorts as the pair (lo, hi) does, and one sort of
    # key * 3T + corner gives the unique keys and each corner's edge.
    # np.unique's return_inverse would argsort: a kernel no other step
    # runs, whose code pages alone put 0.2 MB on a small run's peak RSS.
    n = int(tri.max()) + 1
    keys = (np.minimum(a, b) * n + np.maximum(a, b)).ravel()
    sorted_keys, corner = np.divmod(
        np.sort(keys * keys.size + np.arange(keys.size)), keys.size)
    first = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    opposite = np.empty_like(keys)
    opposite[corner] = np.cumsum(first) - 1
    unique = sorted_keys[first]
    return EdgeTable(tri, np.stack([unique // n, unique % n], axis=1),
                     opposite.reshape(3, -1), (a > b)[:, :, None])


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    cross = np.cross(vertices[triangles[:, 1]] - a, vertices[triangles[:, 2]] - a)
    return 0.5 * np.linalg.norm(cross, axis=1)


def as_points(points, what: str) -> np.ndarray:
    """points as a C-contiguous float64 (N, 3) array, N >= 1: the one rule
    for a point input. Anything else, such as a lone (3,) vector or a
    GaussianCloud (pass its centers), raises ValueError naming what."""
    shape = np.shape(points)
    if len(shape) != 2 or shape[1] != 3 or shape[0] == 0:
        raise ValueError(f"{what} must be a non-empty (N, 3) point array, "
                         f"got {type(points).__name__} of shape {shape}")
    return np.ascontiguousarray(points, dtype=np.float64)


def bbox_of(points) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) corners of an (N, 3) point array."""
    pts = as_points(points, "points")
    return pts.min(axis=0), pts.max(axis=0)


def inflate_degenerate_axes(lo: np.ndarray, hi: np.ndarray):
    """Grow box extents below 1e-3 of the box diagonal to that length.

    A fully degenerate box (a single point) gets unit extent on every axis
    so downstream padding still has something to work with. Each axis
    grows by pad = max(floor - extent, 0) / 2 at both ends, with floor
    1e-3 of the diagonal (1 for a point); an axis with no pad keeps its
    bits, -0.0 included.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    extent = hi - lo
    diag = float(np.linalg.norm(extent))
    pad = 0.5 * np.maximum((1e-3 * diag if diag > 0.0 else 1.0) - extent, 0.0)
    grow = pad > 0.0
    return np.where(grow, lo - pad, lo), np.where(grow, hi + pad, hi)


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

    # Surface nodes of the (r+1)^3 lattice, numbered in lexicographic
    # (i, j, k) order so construction is deterministic.
    ijk = np.indices((r + 1,) * 3)
    on_surface = np.any((ijk == 0) | (ijk == r), axis=0)
    index_of = np.full(on_surface.shape, -1)
    index_of[on_surface] = np.arange(np.count_nonzero(on_surface))
    vertices = lo + ijk[:, on_surface].T / r * (hi - lo)

    # The faces at levels 0 and r of each axis a, as index sheets
    # (a, level, u, v) with u along axis a+1 and v along a+2. A quad's
    # corners are neighbouring sheet entries and its two triangles wind
    # about e_{a+1} x e_{a+2} = +e_a, outward at level r; at level 0 they
    # swap their last two corners.
    sheets = np.stack([np.transpose(index_of, np.roll([0, 1, 2], -a))[[0, r]]
                       for a in range(3)])
    q00, q10 = sheets[..., :-1, :-1], sheets[..., 1:, :-1]
    q11, q01 = sheets[..., 1:, 1:], sheets[..., :-1, 1:]
    tri = np.stack([q00, q10, q11, q00, q11, q01], -1).reshape(3, 2, -1, 3)
    tri[:, 0] = tri[:, 0][..., [0, 2, 1]]
    return CageMesh(vertices, tri.reshape(-1, 3))


def interpolate_cage(source: TriangleMesh, deformed: TriangleMesh,
                     lam: float) -> TriangleMesh:
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
    # Interpolants of a valid pair may transiently self-intersect, so the
    # blend is a plain mesh, not a cage.
    return TriangleMesh(vertices, source.triangles.copy())


def read_obj_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a Wavefront OBJ file into (vertices, triangles) arrays.

    Faces with more than three sides are fan-triangulated. Texture and
    normal indices in face records are ignored. No manifold checks. A
    malformed record, such as a non-numeric token or a face index 0 (OBJ
    counts from 1, and from -1 backwards), raises ValueError naming
    path:lineno.
    """
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            tokens = line.split()
            try:
                if tokens[:1] == ["v"]:
                    if len(tokens) < 4:
                        raise ValueError("malformed vertex line")
                    vertices.append([float(t) for t in tokens[1:4]])
                elif tokens[:1] == ["f"]:
                    idx = [int(t.split("/")[0]) for t in tokens[1:]]
                    if len(idx) < 3:
                        raise ValueError("face with < 3 vertices")
                    if 0 in idx or min(idx) < -len(vertices):
                        raise ValueError("face index 0 or before vertex 1")
                    idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
                    for k in range(1, len(idx) - 1):
                        faces.append((idx[0], idx[k], idx[k + 1]))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    if not vertices:
        raise ValueError(f"{path}: no vertices found")
    return (np.asarray(vertices, dtype=np.float64),
            np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def read_cage_obj(path) -> CageMesh:
    """Read a cage from a Wavefront OBJ file, validating it as a cage."""
    return CageMesh(*read_obj_arrays(path))


def read_deformed_cage(path, source: TriangleMesh) -> TriangleMesh:
    """Read a deformed counterpart of source from a Wavefront OBJ file.

    Only what MVC needs is checked: finite vertices, and source's vertex
    count and triangles. The result is a TriangleMesh, not a cage: an
    edit may invert the cage, as a fitted cage may.
    """
    deformed = TriangleMesh(*read_obj_arrays(path))
    source.check_same_topology(deformed)
    return deformed


def write_cage_obj(cage: TriangleMesh, path) -> None:
    """Write a cage as ASCII OBJ. Output is deterministic byte-for-byte."""
    lines = []
    for v in cage.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in cage.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("\n".join(lines) + "\n")


def surface_distance(points: np.ndarray, cage: TriangleMesh) -> np.ndarray:
    """Distance from each point to the cage surface (always >= 0).

    Chunks of CHUNK_PAIRS // T points are measured against all T
    triangles at once, on (T, rows) arrays per vector component; a pair's
    value does not depend on the chunking. A point's distance to a
    triangle is its distance to the supporting plane when its projection
    falls inside the triangle, and to the nearest edge otherwise. The
    normal is orthogonal to the edges e0, e1 from corner a, so the
    projection's barycentric right-hand sides are (x - a) . e0 and e1.
    """
    points = as_points(points, "points")
    a, b, c = (cage.vertices.T[:, k, None]
               for k in cage.triangles.T)                     # (3, T, 1) each
    e0, e1, bc = b - a, c - a, c - b
    n = cross(e0, e1)
    # Barycentric coordinates come from the 2x2 Gram system of e0, e1.
    g00, g01, g11 = dot(e0, e0), dot(e0, e1), dot(e1, e1)
    n_sq, bc_sq = dot(n, n), dot(bc, bc)
    det = g00 * g11 - g01 * g01
    rows = max(1, CHUNK_PAIRS // len(cage.triangles))
    dist2 = np.empty(len(points))
    for lo in range(0, len(points), rows):
        x = np.ascontiguousarray(points[lo:lo + rows].T)         # (3, rows)
        d = [p - q for p, q in zip(x, a)]
        h = dot(d, n)                    # signed plane offset times |n|
        p0, p1 = dot(d, e0), dot(d, e1)
        s = (g11 * p0 - g01 * p1) / det
        t = (g00 * p1 - g01 * p0) / det
        inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
        edge = np.minimum(_segment_dist2(d, e0, p0 / g00),
                          _segment_dist2(d, e1, p1 / g11))
        d = [p - q for p, q in zip(x, b)]
        edge = np.minimum(edge, _segment_dist2(d, bc, dot(d, bc) / bc_sq))
        dist2[lo:lo + rows] = np.where(inside, h * h / n_sq, edge).min(axis=0)
    return np.sqrt(dist2)


def _segment_dist2(d, e, t):
    """|d - clip(t, 0, 1) e|^2 for offsets d from the starts of segments e."""
    t = np.clip(t, 0.0, 1.0)
    diff = [p - t * q for p, q in zip(d, e)]
    return dot(diff, diff)


def dot(p, q):
    """Dot products of vectors held as three component arrays, summed in
    component order."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def cross(p, q):
    """Cross products of vectors held as three component arrays, as a
    list of three component arrays."""
    return [p[(j + 1) % 3] * q[(j + 2) % 3] - p[(j + 2) % 3] * q[(j + 1) % 3]
            for j in range(3)]


def det3(m):
    """Determinants of 3x3 matrices whose three rows (or columns) are held
    as component arrays: m[0] . (m[1] x m[2]). Closed form, so no LAPACK
    code is paged in; np.linalg.det's LU would add it to peak RSS."""
    return dot(m[0], cross(m[1], m[2]))


def winding_numbers(points: np.ndarray, cage: TriangleMesh) -> np.ndarray:
    """Generalized winding number of each point with respect to the cage.

    Uses the signed solid angle of each triangle (van Oosterom-Strackee).
    For a closed outward-wound cage the result is ~1 inside and ~0 outside.
    Chunks of CHUNK_PAIRS // T points are measured against all T triangles
    at once, and each point's solid angles are summed over the triangles
    in cage order: the result rounds exactly as a loop over the triangles
    would, at any chunking.
    """
    points = as_points(points, "points")
    rows = max(1, CHUNK_PAIRS // len(cage.triangles))
    total = np.empty(len(points))
    for lo in range(0, len(points), rows):
        # Accumulation runs down the triangle axis in order even for one
        # row, where a sum would be pairwise.
        total[lo:lo + rows] = np.add.accumulate(
            _solid_angles(points[lo:lo + rows], cage), axis=0)[-1]
    return total / (4.0 * np.pi)


def _solid_angles(x, cage):
    """Signed solid angles of the T triangles seen from points x, (T, rows),
    from (T, rows) arrays per vector component."""
    u = cage.vertices.T[:, :, None] - x.T[:, None, :]      # (3, V, rows)
    length = np.sqrt(dot(u, u))
    a, b, c = ([comp[k] for comp in u] for k in cage.triangles.T)
    la, lb, lc = (length[k] for k in cage.triangles.T)
    del u, length                                       # bound the scratch
    numer = dot(a, cross(b, c))
    denom = la * lb * lc + dot(a, b) * lc + dot(b, c) * la + dot(c, a) * lb
    return 2.0 * np.arctan2(numer, denom)
