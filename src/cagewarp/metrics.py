"""Target geometry, surface sampling, and shape-agreement metrics.

Targets for cage fitting come in three flavors: a triangle mesh (possibly
open, e.g. a scan or an edited surface), a plain point cloud, or another
splat model whose centers stand in for its shape. All reduce to a PointSet
for fitting and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .cage import read_obj_arrays, triangle_areas
from .points import PointSet, inflate_degenerate_axes
from .splats import GaussianCloud, _parse_header, _read_records, read_gs_ply
from .transport import transform_covariance

TARGET_KINDS = ("auto", "mesh", "pointcloud", "gsplat")


@dataclass
class TriangleMesh:
    """A bare triangle mesh used as a deformation target.

    Unlike a cage it may be open, non-manifold, or inconsistently wound;
    only structural sanity is enforced.
    """

    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (T, 3)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError(f"triangles must be (T, 3), got {self.triangles.shape}")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("mesh vertices contain non-finite values")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")


def sample_mesh_surface(mesh: TriangleMesh, n: int = 30000,
                        seed: int = 0) -> PointSet:
    """Sample n points uniformly by area over a mesh surface.

    Faces are chosen with probability proportional to their area, then a
    point is placed uniformly inside each chosen face. Face normals ride
    along on the samples (zero-area faces are never chosen).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    total = areas.sum()
    if len(areas) == 0 or total <= 0.0:
        raise ValueError("mesh has no positive-area faces to sample")

    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas)
    face = np.searchsorted(cum, rng.uniform(0.0, total, size=n),
                           side="right")
    face = np.minimum(face, len(areas) - 1)

    a = mesh.vertices[mesh.triangles[face, 0]]
    b = mesh.vertices[mesh.triangles[face, 1]]
    c = mesh.vertices[mesh.triangles[face, 2]]
    # Uniform barycentric placement via the square-root trick.
    r1 = np.sqrt(rng.uniform(size=(n, 1)))
    r2 = rng.uniform(size=(n, 1))
    points = (1.0 - r1) * a + r1 * (1.0 - r2) * b + r1 * r2 * c

    normals = np.cross(b - a, c - a)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.maximum(norms, 1e-300)
    return PointSet(points=points, normals=normals)


def as_points(obj, what: str = "point set") -> np.ndarray:
    """The (N, 3) points of a GaussianCloud, PointSet, or array-like.

    Raises ValueError naming `what` unless they form a non-empty (N, 3)
    array.
    """
    if isinstance(obj, GaussianCloud):
        pts = obj.centers
    elif isinstance(obj, PointSet):
        pts = obj.points
    else:
        pts = np.asarray(obj, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError(f"{what} must provide a non-empty (N, 3) point "
                         f"array, got shape {pts.shape}")
    return pts


def sample_points(geometry, count: int | None, seed: int,
                  what: str = "point set") -> np.ndarray:
    """Up to count points of a geometry, deterministic for a seed.

    A TriangleMesh is sampled by area (exactly count points; a mesh has
    no "every row", so count None raises ValueError). Anything as_points
    accepts yields the rows at count distinct indices drawn without
    replacement, in increasing order, or every row when count is None or
    covers them all. A count below 1 raises ValueError.
    """
    if count is not None and count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if isinstance(geometry, TriangleMesh):
        if count is None:
            raise ValueError("sampling a mesh needs an explicit count")
        return sample_mesh_surface(geometry, n=count, seed=seed).points
    points = as_points(geometry, what)
    if count is None or count >= len(points):
        return points
    rng = np.random.default_rng(seed)
    return points[np.sort(rng.choice(len(points), size=count, replace=False))]


def chamfer_distance(a, b) -> float:
    """Symmetric chamfer distance between two point sets.

    Sum of the two means of squared nearest-neighbor distances:
    mean_a min_b |a - b|^2 + mean_b min_a |b - a|^2. Units are squared
    length; identical sets score zero.
    """
    pa = as_points(a)
    pb = as_points(b)
    d_ab, _ = cKDTree(pb).query(pa, k=1)
    d_ba, _ = cKDTree(pa).query(pb, k=1)
    return float(np.mean(d_ab ** 2) + np.mean(d_ba ** 2))


def baseline_bbox_scale(cloud: GaussianCloud, target_lo, target_hi,
                        update_covariance: bool = True) -> GaussianCloud:
    """Per-axis affine rescale of a cloud onto a target bounding box.

    The reference edit every cage deformation is compared against: map the
    cloud's center bbox onto [target_lo, target_hi] axis by axis. Uniform
    scaling shifts log-scales directly and leaves rotations untouched;
    anisotropic scaling transports covariances like any other Jacobian.
    An identical source and target box returns a bit-exact copy. The new
    cloud never shares an array with the input.
    """
    target_lo = np.asarray(target_lo, dtype=np.float64)
    target_hi = np.asarray(target_hi, dtype=np.float64)
    if target_lo.shape != (3,) or target_hi.shape != (3,):
        raise ValueError("target box must be two (3,) corners")
    if np.any(target_hi < target_lo):
        raise ValueError("target box has negative extent")

    src_lo, src_hi = cloud.bbox()
    if np.array_equal(src_lo, target_lo) and np.array_equal(src_hi, target_hi):
        return cloud.copy()

    # Degenerate axes get the same virtual extent the template cage uses,
    # so the baseline and the cage route stay interchangeable.
    src_lo_i, src_hi_i = inflate_degenerate_axes(src_lo, src_hi)
    tgt_lo_i, tgt_hi_i = inflate_degenerate_axes(target_lo, target_hi)
    scale = (tgt_hi_i - tgt_lo_i) / (src_hi_i - src_lo_i)
    src_center = 0.5 * (src_lo_i + src_hi_i)
    tgt_center = 0.5 * (tgt_lo_i + tgt_hi_i)
    centers = tgt_center + (cloud.centers - src_center) * scale

    moved = replace(cloud.copy(), centers=centers)
    if not update_covariance or np.all(scale == 1.0):
        return moved
    if scale.max() - scale.min() <= 1e-12 * scale.max():
        # Uniform (to rounding) scaling: covariances scale isotropically,
        # so rotations pass through untouched.
        return replace(moved,
                       log_scales=cloud.log_scales + np.mean(np.log(scale)))
    jac = np.broadcast_to(np.diag(scale), (len(cloud), 3, 3))
    rotations, log_scales = transform_covariance(
        jac, cloud.rotations, cloud.log_scales)
    return replace(moved, rotations=rotations, log_scales=log_scales)


def load_target(path, kind: str = "auto"):
    """Load target geometry: returns a TriangleMesh or a PointSet.

    kind is one of TARGET_KINDS: "auto", "mesh", "pointcloud", or
    "gsplat". On "auto", .obj files load as meshes, .ply files holding a
    splat model (detected by their f_dc_0 property) contribute their
    centers, and any other PLY with x/y/z vertex properties loads as a
    plain point cloud. A truncated PLY body raises PlyReadError naming
    the byte offset where the file ends.
    """
    path = str(path)
    lower = path.lower()
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}")
    if kind == "mesh" or (kind == "auto" and lower.endswith(".obj")):
        vertices, triangles = read_obj_arrays(path)
        return TriangleMesh(vertices=vertices, triangles=triangles)
    if kind == "gsplat":
        return PointSet(points=read_gs_ply(path).centers)
    if lower.endswith(".ply"):
        with open(path, "rb") as stream:
            properties, count, header_bytes = _parse_header(stream, path)
            if kind == "auto" and "f_dc_0" in properties:
                return PointSet(points=read_gs_ply(path).centers)
            return _read_point_ply(stream, path, properties, count,
                                   header_bytes)
    raise ValueError(f"{path}: unsupported target format "
                     "(expected .obj or .ply)")


def _read_point_ply(stream, path, properties, count,
                    header_bytes) -> PointSet:
    for name in ("x", "y", "z"):
        if name not in properties:
            raise ValueError(f"{path}: point PLY missing property {name!r}")
    records = _read_records(stream, path, properties, count, header_bytes)
    points = np.stack([records[name].astype(np.float64)
                       for name in ("x", "y", "z")], axis=1)
    if {"nx", "ny", "nz"} <= set(properties):
        normals = np.stack([records[name].astype(np.float64)
                            for name in ("nx", "ny", "nz")], axis=1)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        if np.all(lengths > 1e-6):
            return PointSet(points=points, normals=normals / lengths)
    return PointSet(points=points)


def write_point_ply(points: PointSet, path) -> None:
    """Write a PointSet as a binary little-endian PLY (x, y, z [+ normals])."""
    n = len(points)
    if n == 0:
        raise ValueError("refusing to write an empty point set")
    names = ["x", "y", "z"]
    if points.normals is not None:
        names += ["nx", "ny", "nz"]
    dtype = np.dtype([(name, "<f4") for name in names])
    records = np.zeros(n, dtype=dtype)
    for i, name in enumerate(("x", "y", "z")):
        records[name] = points.points[:, i]
    if points.normals is not None:
        for i, name in enumerate(("nx", "ny", "nz")):
            records[name] = points.normals[:, i]
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {n}"]
    header += [f"property float {name}" for name in names]
    header.append("end_header")
    with open(path, "wb") as stream:
        stream.write(("\n".join(header) + "\n").encode("ascii"))
        stream.write(records.tobytes())
