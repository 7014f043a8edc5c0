"""Target geometry, surface sampling, and shape-agreement metrics.

Targets for cage fitting come in three flavors: a triangle mesh (possibly
open, e.g. a scan or an edited surface), a plain point cloud, or another
splat model whose centers stand in for its shape. A target is either a
TriangleMesh or an (N, 3) point array (cage.as_points); sample_points
turns both into points for fitting and evaluation.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cage import (TriangleMesh, as_points, inflate_degenerate_axes,
                   read_obj_arrays, triangle_areas)
from .splats import GaussianCloud, read_vertex_blocks, write_vertex_table
from .transport import sample_rows, transform_covariance


def sample_points(geometry, count: int, seed: int) -> np.ndarray:
    """Up to count points of a geometry, deterministic for a seed.

    A TriangleMesh is sampled by area (exactly count points). An (N, 3)
    point array (cage.as_points) yields the rows at count distinct
    indices drawn without replacement, in increasing order, or every row
    when count covers them all. A count below 1 raises ValueError.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if isinstance(geometry, TriangleMesh):
        return _sample_mesh_surface(geometry, count, seed)
    points = as_points(geometry, "geometry")
    if count >= len(points):
        return points
    return points[sample_rows(len(points), count, seed)]


def _sample_mesh_surface(mesh: TriangleMesh, n: int, seed: int) -> np.ndarray:
    """n points uniformly by area over a mesh surface.

    Faces are chosen with probability proportional to their area, then a
    point is placed uniformly inside each chosen face.
    """
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
    return (1.0 - r1) * a + r1 * (1.0 - r2) * b + r1 * r2 * c


def chamfer_distance(a, b) -> float:
    """Symmetric chamfer distance between two point sets.

    Sum of the two means of squared nearest-neighbor distances:
    mean_a min_b |a - b|^2 + mean_b min_a |b - a|^2. Units are squared
    length; identical sets score zero.
    """
    pa = as_points(a, "a")
    pb = as_points(b, "b")
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

    if not update_covariance or np.all(scale == 1.0):
        return cloud.copy(centers=centers)
    if scale.max() - scale.min() <= 1e-12 * scale.max():
        # Uniform (to rounding) scaling: covariances scale isotropically,
        # so rotations pass through untouched.
        return cloud.copy(
            centers=centers,
            log_scales=cloud.log_scales + np.mean(np.log(scale)))
    rotations, log_scales = transform_covariance(
        np.diag(scale), cloud.rotations, cloud.log_scales)
    return cloud.copy(centers=centers, rotations=rotations,
                      log_scales=log_scales)


def load_target(path):
    """Load target geometry: a TriangleMesh or an (N, 3) float64 array.

    .obj files load as meshes. A .ply file contributes the x/y/z of its
    vertex element, so a splat model gives its centers and a point cloud
    its points; every other property is ignored. Non-finite coordinates
    raise ValueError, and a truncated PLY body raises PlyReadError naming
    the byte offset where the file ends.
    """
    path = str(path)
    lower = path.lower()
    if lower.endswith(".obj"):
        return TriangleMesh(*read_obj_arrays(path))
    if not lower.endswith(".ply"):
        raise ValueError(f"{path}: unsupported target format "
                         "(expected .obj or .ply)")
    with read_vertex_blocks(path, ("x", "y", "z")) as (names, count, blocks):
        xyz = [names.index(axis) for axis in "xyz"]
        points = np.empty((count, 3))
        for first, table in blocks:
            points[first:first + len(table)] = table[:, xyz]
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{path}: non-finite point coordinates")
    return points


def write_point_ply(points, path) -> None:
    """Write an (N, 3) point array as a binary little-endian PLY of float
    x, y, z.

    A coordinate that is not finite, or that float32 cannot hold, raises
    ValueError naming its point, before anything is written.
    """
    points = as_points(points, "points")
    with np.errstate(over="ignore"):                # checked below
        table = points.astype("<f4")
    bad = ~np.isfinite(table)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        what = "outside float32's range" if np.isfinite(points[row, col]) \
            else "not finite"
        raise ValueError(f"point {row} ({'xyz'[col]}) is {what}")
    write_vertex_table(path, ("x", "y", "z"), len(points), [table])
