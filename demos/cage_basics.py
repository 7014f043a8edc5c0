"""Move a cage by hand and watch the space inside follow.

Builds a padded box cage around a blob of points, lifts the cage's upper
vertices, and carries the points along by their mean value coordinates.
Writes the cages and point sets for a viewer, and prints the coordinate
identities that make this work.
"""

import os

import numpy as np

from cagewarp import (TriangleMesh, build_template_cage, deform_points,
                      mvc_weights, write_cage_obj)
from cagewarp.metrics import write_point_ply

out_dir = "demo_output"
os.makedirs(out_dir, exist_ok=True)

rng = np.random.default_rng(0)
points = rng.normal(size=(2000, 3)) * np.array([1.0, 0.6, 0.4])

cage = build_template_cage(points, resolution=2, padding=0.15)
print(f"cage: {len(cage.vertices)} vertices, {len(cage.triangles)} faces, "
      f"volume {cage.signed_volume():.3f}")

weights = mvc_weights(points, cage)
w = weights.weights
print(f"partition of unity: max |sum w - 1| = "
      f"{np.abs(w.sum(axis=1) - 1).max():.2e}")
print(f"reproduction:      max |W V - p|   = "
      f"{np.linalg.norm(w @ cage.vertices - points, axis=1).max():.2e}")

# grab every cage vertex in the top third and pull it up and sideways
lo, hi = cage.bbox()
top = cage.vertices[:, 2] > lo[2] + 0.66 * (hi[2] - lo[2])
moved_vertices = cage.vertices.copy()
moved_vertices[top] += np.array([0.35, 0.0, 0.8])
bent = TriangleMesh(moved_vertices, cage.triangles)
print(f"moved {top.sum()} of {len(cage.vertices)} cage vertices")

bent_points = deform_points(weights, bent)
shift = np.linalg.norm(bent_points - points, axis=1)
print(f"point displacement: min {shift.min():.3f}, "
      f"mean {shift.mean():.3f}, max {shift.max():.3f}")

write_cage_obj(cage, f"{out_dir}/basics_cage_before.obj")
write_cage_obj(bent, f"{out_dir}/basics_cage_after.obj")
write_point_ply(points, f"{out_dir}/basics_points_before.ply")
write_point_ply(bent_points, f"{out_dir}/basics_points_after.ply")
print(f"wrote before/after cages and point clouds to {out_dir}/")
