"""Dial a deformation up and down after fitting it once.

Because the warp is stored as a pair of cages, any in-between pose is one
vertex interpolation away: lambda 0 is the untouched model, lambda 1 the
full edit, and everything between comes for free -- no re-fitting, no
re-sampling.  This sweeps a bend through several magnitudes and tracks how
far the model sits from each end of the range.
"""

import os

import numpy as np

from cagewarp import (GaussianCloud, TriangleMesh, build_template_cage,
                      chamfer_distance, deform_cloud, interpolate_cage,
                      write_gs_ply)

out_dir = "demo_output"
os.makedirs(out_dir, exist_ok=True)

rng = np.random.default_rng(12)
n = 4000
centers = rng.normal(size=(n, 3)) * np.array([1.5, 0.4, 0.4])
cloud = GaussianCloud(
    centers=centers,
    log_scales=rng.normal(size=(n, 3)) - 2.2,
    rotations=rng.normal(size=(n, 4)),
    opacity_logits=rng.normal(size=n),
    sh_dc=rng.normal(size=(n, 3)),
    sh_rest=np.zeros((n, 0)),
)

cage = build_template_cage(centers, resolution=3, padding=0.15)

# full edit: bend the bar into an arc around y
v = cage.vertices
angle = 0.6 * v[:, 0] / np.abs(v[:, 0]).max()
bent_v = np.stack([v[:, 0] * np.cos(angle) - v[:, 2] * np.sin(angle),
                   v[:, 1],
                   v[:, 0] * np.sin(angle) + v[:, 2] * np.cos(angle)],
                  axis=1)
bent = TriangleMesh(bent_v, cage.triangles)

full, _ = deform_cloud(cloud, cage, bent, m=2000, seed=0)

print("lambda   cd(source)   cd(full edit)")
for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
    partial_cage = interpolate_cage(cage, bent, lam)
    partial, _ = deform_cloud(cloud, cage, partial_cage, m=2000, seed=0)
    cd_src = chamfer_distance(partial.centers, cloud.centers)
    cd_full = chamfer_distance(partial.centers, full.centers)
    print(f"  {lam:.2f}   {cd_src:10.6f}   {cd_full:10.6f}")
    write_gs_ply(partial, f"{out_dir}/bend_lam{lam:.2f}.ply")

print(f"wrote one splat cloud per lambda to {out_dir}/")
