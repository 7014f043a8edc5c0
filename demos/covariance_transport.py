"""What happens to splat ellipsoids when the warp is not rigid.

Each Gaussian has a full covariance, so a stretch or shear of the cage
should stretch and shear the splats too -- not just move their centers.
This script runs a small cloud through a shearing cage, once with
covariance transport on and once with it off, and compares the resulting
splat shapes.  Along the way it checks the finite-difference Jacobian
against the shear that was applied to the cage.
"""

import numpy as np

from cagewarp import (GaussianCloud, TriangleMesh, build_template_cage,
                      deform_cloud, jacobian_fd)
from cagewarp.splats import covariances_of

rng = np.random.default_rng(3)
n = 3000
centers = rng.uniform(-1.0, 1.0, size=(n, 3))
cloud = GaussianCloud(
    centers=centers,
    log_scales=np.full((n, 3), -2.0) + rng.normal(size=(n, 3)) * 0.3,
    rotations=rng.normal(size=(n, 4)),
    opacity_logits=np.zeros(n),
    sh_dc=rng.normal(size=(n, 3)),
    sh_rest=np.zeros((n, 0)),
)

cage = build_template_cage(centers, resolution=2, padding=0.2)

# shear: x picks up half of z, and z stretches by 40%
shear = np.array([[1.0, 0.0, 0.5],
                  [0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.4]])
sheared = TriangleMesh(cage.vertices @ shear.T, cage.triangles)

# the warp of an affine cage map is that map, so its jacobian is the shear
probe = centers[::100]
j_fd = jacobian_fd(probe, cage, sheared)
print(f"jacobian vs prescribed shear ({len(probe)} probes): max diff "
      f"{np.abs(j_fd - shear).max():.2e}")

moved, _ = deform_cloud(cloud, cage, sheared, m=2000, seed=0)
frozen, _ = deform_cloud(cloud, cage, sheared, update_covariance=False,
                         m=2000, seed=0)

# transported covariances should equal J Sigma J^T, which here is known
sigma = covariances_of(cloud.rotations, cloud.log_scales)
expected = shear @ sigma @ shear.T
got = covariances_of(moved.rotations, moved.log_scales)
rel = (np.linalg.norm(got - expected, axis=(1, 2))
       / np.linalg.norm(expected, axis=(1, 2)))
print(f"transported covariance vs exact  J Sigma J^T: "
      f"max rel err {rel.max():.2e}")

vol_before = np.exp(cloud.log_scales.sum(axis=1))
vol_after = np.exp(moved.log_scales.sum(axis=1))
print(f"splat volume ratio under the shear: "
      f"mean {np.mean(vol_after / vol_before):.4f} "
      f"(det J = {np.linalg.det(shear):.4f})")

same = np.array_equal(frozen.log_scales, cloud.log_scales) and np.array_equal(
    frozen.rotations, cloud.rotations)
print(f"with transport off, shapes pass through untouched: {same}")
print(f"centers identical either way: "
      f"{np.array_equal(moved.centers, frozen.centers)}")
