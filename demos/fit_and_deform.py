"""End-to-end: fit a cage to a target shape, then warp a splat cloud through it.

A synthetic Gaussian-splat cloud stands in for a captured model.  The target
is the same geometry after a rotation, an anisotropic squash, and a shift --
handed over as bare points only, the way a user would sketch a goal shape.
The optimizer moves the cage vertices until the warped source points land on
the target, and the fitted cage then carries the full cloud (covariances
included) to the new pose.
"""

import os

import numpy as np

from cagewarp import (GaussianCloud, build_template_cage, chamfer_distance,
                      deform_cloud, fit_deformed_cage, sample_points,
                      write_cage_obj, write_gs_ply)


def make_cloud(n, seed):
    rng = np.random.default_rng(seed)
    # an ellipsoidal blob with a dense ridge along x
    centers = rng.normal(size=(n, 3)) * np.array([1.2, 0.5, 0.4])
    ridge = rng.random(n) < 0.3
    centers[ridge, 1] *= 0.25
    return GaussianCloud(
        centers=centers,
        log_scales=rng.normal(size=(n, 3)) - 2.5,
        rotations=rng.normal(size=(n, 4)),
        opacity_logits=rng.normal(size=n),
        sh_dc=rng.normal(size=(n, 3)),
        sh_rest=np.zeros((n, 0)),
    )


def target_transform(points):
    angle = 0.35
    rot = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                    [np.sin(angle), np.cos(angle), 0.0],
                    [0.0, 0.0, 1.0]])
    return points @ (rot * np.array([0.8, 1.3, 1.1])).T + np.array(
        [0.4, -0.2, 0.15])


def main():
    out_dir = "demo_output"
    os.makedirs(out_dir, exist_ok=True)

    cloud = make_cloud(6000, seed=7)
    target_points = target_transform(make_cloud(6000, seed=8).centers)

    cage = build_template_cage(cloud.centers, resolution=2, padding=0.12)
    print(f"source cage: {len(cage.vertices)} vertices around "
          f"{len(cloud.centers)} splats")

    # the fit uses every point it is given, so hand it a subsample
    samples = sample_points(cloud.centers, 3000, seed=0)
    fitted, report = fit_deformed_cage(samples, target_points, cage,
                                       iterations=300)
    print(f"fit ran {report.iterations_run} iterations "
          f"(converged={report.converged}): {report.coarse_iterations} on "
          f"{report.coarse_samples} samples and {report.coarse_targets} "
          f"targets, then {len(report.loss_trace)} on all of them")
    # the cage at rest reproduces the samples, so this is the chamfer the
    # fit starts from, on the same points as the final one
    print(f"chamfer: start {chamfer_distance(samples, target_points):.5f} "
          f"-> after the coarse stage {report.loss_trace[0, 1]:.5f} "
          f"-> final {report.final_chamfer:.5f}")

    # two independent draws never align exactly; the true transform sets
    # the floor any fit can reach
    floor = chamfer_distance(target_transform(cloud.centers), target_points)
    print(f"noise floor of the two samples: chamfer {floor:.5f}")

    warped, field = deform_cloud(cloud, cage, fitted, m=4000, seed=0)
    cd = chamfer_distance(warped.centers, target_points)
    print(f"warped cloud vs target points: chamfer {cd:.5f} "
          f"({field.site_jacobians.shape[0]} jacobian sites)")

    write_cage_obj(cage, f"{out_dir}/fit_cage_source.obj")
    write_cage_obj(fitted, f"{out_dir}/fit_cage_deformed.obj")
    write_gs_ply(cloud, f"{out_dir}/fit_cloud_source.ply")
    write_gs_ply(warped, f"{out_dir}/fit_cloud_warped.ply")
    print(f"wrote cages and splat clouds to {out_dir}/")


if __name__ == "__main__":
    main()
