"""Acceptance gate: the nine properties this package promises, end to end.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s, or in the
captured-output section on failure) and enforces its stated tolerances.
Synthetic fixtures are deterministic; no external data is required.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cagewarp.cage import (CageMesh, TriangleMesh, build_template_cage,
                           interpolate_cage, winding_numbers)
from cagewarp.fitting import fit_deformed_cage
from cagewarp.metrics import baseline_bbox_scale, write_point_ply
from cagewarp.mvc import deform_points, mvc_weights
from cagewarp.pipeline import PipelineConfig, run_pipeline
from cagewarp.splats import (GaussianCloud, covariances_of, read_gs_ply,
                             write_gs_ply)
from cagewarp.transport import deform_cloud, jacobian_fd, transform_covariance

from conftest import random_cloud
from jacobian_oracle import jacobian_analytic


@contextmanager
def criterion(number, label):
    """Print the criterion's [PASS]/[FAIL] line, followed by the notes
    the test appends to the list it is given."""
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"criterion {number} [FAIL] {label}", *notes, sep="; ")
        raise
    print(f"criterion {number} [PASS] {label}", *notes, sep="; ")


def _interior(cage, n, seed, clearance=0.05):
    """n points strictly inside the cage, min clearance x diag from it."""
    from cagewarp.cage import surface_distance
    rng = np.random.default_rng(seed)
    lo, hi = cage.bbox()
    diag = cage.bbox_diagonal()
    kept = []
    total = 0
    while total < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 3))
        inside = winding_numbers(cand, cage) > 0.5
        cand = cand[inside]
        cand = cand[surface_distance(cand, cage) > clearance * diag]
        kept.append(cand)
        total += len(cand)
    return np.concatenate(kept, axis=0)[:n]


def _random_valid_cage(seed, resolution, amplitude):
    """A template cage warped by smooth noise, revalidated from scratch."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(50, 3)) * rng.uniform(0.5, 2.0, size=3)
    box = build_template_cage(anchors, resolution=resolution, padding=0.12)
    if amplitude == 0.0:
        return box
    lo, hi = box.bbox()
    wobble = amplitude * (hi - lo) * np.sin(
        box.vertices @ rng.normal(size=(3, 3)) * 0.6 + rng.normal(size=3))
    # full validation proves the warped cage is still closed, outward,
    # and non-degenerate
    return CageMesh(box.vertices + wobble, box.triangles.copy())


def _smooth_cage_pair(seed, n_points=None, resolution=3, bend=0.04,
                      points=None):
    """A cage around points plus a gently bent + stretched copy."""
    rng = np.random.default_rng(seed)
    if points is None:
        points = rng.normal(size=(n_points, 3))
    source = build_template_cage(points, resolution=resolution, padding=0.15)
    v = source.vertices
    center = v.mean(axis=0)
    phase = 2.0 * np.pi * (v - center) / source.bbox_diagonal()
    sway = np.stack([
        bend * np.sin(phase[:, 1] + 0.3),
        bend * np.sin(phase[:, 2] + 1.1),
        bend * np.sin(phase[:, 0] + 2.0),
    ], axis=1) * source.bbox_diagonal()
    stretch = (v - center) * np.array([0.08, -0.05, 0.06])
    return source, TriangleMesh(v + sway + stretch, source.triangles)


def test_criterion_1_coordinate_identities():
    with criterion(1, "partition of unity <= 1e-9 and linear reproduction "
                      "<= 1e-8 x diag on 1000 interior points of 5 cages, "
                      "under 10 s"):
        cages = [
            _random_valid_cage(11, resolution=1, amplitude=0.0),
            _random_valid_cage(12, resolution=2, amplitude=0.06),
            _random_valid_cage(13, resolution=2, amplitude=0.10),
            _random_valid_cage(14, resolution=3, amplitude=0.08),
            _random_valid_cage(15, resolution=4, amplitude=0.05),
        ]
        started = time.perf_counter()
        for k, cage in enumerate(cages):
            points = _interior(cage, 1000, seed=100 + k, clearance=0.01)
            weights = mvc_weights(points, cage).weights
            unity_err = np.abs(weights.sum(axis=1) - 1.0)
            assert unity_err.max() <= 1e-9, \
                f"cage {k}: partition-of-unity error {unity_err.max():.3e}"
            rebuilt = weights @ cage.vertices
            rep_err = np.linalg.norm(rebuilt - points, axis=1)
            bound = 1e-8 * cage.bbox_diagonal()
            assert rep_err.max() <= bound, \
                f"cage {k}: reproduction error {rep_err.max():.3e} > {bound:.3e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_affine_oracle():
    with criterion(2, "20 random affine maps of a box cage reproduced to "
                      "1e-9 x diag; both Jacobian paths within 1e-9 "
                      "Frobenius of the matrix, under 5 s"):
        rng = np.random.default_rng(42)
        box = build_template_cage(rng.normal(size=(60, 3)), resolution=2,
                                  padding=0.1)
        diag = box.bbox_diagonal()
        points = _interior(box, 50, seed=7, clearance=0.05)
        weights = mvc_weights(points, box)
        started = time.perf_counter()
        for trial in range(20):
            matrix = rng.normal(size=(3, 3))
            while abs(np.linalg.det(matrix)) < 0.3:
                matrix = rng.normal(size=(3, 3))
            shift = rng.normal(size=3)
            mapped_cage = TriangleMesh(
                box.vertices @ matrix.T + shift, box.triangles)

            moved = deform_points(weights, mapped_cage)
            expect = points @ matrix.T + shift
            pos_err = np.linalg.norm(moved - expect, axis=1).max()
            assert pos_err <= 1e-9 * diag, \
                f"map {trial}: position error {pos_err:.3e}"

            probe = points[::10]
            for jac in (jacobian_fd(probe, box, mapped_cage),
                        jacobian_analytic(probe, box, mapped_cage)):
                jac_err = np.linalg.norm(jac - matrix, axis=(1, 2)).max()
                assert jac_err <= 1e-9, \
                    f"map {trial}: Jacobian error {jac_err:.3e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_criterion_3_jacobian_cross_validation():
    with criterion(3, "analytic and central-difference Jacobians within "
                      "1e-5 Frobenius on 1000 interior points of smooth "
                      "non-affine warps"):
        checked = 0
        for seed in (31, 32):
            source, deformed = _smooth_cage_pair(seed, n_points=300,
                                                 resolution=2, bend=0.06)
            points = _interior(source, 500, seed=seed + 70, clearance=0.04)
            fd = jacobian_fd(points, source, deformed)
            analytic = jacobian_analytic(points, source, deformed)
            gap = np.linalg.norm(fd - analytic, axis=(1, 2))
            assert gap.max() <= 1e-5, \
                f"seed {seed}: worst Jacobian gap {gap.max():.3e}"
            checked += len(points)
        assert checked == 1000


def test_criterion_4_covariance_transport():
    with criterion(4, "10000 random (J, q, s) triples: reconstruction "
                      "within 1e-8 relative Frobenius, det R' = +1 within "
                      "1e-10, finite positive scales; rotation Jacobians "
                      "keep the sorted spectrum within 1e-10"):
        rng = np.random.default_rng(4444)
        n = 10000
        jacobians = rng.normal(size=(n, 3, 3))
        quats = rng.normal(size=(n, 4))
        log_scales = rng.uniform(-3.0, 0.5, size=(n, 3))

        new_q, new_ls = transform_covariance(jacobians, quats, log_scales)
        assert np.all(np.isfinite(new_ls)), "non-finite log-scales"
        assert np.all(np.exp(new_ls) > 0.0)

        sigma = covariances_of(quats, log_scales)
        want = np.einsum("nij,njk,nlk->nil", jacobians, sigma, jacobians)
        got = covariances_of(new_q, new_ls)
        rel = np.linalg.norm(got - want, axis=(1, 2)) \
            / np.linalg.norm(want, axis=(1, 2))
        assert rel.max() <= 1e-8, f"worst reconstruction {rel.max():.3e}"

        from cagewarp.rotations import quat_to_matrix
        rot_mats = quat_to_matrix(new_q)
        det_err = np.abs(np.linalg.det(rot_mats) - 1.0)
        assert det_err.max() <= 1e-10, f"worst det error {det_err.max():.3e}"

        # pure-rotation Jacobians: the shape must not change
        rot_j = quat_to_matrix(rng.normal(size=(n, 4)))
        _, spun_ls = transform_covariance(rot_j, quats, log_scales)
        old_sorted = -np.sort(-np.exp(log_scales), axis=1)
        spectrum_err = np.abs(np.exp(spun_ls) - old_sorted)
        assert spectrum_err.max() <= 1e-10, \
            f"worst spectrum drift {spectrum_err.max():.3e}"


def test_criterion_5_baseline_equivalence():
    with criterion(5, "box-cage pipeline realizing a bbox-to-bbox map "
                      "equals bounding-box scaling within 1e-9 on centers "
                      "and covariances for 10k splats"):
        cloud = random_cloud(10000, seed=55)
        lo, hi = cloud.bbox()
        center = 0.5 * (lo + hi)
        scale = np.array([1.4, 0.8, 1.1])
        shift = np.array([0.3, -0.2, 0.5])
        target_lo = center + (lo - center) * scale + shift
        target_hi = center + (hi - center) * scale + shift

        via_baseline = baseline_bbox_scale(cloud, target_lo, target_hi)

        source_cage = build_template_cage(cloud.centers, resolution=2,
                                          padding=0.1)
        mapped = center + (source_cage.vertices - center) * scale + shift
        deformed_cage = TriangleMesh(mapped, source_cage.triangles)
        via_cage, _ = deform_cloud(cloud, source_cage, deformed_cage,
                                   m=10000, seed=0)

        center_err = np.abs(via_cage.centers - via_baseline.centers).max()
        assert center_err <= 1e-9, f"center gap {center_err:.3e}"

        cov_cage = covariances_of(via_cage.rotations, via_cage.log_scales)
        cov_base = covariances_of(via_baseline.rotations,
                                  via_baseline.log_scales)
        cov_err = np.linalg.norm(cov_cage - cov_base, axis=(1, 2)).max()
        assert cov_err <= 1e-9, f"covariance gap {cov_err:.3e}"


def test_criterion_6_interpolation_linearity():
    with criterion(6, "outputs at lambda in {0,.25,.5,.75,1} blend "
                      "linearly to rounding; lambda 0 is the input, "
                      "bit for bit"):
        cloud = random_cloud(2000, seed=66)
        source, deformed = _smooth_cage_pair(0, points=cloud.centers,
                                             resolution=2, bend=0.05)
        diag = source.bbox_diagonal()
        full = deform_points(mvc_weights(cloud.centers, source), deformed)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            cage_lam = interpolate_cage(source, deformed, lam)
            moved = deform_points(mvc_weights(cloud.centers, source),
                                  cage_lam)
            blend = lam * full + (1.0 - lam) * cloud.centers
            err = np.linalg.norm(moved - blend, axis=1).max()
            assert err <= 1e-10 * diag, f"lambda {lam}: error {err:.3e}"

        untouched, _ = deform_cloud(cloud, source,
                                    interpolate_cage(source, deformed, 0.0))
        np.testing.assert_array_equal(untouched.centers, cloud.centers)
        np.testing.assert_array_equal(untouched.rotations, cloud.rotations)
        np.testing.assert_array_equal(untouched.log_scales,
                                      cloud.log_scales)


def test_criterion_7_fit_convergence():
    with criterion(7, "5k-sample fit to a known-affine target reaches "
                      "chamfer <= 1e-4 x diag^2 within 500 iterations "
                      "with non-increasing best loss, under 2 min"):
        rng = np.random.default_rng(77)
        points = 0.6 * rng.standard_normal((5000, 3))
        angle = 0.25
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        matrix = rot @ np.diag([1.2, 0.9, 1.1])
        targets = points @ matrix.T + np.array([0.15, -0.1, 0.2])

        cage = build_template_cage(points, resolution=2, padding=0.1)
        started = time.perf_counter()
        _, report = fit_deformed_cage(points, targets, cage,
                                      iterations=500)
        elapsed = time.perf_counter() - started

        diag_src = np.linalg.norm(points.max(0) - points.min(0))
        diag_tgt = np.linalg.norm(targets.max(0) - targets.min(0))
        bound = 1e-4 * min(diag_src, diag_tgt) ** 2
        assert report.final_chamfer <= bound, \
            f"chamfer {report.final_chamfer:.3e} > {bound:.3e}"
        assert report.iterations_run <= 500
        assert np.all(np.diff(report.best_trace) <= 0.0), \
            "best loss increased"
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_8_sampling_ablation():
    with criterion(8, "on 50k splats, 2000-site sharing runs in <= 25% of "
                      "the all-sites wall clock with covariance gap <= 5% "
                      "at the 95th percentile") as notes:
        cloud = random_cloud(50000, seed=21)
        source, deformed = _smooth_cage_pair(0, points=cloud.centers,
                                             resolution=3, bend=0.04)

        started = time.perf_counter()
        full, _ = deform_cloud(cloud, source, deformed, m=len(cloud),
                               seed=0)
        t_full = time.perf_counter() - started

        started = time.perf_counter()
        shared, _ = deform_cloud(cloud, source, deformed, m=2000, seed=0)
        t_shared = time.perf_counter() - started

        ratio = t_shared / t_full
        cov_full = covariances_of(full.rotations, full.log_scales)
        cov_shared = covariances_of(shared.rotations, shared.log_scales)
        gap = np.linalg.norm(cov_shared - cov_full, axis=(1, 2)) \
            / np.linalg.norm(cov_full, axis=(1, 2))
        p95 = float(np.percentile(gap, 95))
        notes.append(f"ratio {ratio:.3f}, t_shared {t_shared:.3f} s, "
                     f"t_full {t_full:.3f} s, gap p95 {p95:.4f}")
        assert ratio <= 0.25, f"sampled run took {100 * ratio:.0f}% of full"
        assert p95 <= 0.05, f"95th-percentile covariance gap {p95:.4f}"

        np.testing.assert_array_equal(shared.centers, full.centers)


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "same seed gives byte-identical artifacts; output "
                      "PLY re-reads to the in-memory result; "
                      "covariance-off centers match the full run"):
        cloud = random_cloud(800, seed=99)
        source_path = tmp_path / "model.ply"
        write_gs_ply(cloud, source_path)
        squeezed = cloud.centers * np.array([0.8, 1.25, 1.0]) \
            + np.array([0.05, -0.3, 0.2])
        target_path = tmp_path / "target.ply"
        write_point_ply(squeezed, target_path)

        def config(out, **kwargs):
            options = dict(
                source=str(source_path), target=str(target_path),
                output_dir=str(out), fit_iterations=80,
                sample_count=800, jacobian_sites=200, lambdas=(0.0, 1.0),
                seed=3)
            options.update(kwargs)
            return PipelineConfig(**options)

        run_a, run_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(config(run_a))
        run_pipeline(config(run_b))
        names = sorted(p.name for p in run_a.iterdir())
        assert names == sorted(p.name for p in run_b.iterdir())
        for name in names:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), \
                f"{name} differs between identical invocations"

        # the written model re-reads to exactly the in-memory computation
        from cagewarp.cage import read_cage_obj
        src_cage = read_cage_obj(run_a / "source_cage.obj")
        def_cage = read_cage_obj(run_a / "deformed_cage.obj")
        in_memory, _ = deform_cloud(read_gs_ply(source_path), src_cage,
                                    def_cage, m=200, seed=3)
        reread = read_gs_ply(run_a / "deformed_lam1.00.ply")
        for field in ("centers", "log_scales", "rotations",
                      "opacity_logits", "sh_dc", "sh_rest"):
            stored = getattr(in_memory, field).astype(np.float32)
            np.testing.assert_array_equal(
                getattr(reread, field).astype(np.float32), stored,
                err_msg=f"{field} changed across write/read")

        run_c = tmp_path / "c"
        run_pipeline(config(run_c, update_covariance=False))
        moved_off = read_gs_ply(run_c / "deformed_lam1.00.ply")
        np.testing.assert_array_equal(moved_off.centers, reread.centers)
        source_again = read_gs_ply(source_path)
        np.testing.assert_array_equal(moved_off.rotations,
                                      source_again.rotations)
