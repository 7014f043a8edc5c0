import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from cagewarp import transport
from cagewarp.cage import TriangleMesh, build_template_cage, interpolate_cage
from cagewarp.errors import NearSurfaceError, TopologyMismatchError
from cagewarp.mvc import mvc_weights
from cagewarp.rotations import quat_to_matrix
from cagewarp.splats import GaussianCloud, covariances_of
from cagewarp.transport import (
    JacobianField,
    blend_deformation,
    build_jacobian_field,
    deform_cloud,
    jacobian_fd,
    transform_covariance,
)

from conftest import cage_pair, interior_points, random_cloud, traced
from jacobian_oracle import jacobian_analytic


def on_threads(count, call):
    """call()'s results from count threads started at once, with frequent
    thread switches, so that state two calls shared would show."""
    results = [None] * count

    def run(i):
        results[i] = call()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result is not None for result in results)
    return results


def jiggled(source, amplitude=0.05, seed=0):
    """A smooth, non-affine deformation of a cage, so that site Jacobians
    vary and their gradients are fitted."""
    rng = np.random.default_rng(seed)
    lo, hi = source.bbox()
    jiggle = amplitude * (hi - lo) * np.sin(
        source.vertices @ rng.normal(size=(3, 3)) * 0.7)
    return TriangleMesh(source.vertices + jiggle, source.triangles)


def curved_jacobians(points, source, deformed):
    """A smooth, curved Jacobian field in place of jacobian_fd, so that a
    site's fitted gradient depends on which neighbours it takes."""
    rng = np.random.default_rng(70)
    lin, quad = rng.normal(size=(2, 3, 9))
    flat = np.eye(3).ravel() + 0.1 * points @ lin \
        + 0.001 * (points * points) @ quad
    return flat.reshape(-1, 3, 3)


def assert_trees_answer(field, pts, dist):
    """field assigns each point the site cKDTree.query gives, one at the
    minimum of dist (points x sites), and fits each site's gradient over
    the neighbour rows that the k = GRADIENT_NEIGHBORS + 1 query gives,
    less the site itself."""
    sites = pts[field.site_indices]
    tree = cKDTree(sites)
    assert np.array_equal(field.assignment, tree.query(pts)[1])
    assert np.array_equal(dist[np.arange(len(pts)), field.assignment],
                          dist.min(axis=1))
    if field.gradients is None:
        return
    m = len(sites)
    k = min(transport.GRADIENT_NEIGHBORS, m - 1)
    flat = field.site_jacobians.reshape(m, 9)
    for s, rows in enumerate(tree.query(sites, k=k + 1)[1]):
        rows = [row for row in rows if row != s][:k]
        d, r = sites[rows] - sites[s], flat[rows] - flat[s]
        grad = np.linalg.lstsq(d, r, rcond=None)[0]
        if np.linalg.norm(r - d @ grad) \
                > transport.GRADIENT_RESIDUAL_LIMIT * np.linalg.norm(r):
            grad[:] = 0.0
        np.testing.assert_allclose(field.gradients[s], grad, rtol=1e-9,
                                   atol=1e-12)


def uses_gradients(field):
    return field.gradients is not None and np.any(field.gradients != 0.0)


def covariance_gap_p95(jac, truth, cloud):
    """95th percentile of the relative covariance error of jac's
    transport against truth's, over the splats of cloud."""
    got, want = (covariances_of(*transform_covariance(
        j, cloud.rotations, cloud.log_scales)) for j in (jac, truth))
    return np.percentile(np.linalg.norm(got - want, axis=(1, 2))
                         / np.linalg.norm(want, axis=(1, 2)), 95)


def site_counts(field):
    """(singular, inverted) site counts of a field, as metrics.json
    reports them."""
    det = np.linalg.det(field.site_jacobians)
    return (np.count_nonzero(np.abs(det) <= transport.SINGULAR_DET),
            np.count_nonzero(det < 0))


class TestJacobians:
    def test_fd_matches_analytic(self):
        source, deformed = cage_pair(seed=1)
        pts = interior_points(source, 200, seed=2)
        j_fd = jacobian_fd(pts, source, deformed)
        j_an = jacobian_analytic(pts, source, deformed)
        gap = np.linalg.norm((j_fd - j_an).reshape(len(pts), -1), axis=1)
        assert gap.max() < 1e-5

    def test_affine_map_recovered_exactly(self):
        rng = np.random.default_rng(3)
        source = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        A = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        deformed = TriangleMesh(source.vertices @ A.T + b, source.triangles)
        pts = interior_points(source, 50, seed=4)
        for jac in (jacobian_fd(pts, source, deformed),
                    jacobian_analytic(pts, source, deformed)):
            assert np.max(np.abs(jac - A)) < 1e-8

    def test_identity_pair_gives_identity(self):
        source, _ = cage_pair(seed=5)
        pts = interior_points(source, 30, seed=6)
        jac = jacobian_analytic(pts, source, source)
        assert np.max(np.abs(jac - np.eye(3))) < 1e-10

    def test_fd_near_surface_raises(self):
        source, deformed = cage_pair(seed=7)
        lo, hi = source.bbox()
        x = np.array([[lo[0] + 1e-9 * (hi[0] - lo[0]),
                       0.5 * (lo[1] + hi[1]), 0.5 * (lo[2] + hi[2])]])
        with pytest.raises(NearSurfaceError):
            jacobian_fd(x, source, deformed)

    def test_fd_step_halving_near_surface(self):
        # A point closer than the base step but far enough for halving:
        # result should still match the analytic Jacobian.
        source, deformed = cage_pair(seed=8)
        lo, hi = source.bbox()
        diag = source.bbox_diagonal()
        x = np.array([[lo[0] + 3e-6 * diag,
                       0.5 * (lo[1] + hi[1]), 0.5 * (lo[2] + hi[2])]])
        j_fd = jacobian_fd(x, source, deformed)       # base step is 1e-5 diag
        j_an = jacobian_analytic(x, source, deformed)
        # Truncation error grows as the stencil gets squeezed against the
        # surface; the halved step keeps it small but not FD-nominal.
        assert np.linalg.norm(j_fd - j_an) < 5e-3 * np.linalg.norm(j_an)

    def test_fd_near_a_face_gives_a_jacobian_or_near_surface_error(self):
        # Sites 1e-7 to 1e-4 of the diagonal inside face centroids, whose
        # stencil rows sit where pi - h < mvc.ON_FACE_EPS: no row there
        # may miss its point and raise a plain ValueError.
        rng = np.random.default_rng(11)
        source = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        A = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        deformed = TriangleMesh(source.vertices @ A.T, source.triangles)
        v, t = source.vertices, source.triangles
        normal = source.face_normals()
        diag = source.bbox_diagonal()
        returned = 0
        for frac in [1e-7, 1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 4e-5, 1e-4]:
            x = v[t].mean(axis=1) - frac * diag * normal
            for site in x[::3]:
                try:
                    jac = jacobian_fd(site[None], source, deformed)
                except NearSurfaceError:
                    continue
                returned += 1
                assert np.max(np.abs(jac - A)) < 1e-8
        assert returned >= 6 * 16

    def test_topology_mismatch(self):
        source, _ = cage_pair(seed=9)
        rng = np.random.default_rng(10)
        other = build_template_cage(rng.normal(size=(20, 3)), resolution=3)
        with pytest.raises(TopologyMismatchError):
            jacobian_fd(np.zeros((1, 3)), source, other)


class TestJacobianField:
    def test_all_sites_when_m_large(self):
        source, deformed = cage_pair(seed=11)
        pts = interior_points(source, 40, seed=12)
        field = build_jacobian_field(pts, source, deformed, m=100)
        assert np.array_equal(field.site_indices, np.arange(40))
        assert np.array_equal(field.assignment, np.arange(40))
        assert field.site_jacobians.shape == (40, 3, 3)

    def test_sampled_sites_sorted_and_unique(self):
        source, deformed = cage_pair(seed=13)
        pts = interior_points(source, 500, seed=14)
        field = build_jacobian_field(pts, source, deformed, m=60, seed=1)
        assert len(field.site_indices) == 60
        assert np.all(np.diff(field.site_indices) > 0)
        assert field.assignment.shape == (500,)
        assert field.assignment.min() >= 0
        assert field.assignment.max() < 60

    def test_assignment_is_nearest(self):
        source, deformed = cage_pair(seed=15)
        pts = interior_points(source, 300, seed=16)
        field = build_jacobian_field(pts, source, deformed, m=40, seed=2)
        sites = pts[field.site_indices]
        d_all = np.linalg.norm(pts[:, None] - sites[None], axis=2)
        assigned = d_all[np.arange(len(pts)), field.assignment]
        assert np.allclose(assigned, d_all.min(axis=1), rtol=0, atol=1e-12)

    def test_repeated_positions_are_each_their_own_site(self):
        # With every point a site, a point whose position repeats still
        # takes its own row, not a coincident one.
        source, deformed = cage_pair(seed=17)
        lo, hi = source.bbox()
        center = 0.5 * (lo + hi)
        pts = np.vstack([center + [0.01 * i, 0, 0] for i in range(6)]
                        + [center + [0.01 * i, 0, 0] for i in range(6)])
        field = build_jacobian_field(pts, source, deformed, m=len(pts))
        assert np.array_equal(field.assignment, np.arange(12))

    @pytest.mark.parametrize("m", [1, 15])
    def test_sampled_ties_take_the_trees_answer(self, monkeypatch, m):
        # m < n takes the k-d tree query; positions repeat up to four
        # times, so sampled sites tie exactly.
        monkeypatch.setattr(transport, "jacobian_fd", curved_jacobians)
        source, deformed = cage_pair(seed=17)
        base = interior_points(source, 10, seed=18)
        pts = np.vstack([base, base[:6], base[:4], base[:2]])
        field = build_jacobian_field(pts, source, deformed, m=m, seed=3)
        sites = pts[field.site_indices]
        d = np.linalg.norm(pts[:, None] - sites[None], axis=2)
        if m > 1:
            assert (d == d.min(axis=1, keepdims=True)).sum(axis=1).max() > 1
        assert_trees_answer(field, pts, d)

    def test_lattice_ties_take_the_trees_answer(self, monkeypatch):
        # On a 12^3 lattice most points and sites are equally near to
        # several sites.
        monkeypatch.setattr(transport, "jacobian_fd", curved_jacobians)
        axis = np.arange(12.0)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        field = build_jacobian_field(pts, None, None, m=50, seed=6)
        sites = pts[field.site_indices]
        d2 = ((pts[:, None] - sites[None]) ** 2).sum(axis=2)  # exact
        assert (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1).max() > 1
        assert field.limited_sites == 0
        assert_trees_answer(field, pts, d2)

    def test_deterministic_for_seed(self):
        source, deformed = cage_pair(seed=18)
        pts = interior_points(source, 200, seed=19)
        f1 = build_jacobian_field(pts, source, deformed, m=30, seed=5)
        f2 = build_jacobian_field(pts, source, deformed, m=30, seed=5)
        assert np.array_equal(f1.site_indices, f2.site_indices)
        assert np.array_equal(f1.site_jacobians, f2.site_jacobians)
        assert np.array_equal(f1.assignment, f2.assignment)

    def test_singular_sites_flagged(self):
        rng = np.random.default_rng(20)
        source = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        flat = source.vertices.copy()
        flat[:, 2] = flat[:, 2].mean()     # collapse z: det J = 0 inside
        deformed = TriangleMesh(flat, source.triangles)
        pts = interior_points(source, 20, seed=21)
        field = build_jacobian_field(pts, source, deformed, m=100)
        assert site_counts(field)[0] == len(field.site_indices) == 20


class TestSiteGradients:
    def test_linear_field_reproduced_at_every_point(self, monkeypatch):
        # Site Jacobians from J(x) = J0 + sum_a x_a G_a: the fit recovers
        # G exactly, so every point gets its own J(x) to rounding.
        rng = np.random.default_rng(60)
        j0 = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        grad = 0.1 * rng.normal(size=(3, 3, 3))

        def linear(points, source, deformed):
            return j0 + np.einsum("pa,aij->pij", points, grad)

        monkeypatch.setattr(transport, "jacobian_fd", linear)
        source, deformed = cage_pair(seed=61)
        pts = interior_points(source, 3000, seed=62)
        field = build_jacobian_field(pts, source, deformed, m=150, seed=4)
        assert field.limited_sites == 0
        got = field.span_jacobians(pts, 0, len(pts))
        np.testing.assert_allclose(got, linear(pts, None, None), rtol=0,
                                   atol=1e-12)

    def test_planar_cloud_stays_within_twice_nearest(self):
        # A z = 0 cloud gets a thin template cage, whose J kinks across
        # the projected face edges. Unlimited gradients extrapolate across
        # them, 3.6 times worse than nearest sites here; the limiter drops
        # those fits.
        cloud = random_cloud(20000, seed=63)
        cloud.centers[:, 2] = 0.0
        source = build_template_cage(cloud.centers, resolution=3)
        deformed = jiggled(source, amplitude=0.02, seed=64)
        field = build_jacobian_field(cloud.centers, source, deformed,
                                     m=1000, seed=0)
        assert 0 < field.limited_sites < 1000
        truth = jacobian_fd(cloud.centers, source, deformed)
        gradient = covariance_gap_p95(
            field.span_jacobians(cloud.centers, 0, len(cloud)), truth, cloud)
        nearest = covariance_gap_p95(
            field.site_jacobians[field.assignment], truth, cloud)
        assert gradient <= 2.0 * nearest

    @pytest.mark.parametrize("m", [1, 3, transport.GRADIENT_NEIGHBORS + 1,
                                   200, 400])
    def test_site_counts_from_one_to_all(self, m):
        cloud = random_cloud(200, seed=65)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = jiggled(source, seed=66)
        out, field = deform_cloud(cloud, source, deformed, m=m, seed=1)
        assert len(field.site_indices) == min(m, len(cloud))
        nearest = field.site_jacobians[field.assignment]
        got = field.span_jacobians(cloud.centers, 0, len(cloud))
        if m < 4 or m >= len(cloud):
            assert field.gradients is None and field.limited_sites == 0
            q, ls = transform_covariance(nearest, cloud.rotations,
                                         cloud.log_scales)
            assert np.array_equal(out.rotations, q)
            assert np.array_equal(out.log_scales, ls)
        else:
            assert field.gradients.shape == (len(field.site_indices), 3, 9)
            assert uses_gradients(field)
            # A point at a site, or assigned to a site the limiter
            # dropped, takes the site's own Jacobian.
            limited = ~field.gradients.any(axis=(1, 2))
            same = limited[field.assignment]
            same[field.site_indices] = True
            assert np.array_equal(got[same], nearest[same])

    def test_affine_pair_raises_no_warning(self, monkeypatch):
        # Equal site Jacobians leave nothing to fit (R = 0), and coincident
        # sites leave nothing to fit with (D = 0); neither divides by zero.
        # RuntimeWarnings fail the test.
        cloud = random_cloud(300, seed=67)
        source = build_template_cage(cloud.centers, resolution=2)
        rng = np.random.default_rng(68)
        matrix = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        deformed = TriangleMesh(source.vertices @ matrix.T + 0.5,
                                source.triangles)
        deform_cloud(cloud, source, deformed, m=40)
        monkeypatch.setattr(transport, "jacobian_fd",
                            lambda points, source, deformed:
                            np.broadcast_to(matrix, (len(points), 3, 3)))
        field = build_jacobian_field(cloud.centers, source, deformed, m=40)
        assert not field.gradients.any() and field.limited_sites == 0
        twins = np.repeat(cloud.centers[:3], 20, axis=0)
        field = build_jacobian_field(twins, source, deformed, m=30)
        assert not field.gradients.any()

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_blend_matches_interpolated_cage(self, lam):
        cloud = random_cloud(600, seed=69)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = jiggled(source, seed=70)
        full, field = deform_cloud(cloud, source, deformed, m=80, seed=2)
        assert uses_gradients(field)
        got, blended = blend_deformation(cloud, full, field, lam)
        ref, ref_field = deform_cloud(
            cloud, source, interpolate_cage(source, deformed, lam), m=80,
            seed=2)
        assert blended.limited_sites == ref_field.limited_sites
        np.testing.assert_allclose(blended.gradients, ref_field.gradients,
                                   rtol=0, atol=1e-9)
        diag = source.bbox_diagonal()
        assert np.abs(got.centers - ref.centers).max() <= 1e-10 * diag
        cov_got = covariances_of(got.rotations, got.log_scales)
        cov_ref = covariances_of(ref.rotations, ref.log_scales)
        rel = np.linalg.norm(cov_got - cov_ref, axis=(1, 2)) \
            / np.linalg.norm(cov_ref, axis=(1, 2))
        assert rel.max() <= 1e-8


class TestTransformCovariance:
    def test_identity_jacobian_preserves_covariance(self):
        cloud = random_cloud(100, seed=22)
        eye = np.broadcast_to(np.eye(3), (100, 3, 3))
        q, ls = transform_covariance(eye, cloud.rotations, cloud.log_scales)
        before = covariances_of(cloud.rotations, cloud.log_scales)
        after = covariances_of(q, ls)
        assert np.max(np.abs(after - before)) < 1e-12 * np.abs(before).max()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           singular_values=hnp.arrays(np.float64, 3,
                                      elements=st.floats(1e-2, 1e2)),
           log_scales=hnp.arrays(np.float64, 3, elements=st.floats(-5, 1)))
    def test_reconstruction_of_mapped_covariance(self, n, seed,
                                                 singular_values,
                                                 log_scales):
        # Non-singular J = U diag(s) V^T with random rotations U and V.
        cloud = random_cloud(n, seed=seed)
        rng = np.random.default_rng(seed)
        u, v = quat_to_matrix(rng.normal(size=(2, n, 4)))
        jac = u * singular_values @ np.swapaxes(v, -1, -2)
        scales = cloud.log_scales + log_scales
        q, ls = transform_covariance(jac, cloud.rotations, scales)
        sigma = covariances_of(cloud.rotations, scales)
        target = np.einsum("nij,njk,nlk->nil", jac, sigma, jac)
        recon = covariances_of(q, ls)
        rel = np.linalg.norm((recon - target).reshape(n, -1), axis=1) \
            / np.linalg.norm(target.reshape(n, -1), axis=1)
        assert rel.max() < 1e-10

    def test_rotations_are_proper(self):
        rng = np.random.default_rng(25)
        cloud = random_cloud(200, seed=26)
        jac = rng.normal(size=(200, 3, 3))
        q, _ = transform_covariance(jac, cloud.rotations, cloud.log_scales)
        dets = np.linalg.det(quat_to_matrix(q))
        assert np.allclose(dets, 1.0, rtol=0, atol=1e-10)

    def test_scales_descending(self):
        rng = np.random.default_rng(27)
        cloud = random_cloud(200, seed=28)
        jac = np.eye(3) + 0.3 * rng.normal(size=(200, 3, 3))
        _, ls = transform_covariance(jac, cloud.rotations, cloud.log_scales)
        assert np.all(np.diff(ls, axis=1) <= 1e-12)

    def test_pure_rotation_preserves_spectrum(self):
        rng = np.random.default_rng(29)
        cloud = random_cloud(100, seed=30)
        R = quat_to_matrix(rng.normal(size=(100, 4)))
        q, ls = transform_covariance(R, cloud.rotations, cloud.log_scales)
        before = np.sort(np.exp(2.0 * cloud.log_scales), axis=1)
        after = np.sort(np.exp(2.0 * ls), axis=1)
        assert np.max(np.abs(after - before) / before) < 1e-10

    def test_axis_scaling_identity_rotation(self):
        n = 50
        rng = np.random.default_rng(31)
        ls = rng.normal(size=(n, 3))
        quats = np.tile([1.0, 0, 0, 0], (n, 1))
        s = np.array([2.0, 0.5, 1.5])
        jac = np.broadcast_to(np.diag(s), (n, 3, 3))
        q, new_ls = transform_covariance(jac, quats, ls)
        expected = np.sort(ls + np.log(s), axis=1)[:, ::-1]
        assert np.allclose(np.sort(new_ls, axis=1)[:, ::-1], expected,
                           rtol=1e-12)

    def test_singular_jacobian_finite_output(self):
        cloud = random_cloud(10, seed=32)
        jac = np.zeros((10, 3, 3))
        jac[:, 0, 0] = 1.0
        jac[:, 1, 1] = 1.0      # rank 2: z collapses
        q, ls = transform_covariance(jac, cloud.rotations, cloud.log_scales)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(ls))
        assert ls.min() >= 0.5 * np.log(1e-18) - 1e-9

    @pytest.mark.parametrize("first_row", [0, 1820])
    def test_an_overflowing_variance_names_its_splat(self, first_row):
        cloud = random_cloud(10, seed=34)
        cloud.log_scales[6, 0] = 360.0      # exp(720) is no float64
        cloud.log_scales[8, 2] = 400.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"splat {first_row + 6}: "
                               "the transported covariance is not finite"):
                transform_covariance(np.eye(3), cloud.rotations,
                                     cloud.log_scales, first_row=first_row)

    def test_an_overflowing_jacobian_names_its_splat(self):
        cloud = random_cloud(4, seed=35)
        jac = np.tile(np.eye(3), (4, 1, 1))
        jac[2] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="splat 2: "):
                transform_covariance(jac, cloud.rotations, cloud.log_scales)


@st.composite
def spd_batches(draw):
    """(n, 3, 3) exactly symmetric positive-definite matrices with
    variances from 1e-18 to 1e4, a distinct, repeated or isotropic
    spectrum, and either random eigenvectors, the coordinate axes, or the
    axes perturbed by off-diagonals down to 1e-300."""
    n = draw(st.integers(1, 8))
    exps = draw(hnp.arrays(np.float64, 3, elements=st.floats(-18.0, 4.0)))
    spectrum = draw(st.sampled_from(["distinct", "repeated", "isotropic"]))
    if spectrum == "repeated":
        i, j = draw(st.permutations(range(3)))[:2]
        exps[i] = exps[j]
    elif spectrum == "isotropic":
        exps[:] = exps[0]
    var = 10.0 ** exps
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = draw(st.sampled_from(["rotated", "diagonal", "near-diagonal"]))
    if axes == "rotated":
        rot = quat_to_matrix(rng.normal(size=(n, 4)))
        cov = (rot * var) @ np.swapaxes(rot, 1, 2)
        return 0.5 * (cov + np.swapaxes(cov, 1, 2))
    cov = np.zeros((n, 3, 3))
    cov[:, range(3), range(3)] = var
    if axes == "near-diagonal":
        tiny = 10.0 ** draw(st.floats(-300.0, -1.0))
        for i, j in ((1, 0), (2, 0), (2, 1)):
            # At most a tenth of sqrt(v_i v_j): the matrix stays definite.
            bound = min(tiny, 0.1 * np.sqrt(var[i] * var[j]))
            cov[:, i, j] = cov[:, j, i] = bound * rng.uniform(-1.0, 1.0, n)
    return cov


class TestJacobiEigh:
    """transport._jacobi_eigh against np.linalg.eigh as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(cov=spd_batches(), cut=st.integers(0, 8))
    def test_matches_the_eigh_oracle(self, cov, cut):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = transport._jacobi_eigh(cov)
            cut = min(cut, len(cov))
            parts = [transport._jacobi_eigh(cov[:cut]),
                     transport._jacobi_eigh(cov[cut:])]
        want = np.linalg.eigh(cov)[0][:, ::-1]
        top = want[:, :1]
        assert np.all(np.diff(vals, axis=1) <= 0.0)
        assert np.all(np.abs(vals - want) <= 1e-13 * top)
        gram = np.swapaxes(vecs, 1, 2) @ vecs
        assert np.abs(gram - np.eye(3)).max() <= 1e-13
        assert np.abs(np.linalg.det(vecs) - 1.0).max() <= 1e-13
        rebuilt = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        rel = np.linalg.norm(rebuilt - cov, axis=(1, 2)) \
            / np.linalg.norm(cov, axis=(1, 2))
        assert rel.max() <= 1e-13
        # The solver is per row: a block's bits are the whole call's.
        for got, whole in zip(zip(*parts), (vals, vecs)):
            assert np.concatenate(got).tobytes() == whole.tobytes()


class TestDeformCloud:
    def test_identity_short_circuit_bit_exact(self):
        cloud = random_cloud(300, seed=33)
        source = build_template_cage(cloud.centers, resolution=2)
        out, field = deform_cloud(cloud, source, source)
        assert field is None
        for name in ("centers", "log_scales", "rotations", "opacity_logits",
                     "sh_dc", "sh_rest"):
            assert np.array_equal(getattr(out, name), getattr(cloud, name))

    def test_centers_move_by_interpolation(self):
        cloud = random_cloud(400, seed=34)
        source = build_template_cage(cloud.centers, resolution=2)
        rng = np.random.default_rng(35)
        A = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        deformed = TriangleMesh(source.vertices @ A.T + 1.0, source.triangles)
        out, field = deform_cloud(cloud, source, deformed, m=50, seed=3)
        expected = cloud.centers @ A.T + 1.0
        assert np.max(np.abs(out.centers - expected)) \
            < 1e-9 * source.bbox_diagonal()
        assert field is not None
        assert site_counts(field)[0] == 0

    def test_passthrough_fields_bit_exact(self):
        cloud = random_cloud(200, seed=36)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * 1.4, source.triangles)
        out, _ = deform_cloud(cloud, source, deformed, m=30)
        assert np.array_equal(out.opacity_logits, cloud.opacity_logits)
        assert np.array_equal(out.sh_dc, cloud.sh_dc)
        assert np.array_equal(out.sh_rest, cloud.sh_rest)
        assert len(out) == len(cloud)

    def test_update_covariance_off(self):
        cloud = random_cloud(200, seed=37)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * 0.8 + 2.0, source.triangles)
        on, _ = deform_cloud(cloud, source, deformed, m=40,
                             update_covariance=True)
        off, field = deform_cloud(cloud, source, deformed, m=40,
                                  update_covariance=False)
        assert field is None
        assert np.array_equal(on.centers, off.centers)
        assert np.array_equal(off.log_scales, cloud.log_scales)
        assert np.array_equal(off.rotations, cloud.rotations)

    def test_uniform_scale_scales_covariance(self):
        cloud = random_cloud(100, seed=38)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * 2.0, source.triangles)
        out, _ = deform_cloud(cloud, source, deformed, m=1000)
        before = covariances_of(cloud.rotations, cloud.log_scales)
        after = covariances_of(out.rotations, out.log_scales)
        assert np.max(np.abs(after - 4.0 * before)) \
            < 1e-7 * np.abs(before).max()

    def test_deterministic_across_runs(self):
        cloud = random_cloud(300, seed=39)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * 1.1 - 0.3, source.triangles)
        a, _ = deform_cloud(cloud, source, deformed, m=50, seed=9)
        b, _ = deform_cloud(cloud, source, deformed, m=50, seed=9)
        for name in ("centers", "log_scales", "rotations"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_chunking_invariance(self):
        cloud = random_cloud(250, seed=40)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = jiggled(source, seed=40)
        a, field = deform_cloud(cloud, source, deformed, m=60, seed=1,
                                center_chunk=30000)
        assert uses_gradients(field)
        b, _ = deform_cloud(cloud, source, deformed, m=60, seed=1,
                            center_chunk=17)
        # Every step is per row, so the chunk size changes no bit.
        for name in ("centers", "log_scales", "rotations"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_worker_threads_do_not_change_bits(self):
        cloud = random_cloud(500, seed=41)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = jiggled(source, seed=41)
        a, field = deform_cloud(cloud, source, deformed, m=80, seed=2,
                                center_chunk=64)
        assert uses_gradients(field)
        # Four worker threads of the caller's, each running one pass.
        for b, _ in on_threads(4, lambda: deform_cloud(
                cloud, source, deformed, m=80, seed=2, center_chunk=64)):
            for name in ("centers", "log_scales", "rotations"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("resolution", [2, 6])
    def test_no_bit_depends_on_the_chunk_or_the_workers(self, resolution):
        cloud = random_cloud(1500, seed=42 + resolution)
        source = build_template_cage(cloud.centers, resolution=resolution)
        deformed = jiggled(source, seed=42)
        want, field = deform_cloud(cloud, source, deformed, m=150, seed=3)
        assert uses_gradients(field)
        for chunk in (17, 64, 1057, None):
            sizing = {} if chunk is None else {"center_chunk": chunk}
            # On the calling thread and on a worker thread of its own.
            for on_worker in (False, True):
                run = lambda: deform_cloud(cloud, source, deformed, m=150,
                                           seed=3, **sizing)
                got, _ = on_threads(1, run)[0] if on_worker else run()
                for name in ("centers", "log_scales", "rotations"):
                    assert getattr(got, name).tobytes() \
                        == getattr(want, name).tobytes(), \
                        (chunk, on_worker, name)

    def test_near_surface_site_fails_before_any_center_moves(self,
                                                            monkeypatch):
        cloud = random_cloud(300, seed=46)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * 1.1, source.triangles)
        lo, hi = source.bbox()
        cloud.centers[150] = [lo[0] + 1e-9 * source.bbox_diagonal(),
                              0.5 * (lo[1] + hi[1]), 0.5 * (lo[2] + hi[2])]
        calls = []

        def counted(points, cage):
            calls.append(len(points))
            return mvc_weights(points, cage)

        monkeypatch.setattr(transport, "mvc_weights", counted)
        with pytest.raises(NearSurfaceError):
            deform_cloud(cloud, source, deformed, m=len(cloud),
                         center_chunk=100)
        assert calls == []

    @pytest.mark.parametrize("update_covariance", [True, False])
    @pytest.mark.parametrize("center_chunk", [0, -7])
    def test_center_chunk_below_one_rejected(self, center_chunk,
                                             update_covariance):
        cloud = random_cloud(30, seed=42)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * 1.1, source.triangles)
        with pytest.raises(ValueError, match="center_chunk"):
            deform_cloud(cloud, source, deformed, m=10,
                         update_covariance=update_covariance,
                         center_chunk=center_chunk)
        full, field = deform_cloud(cloud, source, deformed, m=10,
                                   update_covariance=update_covariance)
        with pytest.raises(ValueError, match="center_chunk"):
            blend_deformation(cloud, full, field, 0.5,
                              center_chunk=center_chunk)

    @pytest.mark.parametrize("update_covariance, scale", [
        (True, 1.1), (False, 1.1), (True, 1.0)])
    def test_output_shares_no_memory_with_input(self, update_covariance,
                                                scale):
        # scale 1.0 takes the identical-cage short circuit. Fields that
        # pass through are copied bit for bit.
        cloud = random_cloud(60, seed=43)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = TriangleMesh(source.vertices * scale, source.triangles)
        full, field = deform_cloud(cloud, source, deformed, m=20,
                                   update_covariance=update_covariance)
        half, _ = blend_deformation(cloud, full, field, 0.5)
        passed = {"opacity_logits", "sh_dc", "sh_rest"}
        if field is None:
            passed |= {"rotations", "log_scales"}
        for out in (full, half):
            for f in dataclasses.fields(cloud):
                new, old = getattr(out, f.name), getattr(cloud, f.name)
                assert not np.shares_memory(new, old), f.name
                if f.name in passed:
                    assert new.tobytes() == old.tobytes(), f.name


class TestSharedSpanPass:
    """deform_cloud and blend_deformation share one serial span pass."""

    @staticmethod
    def scene():
        cloud = random_cloud(100, seed=47)
        source = build_template_cage(cloud.centers, resolution=2)
        return cloud, source, jiggled(source, seed=47)

    @pytest.mark.parametrize("spans", [1, 2, 3, 4, 5])
    def test_bits_do_not_depend_on_workers(self, spans):
        cloud, source, deformed = self.scene()
        chunk = -(-len(cloud) // spans)

        def run():
            full, field = deform_cloud(cloud, source, deformed, m=30,
                                       center_chunk=chunk)
            assert uses_gradients(field)
            half, _ = blend_deformation(cloud, full, field, 0.5,
                                        center_chunk=chunk)
            return [getattr(c, name).tobytes() for c in (full, half)
                    for name in ("centers", "rotations", "log_scales")]

        # Passes run at once on the caller's worker threads share no state.
        want = run()
        for workers in (1, 2, 3, 8):
            assert all(out == want for out in on_threads(workers, run))

    @staticmethod
    def failing(monkeypatch, cloud, chunk, centers=(), covariances=()):
        """Make the listed spans' centers or covariances raise, naming the
        span of the first failing row, as transform_covariance names its
        first failing splat."""
        def mapped(points, cage, deformed=None):
            # The span pass maps views of the centers; the stencils are not.
            if np.shares_memory(points, cloud.centers):
                row = np.flatnonzero((cloud.centers == points[0]).all(1))[0]
                if row // chunk in centers:
                    raise RuntimeError(f"centers of span {row // chunk}")
            return mvc_weights(points, cage, deformed)

        def refactored(jacobians, rotations, log_scales, first_row):
            for row in range(first_row, first_row + len(rotations)):
                if row // chunk in covariances:
                    raise RuntimeError(f"covariances of span {row // chunk}")
            return transform_covariance(jacobians, rotations, log_scales,
                                        first_row)

        monkeypatch.setattr(transport, "mvc_weights", mapped)
        monkeypatch.setattr(transport, "transform_covariance", refactored)

    # caller: the centers, which the caller's move maps span by span;
    # pool: the covariances, whose blocks pool the rows of every span.
    @pytest.mark.parametrize("step", ["centers", "covariances"],
                             ids=["caller", "pool"])
    def test_a_failing_span_raises(self, monkeypatch, step):
        cloud, source, deformed = self.scene()
        self.failing(monkeypatch, cloud, 25, **{step: {3}})
        with pytest.raises(RuntimeError, match=f"{step} of span 3"):
            deform_cloud(cloud, source, deformed, m=30, center_chunk=25)

    @pytest.mark.parametrize("centers, covariances, message", [
        ({2}, {0, 1, 3}, "centers of span 2"),
        ({4}, {0}, "centers of span 4"),
        ((), {1, 3}, "covariances of span 1"),
        ((), {2, 4}, "covariances of span 2")],
        ids=["centers-first", "centers-last-span", "earliest-covariances",
             "earliest-of-two"])
    def test_the_same_failure_surfaces_for_any_workers(
            self, monkeypatch, centers, covariances, message):
        # Every span's centers move before any covariance is re-factored,
        # so a failure in any span's centers comes first, then the
        # earliest span whose covariances fail.
        cloud, source, deformed = self.scene()
        self.failing(monkeypatch, cloud, 20, centers, covariances)
        with pytest.raises(RuntimeError) as caught:
            deform_cloud(cloud, source, deformed, m=30, center_chunk=20)
        assert str(caught.value) == message


class TestPeakMemory:
    """MVC rows are mapped through the deformed cage one CHUNK_PAIRS chunk
    at a time, so no (rows, V) weight matrix grows with the input: at
    resolution 6 (218 vertices) a dense row costs 1744 bytes. Site
    gradients are fitted in blocks of CHUNK_PAIRS (site, neighbour)
    pairs, and covariances re-factored in blocks of CHUNK_PAIRS // 9
    rows."""

    def test_jacobian_fd_peak_is_flat_in_the_site_count(self):
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=6)
        deformed = jiggled(cage, seed=51)
        peaks = [traced(lambda: jacobian_fd(
            interior_points(cage, m, seed=m), cage, deformed))[0]
            for m in (500, 4000)]
        # Per site: six stencil points, their images and the Jacobian,
        # about 400 bytes, where six dense rows would be 10.5 KiB.
        assert peaks[1] - peaks[0] < 1024 * (4000 - 500)

    def test_deform_cloud_peak_is_flat_in_the_splat_count(self):
        # One span of the default center_chunk holds every splat. Without
        # covariances, whose scratch is per span by design, the peak grows
        # by the output and the span's moved centers (24 bytes a splat).
        peaks, kept = [], []
        for n in (2000, 16000):
            cloud = random_cloud(n, seed=52)
            cage = build_template_cage(cloud.centers, resolution=6)
            peak, end = traced(lambda: deform_cloud(
                cloud, cage, jiggled(cage, seed=52),
                update_covariance=False))
            peaks.append(peak)
            kept.append(end)
        assert peaks[1] - peaks[0] < kept[1] - kept[0] + 32 * (16000 - 2000)

    def test_covariance_peak_is_flat_in_the_span_rows(self):
        # One span holds every splat. Its covariances are re-factored in
        # blocks of CHUNK_PAIRS // 9 rows, so beyond what the call keeps
        # the peak grows by tens of bytes a splat, not by the 580 bytes a
        # row of one whole-span call (6.6 MiB more from 2000 to 16000).
        peaks, kept = [], []
        for n in (2000, 16000):
            cloud = random_cloud(n, seed=53)
            cage = build_template_cage(cloud.centers, resolution=2)
            peak, end = traced(lambda: deform_cloud(
                cloud, cage, jiggled(cage, seed=53), m=200))
            peaks.append(peak)
            kept.append(end)
        assert peaks[1] - peaks[0] < kept[1] - kept[0] + 64 * (16000 - 2000)

    def test_covariance_blocks_do_not_change_bits(self, monkeypatch):
        cloud = random_cloud(300, seed=54)
        source = build_template_cage(cloud.centers, resolution=2)
        deformed = jiggled(source, seed=54)
        whole, field = deform_cloud(cloud, source, deformed, m=40)
        assert uses_gradients(field)
        # 7-row blocks (and 6-site gradient blocks).
        monkeypatch.setattr(transport, "CHUNK_PAIRS", 9 * 7)
        blocked, _ = deform_cloud(cloud, source, deformed, m=40)
        for name in ("centers", "log_scales", "rotations"):
            assert getattr(whole, name).tobytes() \
                == getattr(blocked, name).tobytes()

    def test_site_gradient_scratch_is_flat_in_the_site_count(self):
        # Beyond the neighbour table and the gradients it returns, nothing
        # grows with m. One (m, k, 9) array would be 7 MB at m = 10000.
        scratch = []
        for m in (2000, 10000):
            rng = np.random.default_rng(m)
            tree = cKDTree(rng.uniform(size=(m, 3)))
            jac = np.eye(3) + 0.1 * rng.normal(size=(m, 3, 3))
            peak, kept = traced(lambda: transport._site_gradients(tree, jac))
            scratch.append(peak - kept)
        assert scratch[1] - scratch[0] < 4 * 2**20


class TestBlendDeformation:
    def test_mirror_cage_flags_inverted_and_singular_sites(self):
        # The mirror in x has J = diag(-1, 1, 1), so the blend at lam has
        # det J = 1 - 2 lam: positive below 0.5, zero at 0.5, -1 at 1.
        source = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                     resolution=2, padding=0.0)
        mirror = TriangleMesh(source.vertices * [-1.0, 1.0, 1.0],
                              source.triangles)
        cloud = random_cloud(300, seed=44)
        cloud.centers = interior_points(source, 300, seed=45)
        full, field = deform_cloud(cloud, source, mirror, m=100)
        at = {lam: blend_deformation(cloud, full, field, lam)[1]
              for lam in (0.25, 0.5, 1.0)}
        assert site_counts(at[0.25]) == (0, 0)
        assert site_counts(at[0.5])[0] == 100
        assert site_counts(at[1.0]) == (0, 100)

    def test_lam_zero_holds_no_second_cloud(self):
        # The pipeline writes the lam = 0 output and drops it: a copy of
        # the source would be a whole cloud more at peak, 5.3 MiB for
        # 20k splats at SH width 45.
        cloud = random_cloud(20000, sh_rest_width=45, seed=46)
        full = cloud.copy(centers=cloud.centers + 1.0)
        peak, _ = traced(lambda: blend_deformation(cloud, full, None, 0.0))
        assert peak <= 2**12
