import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cagewarp.cage import build_template_cage
from cagewarp.errors import PlyReadError
from cagewarp.metrics import (
    TriangleMesh,
    baseline_bbox_scale,
    chamfer_distance,
    load_target,
    sample_mesh_surface,
    sample_points,
    write_point_ply,
)
from cagewarp.mvc import deform_points, mvc_weights
from cagewarp.points import PointSet
from cagewarp.splats import covariances_of, write_gs_ply
from cagewarp.transport import deform_cloud

from conftest import random_cloud


def two_triangle_mesh():
    """One large and one small triangle: areas 8 and 0.5."""
    vertices = np.array([
        [0.0, 0, 0], [4, 0, 0], [0, 4, 0],      # area 8
        [10.0, 0, 0], [11, 0, 0], [10, 1, 0],   # area 0.5
    ])
    triangles = np.array([[0, 1, 2], [3, 4, 5]])
    return TriangleMesh(vertices, triangles)


class TestSampling:
    def test_area_weighted_counts(self):
        mesh = two_triangle_mesh()
        n = 20000
        ps = sample_mesh_surface(mesh, n=n, seed=0)
        # Count samples landing near each triangle: the split must follow
        # the area ratio 8 : 0.5 within binomial noise (3 sigma).
        on_small = ps.points[:, 0] > 5.0
        p = 0.5 / 8.5
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(on_small.sum() - n * p) < 3 * sigma

    def test_samples_lie_on_faces(self):
        mesh = two_triangle_mesh()
        ps = sample_mesh_surface(mesh, n=500, seed=1)
        assert np.allclose(ps.points[:, 2], 0.0, atol=1e-12)
        # Inside the union of the two triangles: x + y <= 4 on the big one.
        big = ps.points[:, 0] <= 5.0
        assert np.all(ps.points[big, 0] + ps.points[big, 1] <= 4.0 + 1e-9)

    def test_normals_attached_and_unit(self):
        mesh = two_triangle_mesh()
        ps = sample_mesh_surface(mesh, n=100, seed=2)
        assert ps.normals is not None
        assert np.allclose(np.linalg.norm(ps.normals, axis=1), 1.0)
        assert np.allclose(np.abs(ps.normals[:, 2]), 1.0)

    def test_deterministic(self):
        mesh = two_triangle_mesh()
        a = sample_mesh_surface(mesh, n=50, seed=3)
        b = sample_mesh_surface(mesh, n=50, seed=3)
        assert np.array_equal(a.points, b.points)

    def test_zero_area_rejected(self):
        mesh = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(ValueError):
            sample_mesh_surface(mesh, n=10)


def _indexed_geometry(kind, n):
    """n points whose x is the row index, as the given point geometry."""
    rng = np.random.default_rng(n)
    points = np.column_stack([np.arange(n, dtype=np.float64),
                              rng.standard_normal((n, 2))])
    if kind == "cloud":
        return points, dataclasses.replace(random_cloud(n), centers=points)
    if kind == "pointset":
        return points, PointSet(points=points)
    return points, points


_KINDS = st.sampled_from(["array", "pointset", "cloud"])
_SEEDS = st.integers(0, 2**32 - 1)


class TestSamplePoints:
    @settings(max_examples=40, deadline=None)
    @given(kind=_KINDS, n=st.integers(2, 60), data=st.data(), seed=_SEEDS)
    def test_distinct_rows_in_source_order(self, kind, n, data, seed):
        points, geometry = _indexed_geometry(kind, n)
        count = data.draw(st.integers(1, n - 1))
        out = sample_points(geometry, count, seed)
        assert out.shape == (count, 3)
        rows = out[:, 0].astype(np.int64)
        assert np.all(np.diff(rows) > 0)
        np.testing.assert_array_equal(out, points[rows])

    @settings(max_examples=40, deadline=None)
    @given(kind=_KINDS, n=st.integers(1, 60), data=st.data(), seed=_SEEDS)
    def test_every_row_when_count_is_none_or_covers_all(self, kind, n, data,
                                                        seed):
        points, geometry = _indexed_geometry(kind, n)
        count = data.draw(st.none() | st.integers(n, 3 * n))
        np.testing.assert_array_equal(sample_points(geometry, count, seed),
                                      points)

    @settings(max_examples=40, deadline=None)
    @given(kind=_KINDS, n=st.integers(1, 60), count=st.integers(1, 60),
           seed=_SEEDS)
    def test_same_rows_for_same_seed(self, kind, n, count, seed):
        _, geometry = _indexed_geometry(kind, n)
        np.testing.assert_array_equal(sample_points(geometry, count, seed),
                                      sample_points(geometry, count, seed))

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["array", "pointset", "cloud", "mesh"]),
           count=st.integers(-5, 0), seed=_SEEDS)
    def test_count_below_one_rejected(self, kind, count, seed):
        geometry = two_triangle_mesh() if kind == "mesh" \
            else _indexed_geometry(kind, 10)[1]
        with pytest.raises(ValueError, match="sample count"):
            sample_points(geometry, count, seed)

    def test_mesh_needs_explicit_count(self):
        with pytest.raises(ValueError, match="explicit count"):
            sample_points(two_triangle_mesh(), None, 0)


class TestChamfer:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(100, 3))
        assert chamfer_distance(pts, pts.copy()) == 0.0

    def test_hand_computed(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0]])
        b = np.array([[0.0, 0, 0], [1, 1, 0]])
        # a->b: 0 and 1 (to (1,1,0) vs (0,0,0): min(1, 1)=1); mean = 0.5
        # b->a: 0 and 1 (from (1,1,0) to (1,0,0)); mean = 0.5
        assert np.isclose(chamfer_distance(a, b), 1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(60, 3))
        assert np.isclose(chamfer_distance(a, b), chamfer_distance(b, a),
                          rtol=1e-12)

    def test_accepts_pointsets(self):
        rng = np.random.default_rng(6)
        a = PointSet(points=rng.normal(size=(30, 3)))
        b = rng.normal(size=(30, 3))
        assert chamfer_distance(a, b) == chamfer_distance(a.points, b)

    def test_translation_increases(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(50, 3))
        assert chamfer_distance(a, a + 0.5) > chamfer_distance(a, a + 0.1)


class TestBaseline:
    def test_identity_box_bit_exact(self):
        cloud = random_cloud(100, seed=8)
        lo, hi = cloud.bbox()
        out = baseline_bbox_scale(cloud, lo, hi)
        for name in ("centers", "log_scales", "rotations"):
            assert np.array_equal(getattr(out, name), getattr(cloud, name))

    def test_centers_map_onto_target_box(self):
        cloud = random_cloud(200, seed=9)
        lo = np.array([10.0, -5.0, 2.0])
        hi = np.array([14.0, -1.0, 2.5])
        out = baseline_bbox_scale(cloud, lo, hi)
        olo, ohi = out.bbox()
        assert np.allclose(olo, lo, atol=1e-12)
        assert np.allclose(ohi, hi, atol=1e-12)

    def test_uniform_scale_keeps_rotations(self):
        cloud = random_cloud(100, seed=10)
        lo, hi = cloud.bbox()
        c = 0.5 * (lo + hi)
        out = baseline_bbox_scale(cloud, c + 3.0 * (lo - c), c + 3.0 * (hi - c))
        assert np.array_equal(out.rotations, cloud.rotations)
        assert np.allclose(out.log_scales, cloud.log_scales + np.log(3.0),
                           rtol=1e-12)

    def test_anisotropic_scale_transports_covariance(self):
        cloud = random_cloud(150, seed=11)
        lo, hi = cloud.bbox()
        c = 0.5 * (lo + hi)
        factors = np.array([2.0, 1.0, 0.5])
        out = baseline_bbox_scale(cloud, c + factors * (lo - c),
                                  c + factors * (hi - c))
        sigma = covariances_of(cloud.rotations, cloud.log_scales)
        J = np.diag(factors)
        expected = np.einsum("ij,njk,lk->nil", J, sigma, J)
        got = covariances_of(out.rotations, out.log_scales)
        assert np.max(np.abs(got - expected)) < 1e-10 * np.abs(expected).max()

    def test_update_covariance_off(self):
        cloud = random_cloud(80, seed=12)
        out = baseline_bbox_scale(cloud, np.zeros(3), np.ones(3),
                                  update_covariance=False)
        assert np.array_equal(out.log_scales, cloud.log_scales)
        assert np.array_equal(out.rotations, cloud.rotations)

    @pytest.mark.parametrize("factors, update_covariance", [
        (None, True),                 # identical box: bit-exact copy
        ((2.0, 1.0, 0.5), False),
        ((3.0, 3.0, 3.0), True),      # uniform scale
        ((2.0, 1.0, 0.5), True),      # anisotropic scale
    ])
    def test_output_shares_no_memory_with_input(self, factors,
                                                update_covariance):
        cloud = random_cloud(50, seed=13)
        lo, hi = cloud.bbox()
        if factors is not None:
            c = 0.5 * (lo + hi)
            lo = c + np.multiply(factors, lo - c)
            hi = c + np.multiply(factors, hi - c)
        out = baseline_bbox_scale(cloud, lo, hi,
                                  update_covariance=update_covariance)
        for f in dataclasses.fields(cloud):
            assert not np.shares_memory(getattr(out, f.name),
                                        getattr(cloud, f.name)), f.name

    def test_matches_cage_route(self):
        # The bbox baseline and an MVC deformation between two template
        # cages built with the same padding must agree on centers.
        cloud = random_cloud(500, seed=13)
        lo = np.array([5.0, 5.0, 5.0])
        hi = np.array([7.0, 11.0, 6.0])
        base = baseline_bbox_scale(cloud, lo, hi)

        src_cage = build_template_cage(cloud.centers, resolution=2,
                                       padding=0.1)
        slo, shi = cloud.bbox()
        scale = (hi - lo) / (shi - slo)
        tgt_cage = src_cage.with_vertices(
            0.5 * (lo + hi) + (src_cage.vertices - 0.5 * (slo + shi)) * scale,
            validate=False)
        via_cage, _ = deform_cloud(cloud, src_cage, tgt_cage, m=50,
                                   update_covariance=False)
        diag = float(np.linalg.norm(hi - lo))
        assert np.max(np.abs(base.centers - via_cage.centers)) < 1e-9 * diag


class TestTargetIO:
    def test_load_obj_mesh(self, tmp_path):
        path = tmp_path / "t.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        target = load_target(path)
        assert isinstance(target, TriangleMesh)
        assert len(target.triangles) == 1

    def test_load_gs_ply_centers(self, tmp_path):
        cloud = random_cloud(20, seed=14, f32=True)
        path = tmp_path / "model.ply"
        write_gs_ply(cloud, path)
        target = load_target(path)
        assert isinstance(target, PointSet)
        assert np.array_equal(target.points, cloud.centers)

    def test_point_ply_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(60, 3)).astype(np.float32).astype(np.float64)
        nrm = rng.normal(size=(60, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        nrm = nrm.astype(np.float32).astype(np.float64)
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        ps = PointSet(points=pts, normals=nrm)
        path = tmp_path / "cloud.ply"
        write_point_ply(ps, path)
        back = load_target(path)
        assert isinstance(back, PointSet)
        assert np.array_equal(back.points, pts)
        assert back.normals is not None
        assert np.max(np.abs(back.normals - nrm)) < 1e-6

    @pytest.mark.parametrize("kind", ["auto", "pointcloud"])
    def test_truncated_point_ply_reports_path_and_offset(self, tmp_path,
                                                         kind):
        rng = np.random.default_rng(16)
        path = tmp_path / "cloud.ply"
        write_point_ply(PointSet(points=rng.normal(size=(20, 3))), path)
        raw = path.read_bytes()
        bad = tmp_path / "cut.ply"
        bad.write_bytes(raw[:-10])
        with pytest.raises(PlyReadError,
                           match=f"cut.ply.*byte offset {len(raw) - 10}"):
            load_target(bad, kind=kind)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "t.stl"
        path.write_text("solid nope\n")
        with pytest.raises(ValueError):
            load_target(path)
