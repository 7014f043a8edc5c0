import numpy as np
import pytest

from cagewarp.cage import (
    CageMesh,
    box_cage,
    build_template_cage,
    interpolate_cage,
    read_cage_obj,
    surface_distance,
    triangle_areas,
    winding_numbers,
    write_cage_obj,
)
from cagewarp.errors import NonManifoldCageError, TopologyMismatchError


def unit_tetrahedron():
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    triangles = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return CageMesh(vertices, triangles)


class TestTemplateCage:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_counts(self, r):
        rng = np.random.default_rng(0)
        cage = build_template_cage(rng.normal(size=(40, 3)), resolution=r)
        assert len(cage.vertices) == (r + 1) ** 3 - max(r - 1, 0) ** 3
        assert len(cage.triangles) == 12 * r * r

    def test_encloses_with_padding(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 3, size=(200, 3))
        cage = build_template_cage(pts, resolution=2, padding=0.1)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        clo, chi = cage.bbox()
        assert np.allclose(clo, lo - 0.1 * (hi - lo), rtol=1e-12)
        assert np.allclose(chi, hi + 0.1 * (hi - lo), rtol=1e-12)
        assert np.all(winding_numbers(pts, cage) > 0.5)

    def test_volume_matches_box(self):
        cage = box_cage(np.array([0.0, 0, 0]), np.array([2.0, 3, 5]),
                        resolution=3)
        assert np.isclose(cage.signed_volume(), 2 * 3 * 5, rtol=1e-12)

    def test_flat_input_inflated(self):
        # All points in the z = 4 plane: the cage must still have volume.
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3))
        pts[:, 2] = 4.0
        cage = build_template_cage(pts, resolution=2)
        lo, hi = cage.bbox()
        assert hi[2] - lo[2] > 0
        assert cage.signed_volume() > 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 3))
        a = build_template_cage(pts, resolution=4)
        b = build_template_cage(pts.copy(), resolution=4)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_bad_args(self):
        pts = np.zeros((5, 3))
        with pytest.raises(ValueError):
            build_template_cage(pts, resolution=0)
        with pytest.raises(ValueError):
            build_template_cage(pts, padding=-0.5)
        with pytest.raises(ValueError):
            build_template_cage(np.zeros((0, 3)))


class TestValidation:
    def test_tetrahedron_valid(self):
        cage = unit_tetrahedron()
        assert np.isclose(cage.signed_volume(), 1.0 / 6.0)

    def test_flipped_triangle_rejected(self):
        tet = unit_tetrahedron()
        tri = tet.triangles.copy()
        tri[3] = tri[3, ::-1]
        with pytest.raises(NonManifoldCageError, match="winding|manifold"):
            CageMesh(tet.vertices, tri)

    def test_open_mesh_rejected(self):
        tet = unit_tetrahedron()
        with pytest.raises(NonManifoldCageError, match="not closed"):
            CageMesh(tet.vertices, tet.triangles[:3])

    def test_inward_winding_rejected(self):
        tet = unit_tetrahedron()
        with pytest.raises(NonManifoldCageError, match="inward"):
            CageMesh(tet.vertices, tet.triangles[:, ::-1])

    def test_degenerate_triangle_rejected(self):
        tet = unit_tetrahedron()
        tri = tet.triangles.copy()
        tri[0] = [0, 1, 1]
        with pytest.raises(NonManifoldCageError):
            CageMesh(tet.vertices, tri)

    def test_index_out_of_range(self):
        tet = unit_tetrahedron()
        tri = tet.triangles.copy()
        tri[0, 0] = 9
        with pytest.raises(NonManifoldCageError):
            CageMesh(tet.vertices, tri)

    def test_areas(self):
        tet = unit_tetrahedron()
        areas = triangle_areas(tet.vertices, tet.triangles)
        expected = [0.5, 0.5, 0.5, np.sqrt(3) / 2]
        assert np.allclose(np.sort(areas), np.sort(expected))


class TestInterpolation:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.source = build_template_cage(rng.normal(size=(20, 3)))
        shift = np.array([1.0, -2.0, 0.5])
        self.deformed = self.source.with_vertices(
            1.3 * self.source.vertices + shift)

    def test_endpoints_exact(self):
        lo = interpolate_cage(self.source, self.deformed, 0.0)
        hi = interpolate_cage(self.source, self.deformed, 1.0)
        assert np.array_equal(lo.vertices, self.source.vertices)
        assert np.array_equal(hi.vertices, self.deformed.vertices)

    def test_midpoint(self):
        mid = interpolate_cage(self.source, self.deformed, 0.5)
        assert np.allclose(
            mid.vertices,
            0.5 * (self.source.vertices + self.deformed.vertices), rtol=1e-15)

    def test_linearity(self):
        lams = [0.0, 0.25, 0.5, 0.75, 1.0]
        cages = [interpolate_cage(self.source, self.deformed, l) for l in lams]
        d = self.deformed.vertices - self.source.vertices
        for lam, cage in zip(lams, cages):
            assert np.allclose(cage.vertices, self.source.vertices + lam * d,
                               rtol=0, atol=1e-15 * np.abs(d).max())

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning, match="outside"):
            interpolate_cage(self.source, self.deformed, 1.5)

    def test_topology_mismatch(self):
        other = build_template_cage(np.random.default_rng(5).normal(size=(9, 3)),
                                    resolution=3)
        with pytest.raises(TopologyMismatchError):
            interpolate_cage(self.source, other, 0.5)


class TestObjIO:
    def test_roundtrip(self, tmp_path):
        cage = build_template_cage(
            np.random.default_rng(6).normal(size=(25, 3)), resolution=2)
        p1 = tmp_path / "a.obj"
        p2 = tmp_path / "b.obj"
        write_cage_obj(cage, p1)
        back = read_cage_obj(p1)
        assert np.array_equal(back.vertices, cage.vertices)
        assert np.array_equal(back.triangles, cage.triangles)
        write_cage_obj(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reads_slashed_faces_and_quads(self, tmp_path):
        text = """# cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1/1 4/2 3/3 2/4
f 5//1 6//2 7//3 8//4
f 1/1/1 2 6 5
f 2 3 7 6
f 3 4 8 7
f 4 1 5 8
"""
        path = tmp_path / "cube.obj"
        path.write_text(text)
        cage = read_cage_obj(path)
        assert len(cage.vertices) == 8
        assert len(cage.triangles) == 12
        assert np.isclose(cage.signed_volume(), 1.0)

    def test_missing_vertices(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            read_cage_obj(path)


class TestGeometricQueries:
    def test_surface_distance_unit_box(self):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=2)
        pts = np.array([
            [0.5, 0.5, 0.5],    # center: 0.5 from every face
            [0.5, 0.5, 0.0],    # on a face
            [2.0, 0.5, 0.5],    # 1 outside the x = 1 face
            [2.0, 2.0, 2.0],    # past the (1, 1, 1) corner
        ])
        d = surface_distance(pts, cage)
        expected = [0.5, 0.0, 1.0, np.sqrt(3.0)]
        assert np.allclose(d, expected, rtol=0, atol=1e-12)

    def test_surface_distance_brute_force(self):
        # Oracle: dense barycentric sampling of every triangle.
        cage = unit_tetrahedron()
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.5, 1.5, size=(40, 3))
        grid = np.linspace(0, 1, 60)
        bary = [(s, t) for s in grid for t in grid if s + t <= 1.0]
        samples = []
        for t0, t1, t2 in cage.triangles:
            a, b, c = cage.vertices[[t0, t1, t2]]
            for s, t in bary:
                samples.append(a + s * (b - a) + t * (c - a))
        samples = np.asarray(samples)
        brute = np.min(np.linalg.norm(pts[:, None] - samples[None], axis=2),
                       axis=1)
        exact = surface_distance(pts, cage)
        assert np.all(exact <= brute + 1e-12)
        assert np.allclose(exact, brute, atol=2e-2)

    def test_winding_inside_outside(self):
        cage = build_template_cage(
            np.random.default_rng(8).normal(size=(30, 3)), resolution=3)
        lo, hi = cage.bbox()
        center = 0.5 * (lo + hi)
        rng = np.random.default_rng(9)
        inside = center + 0.3 * (hi - lo) * rng.uniform(-1, 1, size=(50, 3))
        outside = center + (hi - lo) * (1.0 + rng.uniform(0.1, 2, size=(50, 3)))
        w_in = winding_numbers(inside, cage)
        w_out = winding_numbers(outside, cage)
        assert np.allclose(w_in, 1.0, atol=1e-10)
        assert np.allclose(w_out, 0.0, atol=1e-10)
