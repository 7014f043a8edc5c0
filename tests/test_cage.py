import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cagewarp import cage as cage_module
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


def surface_distance_per_triangle(points, cage):
    """Reference for surface_distance: one pass per triangle."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    best = np.full(len(points), np.inf)
    v = cage.vertices
    for t0, t1, t2 in cage.triangles:
        d2 = _point_triangle_dist2(points, v[t0], v[t1], v[t2])
        np.minimum(best, d2, out=best)
    return np.sqrt(best)


def _point_triangle_dist2(points, a, b, c):
    """Squared distances from points (P, 3) to triangle (a, b, c).

    Interior case: distance to the supporting plane when the projection's
    barycentric coordinates are all non-negative. Otherwise the closest
    point lies on the boundary, so take the minimum over the three edges.
    """
    e0 = b - a
    e1 = c - a
    n = np.cross(e0, e1)
    n_sq = np.dot(n, n)
    d = points - a
    h = d @ n                       # (P,) signed plane offset times |n|
    proj = d - np.outer(h / n_sq, n)
    # Barycentric via the 2x2 Gram system.
    g00 = np.dot(e0, e0)
    g01 = np.dot(e0, e1)
    g11 = np.dot(e1, e1)
    p0 = proj @ e0
    p1 = proj @ e1
    det = g00 * g11 - g01 * g01
    s = (g11 * p0 - g01 * p1) / det
    t = (g00 * p1 - g01 * p0) / det
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)

    plane_d2 = (h * h) / n_sq
    edge_d2 = np.minimum(
        _point_segment_dist2(points, a, b),
        np.minimum(_point_segment_dist2(points, b, c),
                   _point_segment_dist2(points, a, c)))
    return np.where(inside, plane_d2, edge_d2)


def _point_segment_dist2(points, a, b):
    ab = b - a
    t = np.clip((points - a) @ ab / np.dot(ab, ab), 0.0, 1.0)
    closest = a + t[:, None] * ab
    diff = points - closest
    return np.einsum("ij,ij->i", diff, diff)


def query_points(cage, n, seed):
    """Random points around a cage, and points on its faces, edges and
    vertices, shuffled together."""
    rng = np.random.default_rng(seed)
    v, tri = cage.vertices, cage.triangles
    lo, hi = cage.bbox()
    k = rng.integers(0, len(tri), n)
    corners = v[tri[k]]                                  # (n, 3, 3)
    s = rng.uniform(0.0, 1.0, (n, 1))
    pts = np.concatenate([
        rng.uniform(lo - (hi - lo), hi + (hi - lo), (n, 3)),    # around
        np.einsum("pk,pkj->pj", rng.dirichlet(np.ones(3), n), corners),
        corners[:, 0] + s * (corners[:, 1] - corners[:, 0]),     # on edges
        v[rng.integers(0, len(v), n)],
    ])
    return pts[rng.permutation(len(pts))]


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


class TestSurfaceDistanceChunks:
    @settings(max_examples=30, deadline=None)
    @given(resolution=st.integers(1, 3), jiggle=st.booleans(),
           n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_triangle_reference_exactly(self, resolution,
                                                        jiggle, n, seed):
        rng = np.random.default_rng(seed)
        cage = build_template_cage(rng.normal(size=(20, 3)),
                                   resolution=resolution)
        if jiggle:
            cage = cage.with_vertices(
                cage.vertices + 0.02 * cage.bbox_diagonal()
                * rng.normal(size=cage.vertices.shape))
        for c in (cage, unit_tetrahedron()):
            pts = query_points(c, n, seed % 1000)
            for p in (pts, pts[:1]):
                assert np.array_equal(surface_distance(p, c),
                                      surface_distance_per_triangle(p, c))

    @staticmethod
    def jiggled_box(rng):
        # Jiggled, so that the dot products have three nonzero terms,
        # whose rounding depends on the path BLAS takes.
        cage = box_cage(np.zeros(3), np.ones(3), resolution=2)
        return cage.with_vertices(
            cage.vertices + 0.02 * rng.normal(size=cage.vertices.shape))

    @pytest.mark.parametrize("rows", [2, 7, 96])
    def test_chunk_size_invariance(self, monkeypatch, rows):
        rng = np.random.default_rng(3)
        cage = self.jiggled_box(rng)
        pts = rng.uniform(-0.5, 1.5, (97, 3))
        d_default = surface_distance(pts, cage)
        monkeypatch.setattr(cage_module, "CHUNK_PAIRS",
                            rows * len(cage.triangles))
        assert np.array_equal(surface_distance(pts, cage), d_default)

    def test_a_one_row_tail_matches_the_reference(self, monkeypatch):
        # p points in chunks of p - 1 rows leave point p - 1 alone.
        rng = np.random.default_rng(3)
        cage = self.jiggled_box(rng)
        pts = rng.uniform(-0.5, 1.5, (40, 3))
        for p in range(3, len(pts) + 1):
            monkeypatch.setattr(cage_module, "CHUNK_PAIRS",
                                (p - 1) * len(cage.triangles))
            assert np.array_equal(
                surface_distance(pts[:p], cage),
                surface_distance_per_triangle(pts[:p], cage))

    @pytest.mark.parametrize("resolution", [3, 6])
    def test_scratch_memory_flat_in_point_count(self, resolution):
        # Scratch is the traced peak beyond the returned distances; chunks
        # of CHUNK_PAIRS pairs bound it whatever the point count.
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=resolution)
        scratch = []
        for n in (1000, 4000):
            pts = np.random.default_rng(n).uniform(-0.9, 0.9, (n, 3))
            tracemalloc.start()
            try:
                d = surface_distance(pts, cage)
                scratch.append(tracemalloc.get_traced_memory()[1] - d.nbytes)
            finally:
                tracemalloc.stop()
        assert max(scratch) < 6 * 2**20
        assert abs(scratch[1] - scratch[0]) < 0.1 * scratch[0]
