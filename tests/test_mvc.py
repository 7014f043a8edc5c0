import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cagewarp import mvc
from cagewarp.cage import (CageMesh, TriangleMesh, box_cage,
                           build_template_cage)
from cagewarp.errors import NearSurfaceError, TopologyMismatchError
from cagewarp.mvc import MVCWeights, deform_points, mvc_weights

import mvc_reference
from conftest import cage_pair, traced
from jacobian_oracle import mvc_gradient


def regular_tetrahedron():
    vertices = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    triangles = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return CageMesh(vertices, triangles)


def relabelled(cage, seed):
    """The same cage with its vertices numbered in a random order."""
    perm = np.random.default_rng(seed).permutation(len(cage.vertices))
    vertices = np.empty_like(cage.vertices)
    vertices[perm] = cage.vertices
    return CageMesh(vertices, perm[cage.triangles])


def interior_points(cage, n, seed, margin=0.25):
    """Random points comfortably inside a box-shaped cage."""
    lo, hi = cage.bbox()
    rng = np.random.default_rng(seed)
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(n, 3))


class TestWeights:
    def test_tet_centroid_is_quarter(self):
        tet = regular_tetrahedron()
        w = mvc_weights(np.zeros((1, 3)), tet).weights
        assert np.allclose(w, 0.25, rtol=0, atol=1e-14)

    def test_octahedron_centroid_is_sixth(self):
        # Vertex-transitive cage: the centroid weights every vertex equally.
        vertices = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0],
                             [0, -1, 0], [0, 0, 1], [0, 0, -1]])
        triangles = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                              [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
        octa = CageMesh(vertices, triangles)
        w = mvc_weights(np.zeros((1, 3)), octa).weights
        assert np.allclose(w, 1.0 / 6.0, rtol=0, atol=1e-14)

    def test_box_center_respects_triangulation_symmetry(self):
        # Face quads are split along a diagonal, so the cage is not
        # vertex-transitive: the two corners lying on three diagonals get
        # one weight, the remaining six another.
        cage = box_cage(-np.ones(3), np.ones(3), resolution=1)
        w = mvc_weights(np.zeros((1, 3)), cage).weights[0]
        hi = [i for i in range(8) if np.isclose(w[i], w.max(), atol=1e-13)]
        lo = [i for i in range(8) if i not in hi]
        assert len(hi) == 2 and len(lo) == 6
        assert np.allclose(w[lo], w[lo[0]], rtol=0, atol=1e-13)
        assert np.isclose(w.sum(), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lo=hnp.arrays(np.float64, 3, elements=st.floats(-100, 100)),
           extent=hnp.arrays(np.float64, 3, elements=st.floats(0.5, 5)),
           resolution=st.integers(1, 3),
           fractions=hnp.arrays(np.float64, st.tuples(st.integers(1, 40),
                                                      st.just(3)),
                                elements=st.floats(0.0, 1.0)))
    def test_partition_of_unity_and_reproduction(self, lo, extent,
                                                 resolution, fractions):
        # A template cage around a random box, queried inside the box.
        box = np.stack([lo, lo + extent])
        cage = build_template_cage(box, resolution=resolution)
        pts = lo + fractions * extent
        mw = mvc_weights(pts, cage)
        assert np.allclose(mw.weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        recon = mw.weights @ cage.vertices
        diag = cage.bbox_diagonal()
        assert np.max(np.abs(recon - pts)) < 1e-10 * diag

    def test_reproduction_outside_cage(self):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=2)
        rng = np.random.default_rng(2)
        pts = rng.uniform(1.2, 3.0, size=(50, 3)) * \
            rng.choice([-1.0, 1.0], size=(50, 3))
        mw = mvc_weights(pts, cage)
        recon = mw.weights @ cage.vertices
        assert np.max(np.abs(recon - pts)) < 1e-8 * cage.bbox_diagonal()

    def test_positive_inside_convex(self):
        rng = np.random.default_rng(3)
        cage = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        pts = interior_points(cage, 300, seed=4, margin=0.05)
        w = mvc_weights(pts, cage).weights
        assert w.min() > -1e-12

    def test_vertex_snap(self):
        tet = regular_tetrahedron()
        for j in range(4):
            x = tet.vertices[j] + 1e-13
            w = mvc_weights(x[None], tet).weights[0]
            expected = np.zeros(4)
            expected[j] = 1.0
            assert np.array_equal(w, expected)

    def test_on_face_barycentric(self):
        tet = regular_tetrahedron()
        t = tet.triangles[2]
        bary = np.array([0.2, 0.5, 0.3])
        x = bary @ tet.vertices[t]
        w = mvc_weights(x[None], tet).weights[0]
        expected = np.zeros(4)
        expected[t] = bary
        assert np.allclose(w, expected, rtol=0, atol=1e-12)
        # Only the face's corners carry weight.
        others = np.setdiff1d(np.arange(4), t)
        assert np.all(w[others] == 0.0)

    def test_on_edge_midpoint(self):
        tet = regular_tetrahedron()
        x = 0.5 * (tet.vertices[0] + tet.vertices[1])
        w = mvc_weights(x[None], tet).weights[0]
        expected = np.array([0.5, 0.5, 0.0, 0.0])
        assert np.allclose(w, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cage", [regular_tetrahedron(),
                                      box_cage(-np.ones(3), np.ones(3),
                                               resolution=2)],
                             ids=["tetrahedron", "box"])
    def test_surface_rows_in_a_batch_match_single_points(self, cage):
        # Interior, on-face, on-edge and vertex-snapped points on several
        # faces, interleaved in one call, give the rows of one-point calls.
        rng = np.random.default_rng(21)
        pts = []
        for t in cage.triangles[::max(1, len(cage.triangles) // 5)]:
            corners = cage.vertices[t]
            pts.append(rng.dirichlet(np.ones(3)) @ corners)   # on the face
            pts.append(0.5 * (corners[0] + corners[2]))         # on an edge
            pts.append(corners[1] + 1e-13)                      # at a vertex
            pts.append(0.9 * corners.mean(axis=0))              # inside
        pts = np.array(pts)
        batch = mvc_weights(pts, cage).weights
        for p, x in enumerate(pts):
            assert np.array_equal(batch[p], mvc_weights(x[None], cage).weights[0])
        # Only the interior points (every fourth) weight every vertex.
        has_zero = np.any(batch == 0.0, axis=1)
        assert np.array_equal(has_zero, np.arange(len(pts)) % 4 != 3)

    def test_interior_rows_of_a_multi_chunk_batch_match_single_points(self):
        # The accumulated block is summed over contiguous rows, so a row
        # does not depend on the points it shares a chunk with.
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=6)
        rows = mvc.CHUNK_PAIRS // len(cage.triangles)
        pts = interior_points(cage, 2 * rows + 17, seed=22)
        batch = mvc_weights(pts, cage).weights
        for p, x in enumerate(pts):
            single = mvc_weights(x[None], cage).weights[0]
            assert np.array_equal(batch[p], single)

    @settings(max_examples=25, deadline=None)
    @given(resolution=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_corner_and_triangle_order_do_not_matter(self, resolution, seed):
        # Rotating a triangle's corners keeps its winding but moves each
        # edge to another corner slot; the per-edge terms must follow.
        rng = np.random.default_rng(seed)
        cage = build_template_cage(rng.normal(size=(20, 3)),
                                   resolution=resolution)
        n_tri = len(cage.triangles)
        shift = rng.integers(0, 3, size=n_tri)
        rotated = cage.triangles[np.arange(n_tri)[:, None],
                                 (np.arange(3) + shift[:, None]) % 3]
        reordered = CageMesh(cage.vertices, rotated[rng.permutation(n_tri)])
        pts = interior_points(cage, 30, seed=seed % 1000)
        w0 = mvc_weights(pts, cage).weights
        w1 = mvc_weights(pts, reordered).weights
        assert np.max(np.abs(w1 - w0)) <= 1e-14

    def test_similarity_invariance(self):
        # Weights are invariant under scaling + rotation + translation of
        # the query point together with the cage.
        rng = np.random.default_rng(5)
        cage = build_template_cage(rng.normal(size=(40, 3)), resolution=2)
        pts = interior_points(cage, 60, seed=6)
        w0 = mvc_weights(pts, cage).weights

        q = rng.normal(size=4)
        from cagewarp.rotations import quat_to_matrix
        R = quat_to_matrix(q / np.linalg.norm(q))
        s, t = 2.7, np.array([5.0, -3.0, 11.0])
        cage2 = cage.with_vertices(s * cage.vertices @ R.T + t)
        w1 = mvc_weights(s * pts @ R.T + t, cage2).weights
        assert np.allclose(w0, w1, rtol=0, atol=1e-9)

    def test_continuity_across_plane_extension(self):
        # The supporting plane of a top face extends outside the box; the
        # weight field must be continuous across that extension. At 1e-10
        # this holds only through the long-double rescue of near-coplanar
        # (point, triangle) pairs.
        cage = box_cage(np.zeros(3), np.ones(3), resolution=2)
        base = np.array([2.5, 0.4, 1.0])     # on the z = 1 plane, x > 1
        for eps in (1e-9, 1e-10):
            pts = np.array([base - [0, 0, eps], base, base + [0, 0, eps]])
            w = mvc_weights(pts, cage).weights
            assert np.all(np.isfinite(w))
            assert np.max(np.abs(w[0] - w[2])) < 1e-5
            assert np.max(np.abs(w[1] - w[2])) < 1e-5

    def test_chunk_size_invariance(self, monkeypatch):
        rng = np.random.default_rng(7)
        cage = build_template_cage(rng.normal(size=(25, 3)), resolution=2)
        pts = interior_points(cage, 97, seed=8)
        w_default = mvc_weights(pts, cage).weights
        # 7-row chunks.
        monkeypatch.setattr(mvc, "CHUNK_PAIRS", 7 * len(cage.triangles))
        w_small = mvc_weights(pts, cage).weights
        assert np.array_equal(w_default, w_small)

    @pytest.mark.parametrize("resolution", [3, 6])
    def test_scratch_memory_flat_in_point_count(self, resolution):
        # Scratch is the traced peak beyond the returned weights; chunks
        # of CHUNK_PAIRS pairs bound it whatever the point count.
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=resolution)
        scratch = []
        for n in (1000, 4000):
            pts = interior_points(cage, n, seed=n)
            peak, kept = traced(lambda: mvc_weights(pts, cage).weights)
            scratch.append(peak - kept)
        assert max(scratch) < 32 * 2**20
        assert abs(scratch[1] - scratch[0]) < 0.1 * scratch[0]

    def test_bad_shape(self):
        tet = regular_tetrahedron()
        with pytest.raises(ValueError):
            mvc_weights(np.zeros((4, 2)), tet)

    @pytest.mark.parametrize("far", [1e7, 1e12])
    def test_vanishing_weights_past_the_first_chunk_raise(self, far):
        # Every triangle's contribution is dropped for such a point, so
        # its row's total and largest weight are both zero.
        cage = box_cage(np.zeros(3), np.ones(3), resolution=1)
        pts = np.full((6001, 3), 0.5)
        pts[6000] = (far, 0.3, 0.2)
        assert mvc.CHUNK_PAIRS // len(cage.triangles) < 6000
        with pytest.raises(ValueError, match="point index 6000;"):
            mvc_weights(pts, cage)

    @pytest.mark.parametrize("far", [1e4, 1e5, 1e6])
    def test_rows_that_miss_their_point_past_the_first_chunk_raise(self, far):
        # Such rows are finite with a nonzero total, but w @ V misses the
        # point by about two thirds of its distance from the cage.
        cage = box_cage(np.zeros(3), np.ones(3), resolution=1)
        pts = np.full((6001, 3), 0.5)
        pts[6000] = (far, 0.3, 0.2)
        assert mvc.CHUNK_PAIRS // len(cage.triangles) < 6000
        with pytest.raises(ValueError, match="point index 6000;"):
            mvc_weights(pts, cage)

    @pytest.mark.parametrize("x, where", [
        ((0.2, 0.3, 0.4), "inside"), ((1e4, 0.3, 0.2), "too far outside")])
    def test_a_row_that_misses_says_where_its_point_is(self, x, where,
                                                       monkeypatch):
        # The second row is rolled by one vertex, so it misses its point.
        cage = box_cage(np.zeros(3), np.ones(3), resolution=1)
        kernel = mvc._weights_chunk

        def skewed(x, cage, table, incidence, w, buf):
            kernel(x, cage, table, incidence, w, buf)
            w[1] = np.roll(w[1], 1)

        monkeypatch.setattr(mvc, "_weights_chunk", skewed)
        with pytest.raises(ValueError, match=f"point index 1; the query "
                                             f"point is {where} the cage"):
            mvc_weights(np.array([(0.5, 0.5, 0.5), x]), cage)

    @pytest.mark.parametrize("resolution", [1, 3, 6])
    def test_rows_up_to_a_thousand_diagonals_out_reproduce(self, resolution):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=resolution)
        diag = cage.bbox_diagonal()
        k = np.array([1.0, 10.0, 100.0, 1000.0])[:, None] * diag
        pts = np.concatenate([k * [1, 0, 0] + [0.5, 0.3, 0.2],
                              k * [0, -1, 0] + [0.3, 0, 0.7],
                              k * np.full(3, 3 ** -0.5) + 1.0])
        w = mvc_weights(pts, cage).weights
        miss = np.linalg.norm(w @ cage.vertices - pts, axis=1)
        assert np.all(miss <= 1e-8 * np.linalg.norm(pts - 0.5, axis=1))


class TestInPlaceKernel:
    """mvc._weights_chunk writes a chunk's arrays into one reused buffer;
    mvc_reference computes the same sums as plain expressions."""

    @staticmethod
    def awkward_points(cage, seed):
        """Inside, outside, at and next to vertices, on edges, next to
        faces, and just off a face's plane outside the face, where pairs
        take the long-double rescue."""
        rng = np.random.default_rng(seed)
        lo, hi = cage.bbox()
        v, t = cage.vertices, cage.triangles
        a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        return np.concatenate([
            rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo),
                        (400, 3)),
            rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), (60, 3)),
            v, v + 1e-12 * rng.normal(size=v.shape),
            a + rng.uniform(size=(len(t), 1)) * (b - a),
            (a + b + c) / 3 + 1e-9 * rng.normal(size=a.shape),
            a + 2.0 * (b - a) + 1e-8 * normal])

    @pytest.mark.parametrize("resolution", [1, 2, 3, 6])
    def test_matches_the_expression_form_bit_for_bit(self, resolution,
                                                     monkeypatch):
        rng = np.random.default_rng(resolution)
        cage = build_template_cage(rng.normal(size=(30, 3)),
                                   resolution=resolution)
        deformed = TriangleMesh(1.1 * cage.vertices, cage.triangles)
        pts = self.awkward_points(cage, resolution)
        refined = []
        kernel = mvc._spherical_triangles
        monkeypatch.setattr(mvc, "_spherical_triangles", lambda u, *a: (
            refined.append(u.dtype == np.longdouble) or kernel(u, *a)))
        got = mvc_weights(pts, cage).weights, mvc_weights(pts, cage,
                                                          deformed)
        assert any(refined)
        monkeypatch.setattr(
            mvc, "_weights_chunk",
            lambda x, cage, table, incidence, w, buf:
            mvc_reference.weights_chunk(x, cage, table, incidence, w))
        want = mvc_weights(pts, cage).weights, mvc_weights(pts, cage,
                                                           deformed)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestEdgeTable:
    @staticmethod
    def edge_table_by_rows(tri):
        """Reference: np.unique over the sorted vertex pairs as rows."""
        a, b = tri[:, [1, 2, 0]].T, tri[:, [2, 0, 1]].T
        pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1)
        edges, opposite = np.unique(pairs.reshape(-1, 2), axis=0,
                                    return_inverse=True)
        return edges, opposite.reshape(3, -1)

    @pytest.mark.parametrize("cage", [
        box_cage(np.zeros(3), np.ones(3), 1),
        box_cage(np.zeros(3), np.ones(3), 3),
        box_cage(np.zeros(3), np.ones(3), 6),
        cage_pair(seed=5, resolution=3)[1],
        regular_tetrahedron(),
        relabelled(box_cage(np.zeros(3), np.ones(3), 3), seed=9),
    ], ids=["res1", "res3", "res6", "jiggled", "tetrahedron", "relabelled"])
    def test_matches_unique_rows(self, cage):
        table = cage.edges
        edges, opposite = self.edge_table_by_rows(cage.triangles)
        assert table.pairs.dtype == edges.dtype
        assert np.array_equal(table.pairs, edges)
        assert np.array_equal(table.opposite, opposite)
        # 3T corners see each of the 3T / 2 edges twice.
        assert len(edges) == 1.5 * len(cage.triangles)


class TestDeformPoints:
    def test_identity_cage_returns_points(self):
        rng = np.random.default_rng(9)
        cage = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        pts = interior_points(cage, 100, seed=10)
        mw = mvc_weights(pts, cage)
        out = deform_points(mw, cage)
        assert np.max(np.abs(out - pts)) < 1e-10 * cage.bbox_diagonal()

    def test_affine_deformation_reproduced(self):
        rng = np.random.default_rng(11)
        cage = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        pts = interior_points(cage, 100, seed=12)
        mw = mvc_weights(pts, cage)
        A = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        deformed = TriangleMesh(cage.vertices @ A.T + b, cage.triangles)
        out = deform_points(mw, deformed)
        expected = pts @ A.T + b
        assert np.max(np.abs(out - expected)) < 1e-9 * cage.bbox_diagonal()

    def test_topology_mismatch(self):
        rng = np.random.default_rng(13)
        cage = build_template_cage(rng.normal(size=(30, 3)), resolution=2)
        other = build_template_cage(rng.normal(size=(30, 3)), resolution=3)
        mw = mvc_weights(interior_points(cage, 5, seed=14), cage)
        with pytest.raises(TopologyMismatchError):
            deform_points(mw, other)


class TestMappedPoints:
    """mvc_weights(points, cage, deformed) maps each chunk's rows through
    the deformed cage as it goes, without a (P, V) matrix."""

    @staticmethod
    def scene():
        cage = box_cage(-np.ones(3), np.ones(3), resolution=6)
        rows = mvc.CHUNK_PAIRS // len(cage.triangles)
        pts = interior_points(cage, 3 * rows + 5, seed=31)
        # A vertex-snap row ends the first chunk and an on-face row starts
        # the second.
        pts[rows - 1] = cage.vertices[40] + 1e-13
        face = cage.triangles[100]
        pts[rows] = np.array([0.2, 0.5, 0.3]) @ cage.vertices[face]
        v = cage.vertices
        deformed = TriangleMesh(v + 0.1 * np.sin(2 * v[:, [1, 2, 0]]),
                                cage.triangles)
        return cage, deformed, pts, rows, face

    def test_matches_the_dense_mapping(self):
        cage, deformed, pts, rows, face = self.scene()
        assert len(pts) > 3 * rows
        mapped = mvc_weights(pts, cage, deformed)
        dense = mvc_weights(pts, cage).weights
        # One mapping rule: chunk by chunk or all rows at once, the same
        # bits.
        assert np.array_equal(
            mapped, deform_points(MVCWeights(dense, cage), deformed))
        assert np.array_equal(mapped[rows - 1], deformed.vertices[40])
        assert np.allclose(mapped[rows],
                           np.array([0.2, 0.5, 0.3])
                           @ deformed.vertices[face],
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("far", [1e4, 1e7])
    def test_a_far_row_past_the_first_chunk_raises_with_its_index(self, far):
        # 1e7 diagonals out the row vanishes; 1e4 out it misses its point.
        cage, deformed, pts, rows, _ = self.scene()
        pts[2 * rows + 3] = (far, 0.3, 0.2)
        with pytest.raises(ValueError, match=f"point index {2 * rows + 3};"):
            mvc_weights(pts, cage, deformed)

    def test_topology_mismatch(self):
        cage, _, pts, _, _ = self.scene()
        other = box_cage(-np.ones(3), np.ones(3), resolution=5)
        with pytest.raises(TopologyMismatchError):
            mvc_weights(pts, cage, other)

    @pytest.mark.parametrize("resolution", [3, 6])
    def test_scratch_memory_flat_in_point_count(self, resolution):
        # Scratch is the traced peak beyond the returned (P, 3) points.
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=resolution)
        deformed = TriangleMesh(1.1 * cage.vertices, cage.triangles)
        scratch = []
        for n in (1000, 8000):
            pts = interior_points(cage, n, seed=n)
            peak, kept = traced(lambda: mvc_weights(pts, cage, deformed))
            scratch.append(peak - kept)
        # Dense weights would add 7000 V-wide rows: 5.5 MiB at resolution
        # 3, 11.6 MiB at 6.
        assert abs(scratch[1] - scratch[0]) < 0.1 * scratch[0]

    @pytest.mark.parametrize("resolution", [2, 3, 6])
    def test_scratch_of_one_chunk(self, resolution):
        # A chunk's arrays live in one buffer of 4V + 12E items a point,
        # about twenty (T, P) arrays of CHUNK_PAIRS pairs (2.5 MiB), and
        # no temporary outside it is larger than a (rows, V) row block.
        # The same arrays allocated one by one traced 3.2-3.3 MiB here.
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=resolution)
        deformed = TriangleMesh(1.1 * cage.vertices, cage.triangles)
        pts = interior_points(cage, 4000, seed=resolution)
        peak, kept = traced(lambda: mvc_weights(pts, cage, deformed))
        assert peak - kept <= 2.9 * 2**20


class TestMapRows:
    """Canary for mvc._map_rows, the one rule that maps MVC rows to
    positions. That numpy's einsum sums a row the same way in any block,
    at any offset or alignment, is an implementation detail: a numpy
    release that changes its loop fails here rather than silently
    changing output bits."""

    @pytest.mark.parametrize("resolution", [2, 3, 6])   # V = 26, 56, 218
    def test_a_row_has_the_same_bits_in_any_block(self, resolution):
        vertices = box_cage(-np.ones(3), np.ones(3), resolution).vertices
        rng = np.random.default_rng(resolution)
        n = 400
        rows = rng.normal(size=(n, len(vertices)))
        want = mvc._map_rows(rows, vertices)
        # One float past the buffer's start: the whole array is off the
        # allocator's alignment, and each row off it by its own offset.
        shifted = np.empty(rows.size + 1)[1:].reshape(rows.shape)
        shifted[...] = rows
        for block in (1, 17, 151, n):
            for first in (0, 5):
                got = np.empty_like(want)
                # The leading rows through the returned array, the rest
                # into out, as mvc_weights writes its chunks.
                got[:first] = mvc._map_rows(shifted[:first], vertices)
                for lo in range(first, n, block):
                    mvc._map_rows(shifted[lo:lo + block], vertices,
                                  out=got[lo:lo + block])
                bad = np.flatnonzero(np.any(got != want, axis=1))
                assert not len(bad), (
                    f"numpy {np.__version__}: einsum mapped row {bad[0]} "
                    f"in blocks of {block} from row {first} to other bits "
                    f"than in one block of {n}; MVC outputs would depend "
                    f"on the chunk grid")

    def test_the_layout_of_the_rows_does_not_matter(self):
        vertices = box_cage(-np.ones(3), np.ones(3), 3).vertices
        rows = np.random.default_rng(7).normal(size=(50, len(vertices)))
        want = mvc._map_rows(rows, vertices)
        assert np.array_equal(
            mvc._map_rows(np.asfortranarray(rows), vertices), want)
        assert np.array_equal(
            mvc._map_rows(rows, np.asfortranarray(vertices)), want)


class TestGradient:
    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(15)
        cage = build_template_cage(rng.normal(size=(40, 3)), resolution=2)
        pts = interior_points(cage, 40, seed=16)
        grad = mvc_gradient(pts, cage)
        diag = cage.bbox_diagonal()
        h = 1e-6 * diag
        fd = np.zeros_like(grad)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            wp = mvc_weights(pts + step, cage).weights
            wm = mvc_weights(pts - step, cage).weights
            fd[:, :, axis] = (wp - wm) / (2 * h)
        scale = np.abs(grad).max()
        assert np.max(np.abs(grad - fd)) < 1e-6 * scale

    def test_gradient_identities(self):
        rng = np.random.default_rng(17)
        cage = build_template_cage(rng.normal(size=(60, 3)), resolution=3)
        pts = interior_points(cage, 80, seed=18)
        grad = mvc_gradient(pts, cage)
        # Differentiated partition of unity: rows of gradients sum to zero.
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-7
        # Differentiated reproduction: sum_i v_i grad(omega_i)^T = I.
        lhs = np.einsum("iv,pvg->pig", cage.vertices.T, grad)
        assert np.max(np.abs(lhs - np.eye(3))) < 1e-7

    def test_near_surface_raises(self):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=1)
        x = np.array([[0.5, 0.5, 1.0 - 1e-12]])
        with pytest.raises(NearSurfaceError):
            mvc_gradient(x, cage)

    def test_gradient_outside_cage(self):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=2)
        pts = np.array([[1.7, 0.3, 0.4], [-0.9, 1.5, 2.0]])
        grad = mvc_gradient(pts, cage)
        h = 1e-6
        fd = np.zeros_like(grad)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            fd[:, :, axis] = (mvc_weights(pts + step, cage).weights
                              - mvc_weights(pts - step, cage).weights) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-6 * np.abs(grad).max()

    def test_chunk_size_invariance(self):
        rng = np.random.default_rng(19)
        cage = build_template_cage(rng.normal(size=(20, 3)), resolution=2)
        pts = interior_points(cage, 33, seed=20)
        g1 = mvc_gradient(pts, cage)
        g2 = mvc_gradient(pts, cage, chunk_size=5)
        assert np.array_equal(g1, g2)
