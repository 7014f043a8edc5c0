import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cagewarp import cage as cage_module
from cagewarp.cage import (
    CageMesh,
    TriangleMesh,
    as_points,
    bbox_of,
    box_cage,
    build_template_cage,
    inflate_degenerate_axes,
    interpolate_cage,
    read_cage_obj,
    read_deformed_cage,
    read_obj_arrays,
    surface_distance,
    triangle_areas,
    winding_numbers,
    write_cage_obj,
)
from cagewarp.errors import NonManifoldCageError, TopologyMismatchError
from cagewarp.fitting import alignment_loss, fit_deformed_cage
from cagewarp.metrics import chamfer_distance, sample_points, write_point_ply
from cagewarp.mvc import mvc_weights
from cagewarp.transport import build_jacobian_field, jacobian_fd

import cage_reference
from conftest import random_cloud, traced


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


def rowwise_dot(p, q):
    """Dot product of each row pair, or of two vectors, summed in
    component order."""
    return (p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1]
            + p[..., 2] * q[..., 2])


def winding_numbers_per_triangle(points, cage):
    """Reference for winding_numbers: one pass per triangle."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    total = np.zeros(len(points))
    v = cage.vertices
    for t0, t1, t2 in cage.triangles:
        a = v[t0] - points
        b = v[t1] - points
        c = v[t2] - points
        la = np.sqrt(rowwise_dot(a, a))
        lb = np.sqrt(rowwise_dot(b, b))
        lc = np.sqrt(rowwise_dot(c, c))
        numer = rowwise_dot(a, np.cross(b, c))
        denom = (la * lb * lc + rowwise_dot(a, b) * lc
                 + rowwise_dot(b, c) * la + rowwise_dot(c, a) * lb)
        total += 2.0 * np.arctan2(numer, denom)
    return total / (4.0 * np.pi)


def same_bits(a, b):
    """Equal to the bit, the sign of a zero included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _point_triangle_dist2(points, a, b, c):
    """Squared distances from points (P, 3) to triangle (a, b, c).

    Interior case: distance to the supporting plane when the projection's
    barycentric coordinates are all non-negative. As the normal is
    orthogonal to e0 and e1, they come from the offset's own dot products
    with e0 and e1, with no projection. Otherwise the closest point lies
    on the boundary, so take the minimum over the three edges.
    """
    e0 = b - a
    e1 = c - a
    n = np.cross(e0, e1)
    n_sq = rowwise_dot(n, n)
    d = points - a
    h = rowwise_dot(d, n)           # (P,) signed plane offset times |n|
    # Barycentric via the 2x2 Gram system.
    g00 = rowwise_dot(e0, e0)
    g01 = rowwise_dot(e0, e1)
    g11 = rowwise_dot(e1, e1)
    p0 = rowwise_dot(d, e0)
    p1 = rowwise_dot(d, e1)
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
    d = points - a
    t = np.clip(rowwise_dot(d, ab) / rowwise_dot(ab, ab), 0.0, 1.0)
    diff = d - t[:, None] * ab
    return rowwise_dot(diff, diff)


def closest_point_on_triangle(p, a, b, c):
    """Closest point to p on triangle (a, b, c), found by the Voronoi
    region of the triangle that p lies in (Ericson, Real-Time Collision
    Detection, 2004, section 5.1.5)."""
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0.0 and d2 <= 0.0:
        return a                                    # vertex region a
    bp = p - b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0.0 and d4 <= d3:
        return b                                    # vertex region b
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        return a + d1 / (d1 - d3) * ab              # edge region ab
    cp = p - c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0.0 and d5 <= d6:
        return c                                    # vertex region c
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        return a + d2 / (d2 - d6) * ac              # edge region ac
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + w * (c - b)                      # edge region bc
    denom = 1.0 / (va + vb + vc)                    # face region
    return a + ab * (vb * denom) + ac * (vc * denom)


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


def _axis_bounds():
    """(lo, hi) of one box axis: a point, a signed zero at either end, or
    an extent anywhere from far below to far above the other axes'."""
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    zero = st.sampled_from([0.0, -0.0])
    return st.one_of(
        coord.map(lambda x: (x, x)),
        st.tuples(zero | st.floats(-1e3, 0.0), zero),
        st.tuples(zero, zero | st.floats(0.0, 1e3)),
        st.tuples(coord, st.floats(-15.0, 3.0)).map(
            lambda xe: (xe[0], xe[0] + 10.0 ** xe[1])))


class TestTemplateReference:
    """box_cage and inflate_degenerate_axes give the bits of their loop
    and branch forms in cage_reference."""

    @pytest.mark.parametrize("r", range(1, 9))
    def test_box_cage_matches_the_loop_form(self, r):
        for lo, hi in [(np.zeros(3), np.ones(3)),
                       ([-0.0, -2.5, 1e-3], [3.0, 1.0, 7.0]),
                       ([-1e3, 0.1, -3.0], [1e-9, 0.3, -2.9])]:
            cage = box_cage(lo, hi, resolution=r)
            vertices, triangles = cage_reference.box_cage(lo, hi, r)
            assert cage.vertices.tobytes() == vertices.tobytes()
            assert cage.triangles.tobytes() == triangles.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_axis_bounds(), min_size=3, max_size=3))
    def test_inflate_matches_the_branch_form(self, bounds):
        lo, hi = np.array(bounds).T
        got = inflate_degenerate_axes(lo, hi)
        want = cage_reference.inflate_degenerate_axes(lo, hi)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


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

    def test_unused_vertex_rejected(self):
        # A stray vertex would set the diagonal that tolerances scale by;
        # the first of two is named. A plain mesh (a target) keeps them.
        tet = unit_tetrahedron()
        stray = np.vstack([[100.0, 100.0, 100.0], tet.vertices, [-5, 0, 0]])
        with pytest.raises(NonManifoldCageError,
                           match="vertex 0 is used by no triangle"):
            CageMesh(stray, tet.triangles + 1)
        assert TriangleMesh(stray, tet.triangles + 1).bbox_diagonal() > 100

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

    def test_with_vertices_keeps_the_type(self):
        tet = unit_tetrahedron()
        inverted = tet.vertices * [-1.0, 1.0, 1.0]
        with pytest.raises(NonManifoldCageError, match="inward"):
            tet.with_vertices(inverted)
        mesh = TriangleMesh(tet.vertices, tet.triangles).with_vertices(
            inverted)
        assert type(mesh) is TriangleMesh
        assert np.array_equal(mesh.triangles, tet.triangles)
        assert type(tet.with_vertices(2.0 * tet.vertices)) is CageMesh
        with pytest.raises(TopologyMismatchError):
            mesh.with_vertices(inverted[:3])

    def test_edge_table_is_built_once(self):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=2)
        assert cage.edges is cage.edges
        assert len(cage.edges.pairs) == 1.5 * len(cage.triangles)


def closedness_by_directed_keys(triangles, n_vertices):
    """The closedness rule stated on directed edge keys, the reference
    for CageMesh's rule on its edge table: the message CageMesh raises
    for triangles that repeat a vertex, repeat a directed edge or miss
    an edge's reverse, or None."""
    tri = np.asarray(triangles)
    if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
              | (tri[:, 0] == tri[:, 2])):
        return "repeats a vertex"
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    keys = edges[:, 0] * n_vertices + edges[:, 1]
    if len(np.unique(keys)) != len(keys):
        return "inconsistent winding or non-manifold fan"
    rev = edges[:, 1] * n_vertices + edges[:, 0]
    if not np.array_equal(np.sort(keys), np.sort(rev)):
        return "not closed"
    return None


def perturbed(triangles, n_vertices, edits):
    """triangles with each (kind, face, corner, vertex) edit applied."""
    tri = triangles.copy()
    for kind, face, corner, vertex in edits:
        face %= len(tri)
        if kind == "flip":
            tri[face] = tri[face, ::-1]
        elif kind == "delete" and len(tri) > 1:
            tri = np.delete(tri, face, axis=0)
        elif kind == "duplicate":
            tri = np.vstack([tri, tri[face]])
        elif kind == "reverse-duplicate":
            tri = np.vstack([tri, tri[face, ::-1]])
        elif kind == "repoint":
            tri[face, corner] = vertex % n_vertices
    return tri


class TestClosednessRule:
    EDITS = st.tuples(
        st.sampled_from(["flip", "delete", "duplicate", "reverse-duplicate",
                         "repoint"]),
        st.integers(0, 200), st.integers(0, 2), st.integers(0, 200))

    @settings(max_examples=300, deadline=None)
    @given(resolution=st.integers(0, 3),
           edits=st.lists(EDITS, min_size=1, max_size=4))
    def test_matches_the_directed_key_rule(self, resolution, edits):
        cage = unit_tetrahedron() if resolution == 0 \
            else box_cage(np.zeros(3), np.ones(3), resolution)
        tri = perturbed(cage.triangles, len(cage.vertices), edits)
        expected = closedness_by_directed_keys(tri, len(cage.vertices))
        if expected is not None:
            with pytest.raises(NonManifoldCageError, match=expected):
                CageMesh(cage.vertices, tri)
            return
        try:
            CageMesh(cage.vertices, tri)
        except NonManifoldCageError as err:
            # A closed, consistently wound edit may still be inward or
            # leave no volume; those checks come after the edge rule.
            assert not re.search("repeats|inconsistent|not closed",
                                 str(err))

    @pytest.mark.parametrize("edits, expected", [
        ([], None),
        ([("flip", 3, 0, 0)], "inconsistent winding or non-manifold fan"),
        ([("delete", 0, 0, 0)], "not closed"),
        ([("duplicate", 1, 0, 0)], "inconsistent winding or non-manifold fan"),
        ([("reverse-duplicate", 1, 0, 0)],
         "inconsistent winding or non-manifold fan"),
        ([("repoint", 0, 0, 2)], "repeats a vertex"),
    ])
    def test_the_reference_sees_each_edit(self, edits, expected):
        tet = unit_tetrahedron()
        tri = perturbed(tet.triangles, 4, edits)
        assert closedness_by_directed_keys(tri, 4) == expected


@pytest.mark.parametrize("mesh_type", [TriangleMesh, CageMesh])
class TestMalformedInput:
    def test_vertex_shape(self, mesh_type):
        tet = unit_tetrahedron()
        with pytest.raises(ValueError, match=r"vertices must be \(V, 3\)"):
            mesh_type(tet.vertices[:, :2], tet.triangles)

    def test_triangle_shape(self, mesh_type):
        tet = unit_tetrahedron()
        with pytest.raises(ValueError, match=r"triangles must be \(T, 3\)"):
            mesh_type(tet.vertices, tet.triangles.ravel())

    def test_non_finite_vertex(self, mesh_type):
        tet = unit_tetrahedron()
        vertices = tet.vertices.copy()
        vertices[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            mesh_type(vertices, tet.triangles)

    @pytest.mark.parametrize("index", [-1, 4, 9])
    def test_index_out_of_range(self, mesh_type, index):
        tet = unit_tetrahedron()
        tri = tet.triangles.copy()
        tri[0, 0] = index
        error = NonManifoldCageError if mesh_type is CageMesh else ValueError
        with pytest.raises(error, match=r"out of range \[0, 4\)"):
            mesh_type(tet.vertices, tri)


_BOX = box_cage(np.zeros(3), np.ones(3), 1)
_INSIDE = np.array([[0.25, 0.5, 0.5], [0.5, 0.25, 0.75], [0.75, 0.5, 0.25]])
# (argument name, a call that passes x as that argument), for every
# function that takes a point array.
_POINT_INPUTS = {
    "bbox_of": ("points", lambda x, path: bbox_of(x)),
    "build_template_cage": ("points",
                            lambda x, path: build_template_cage(x)),
    "surface_distance": ("points", lambda x, path: surface_distance(x, _BOX)),
    "winding_numbers": ("points", lambda x, path: winding_numbers(x, _BOX)),
    "mvc_weights": ("points", lambda x, path: mvc_weights(x, _BOX)),
    "jacobian_fd": ("points", lambda x, path: jacobian_fd(x, _BOX, _BOX)),
    "build_jacobian_field": (
        "points", lambda x, path: build_jacobian_field(x, _BOX, _BOX, m=2)),
    "alignment_loss.positions": (
        "positions", lambda x, path: alignment_loss(x, _INSIDE)),
    "alignment_loss.target_points": (
        "target_points", lambda x, path: alignment_loss(_INSIDE, x)),
    "sample_points": ("geometry", lambda x, path: sample_points(x, 2, 0)),
    "chamfer_distance.a": ("a", lambda x, path: chamfer_distance(x, _INSIDE)),
    "chamfer_distance.b": ("b", lambda x, path: chamfer_distance(_INSIDE, x)),
    "write_point_ply": ("points", write_point_ply),
    "fit_deformed_cage.source": (
        "source", lambda x, path: fit_deformed_cage(x, _INSIDE, _BOX)),
    "fit_deformed_cage.target": (
        "target", lambda x, path: fit_deformed_cage(_INSIDE, x, _BOX)),
}
_NOT_POINTS = {
    "vector": lambda: np.array([0.5, 0.5, 0.5]),
    "two-columns": lambda: np.full((4, 2), 0.5),
    "empty": lambda: np.zeros((0, 3)),
    "cloud": lambda: random_cloud(5),
}


class TestPointInputs:
    @pytest.mark.parametrize("kind", _NOT_POINTS)
    @pytest.mark.parametrize("entry", _POINT_INPUTS)
    def test_anything_but_n_by_3_points_is_refused(self, tmp_path, entry,
                                                     kind):
        name, call = _POINT_INPUTS[entry]
        path = tmp_path / "points.ply"
        with pytest.raises(ValueError,
                           match=rf"^{name} must be a non-empty \(N, 3\)"):
            call(_NOT_POINTS[kind](), path)
        assert not path.exists()

    @pytest.mark.parametrize("given", [
        [[1, 2, 3], [4, 5, 6]],
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.arange(6.0).reshape(3, 2).T,
    ], ids=["int-list", "float32", "transposed"])
    def test_a_point_array_comes_back_contiguous_float64(self, given):
        points = as_points(given, "points")
        assert points.dtype == np.float64 and points.flags.c_contiguous
        np.testing.assert_array_equal(points, np.asarray(given, np.float64))

    def test_a_contiguous_float64_array_is_not_copied(self):
        assert as_points(_INSIDE, "points") is _INSIDE


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
        assert type(mid) is TriangleMesh
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

    @pytest.mark.parametrize("text, lineno", [
        ("v 0 0 0\nv 1 0 0\nf 1 2 0\nv 0 1 0\n", 3),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0/1 1/2 2/3\n", 4),
        ("v 0 0 0\nv 1 0 0\nf -3 1 2\nv 0 1 0\n", 3),
        ("v 0 0 0\nv 1 0 zero\nv 0 1 0\nf 1 2 3\n", 2),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n# ok\nf 1 two 3\n", 5),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", 4),
    ], ids=["index-0", "slashed-index-0", "before-vertex-1", "vertex-token",
            "face-token", "two-corners"])
    def test_malformed_record_names_its_line(self, tmp_path, text, lineno):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.obj:{lineno}: "):
            read_obj_arrays(path)

    def test_negative_indices_count_back_from_the_face(self, tmp_path):
        path = tmp_path / "rel.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
                        "v 0 0 1\nf 1 -3 -1\n")
        _, faces = read_obj_arrays(path)
        assert faces.tolist() == [[0, 1, 2], [0, 1, 3]]

    def test_deformed_cage_is_a_mesh(self, tmp_path):
        cage = box_cage(np.zeros(3), np.ones(3), resolution=1)
        path = tmp_path / "mirror.obj"
        write_cage_obj(TriangleMesh(cage.vertices * [-1.0, 1.0, 1.0],
                                    cage.triangles), path)
        mirror = read_deformed_cage(path, cage)
        assert type(mirror) is TriangleMesh
        assert np.array_equal(mirror.triangles, cage.triangles)


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

    @pytest.mark.parametrize("resolution", [0, 1, 2, 3],
                             ids=["tetrahedron", "r1", "r2", "r3"])
    def test_surface_distance_matches_the_closest_point(self, resolution):
        # Oracle: the closest point on a triangle from its Voronoi
        # regions, one point and one triangle at a time. Each triangle is
        # measured on its own, so that a neighbour cannot hide an error.
        rng = np.random.default_rng(resolution)
        if resolution == 0:
            cage = unit_tetrahedron()
        else:
            cage = build_template_cage(rng.normal(size=(20, 3)),
                                       resolution=resolution)
            cage = cage.with_vertices(
                cage.vertices + 0.02 * cage.bbox_diagonal()
                * rng.normal(size=cage.vertices.shape))
        pts = query_points(cage, 25, seed=resolution)
        for t in cage.triangles:
            triangle = TriangleMesh(cage.vertices, t[None])
            oracle = [np.linalg.norm(
                p - closest_point_on_triangle(p, *cage.vertices[t]))
                for p in pts]
            np.testing.assert_allclose(
                surface_distance(pts, triangle), oracle, rtol=0,
                atol=1e-12 * cage.bbox_diagonal())

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
        # whose sum rounds at each step.
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
            peak, kept = traced(lambda: surface_distance(pts, cage))
            scratch.append(peak - kept)
        assert max(scratch) < 6 * 2**20
        assert abs(scratch[1] - scratch[0]) < 0.1 * scratch[0]


class TestWindingNumberChunks:
    @settings(max_examples=30, deadline=None)
    @given(resolution=st.integers(1, 3), jiggle=st.booleans(),
           n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_triangle_reference_exactly(self, resolution,
                                                        jiggle, n, seed):
        # query_points puts points on faces, edges and vertices, where a
        # solid angle is +-pi or 0 and the sign of a zero decides which.
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
                assert same_bits(winding_numbers(p, c),
                                 winding_numbers_per_triangle(p, c))

    @pytest.mark.parametrize("rows", [1, 2, 7, 96])
    def test_chunk_size_invariance(self, monkeypatch, rows):
        rng = np.random.default_rng(4)
        cage = TestSurfaceDistanceChunks.jiggled_box(rng)
        pts = query_points(cage, 25, seed=5)
        w_default = winding_numbers(pts, cage)
        monkeypatch.setattr(cage_module, "CHUNK_PAIRS",
                            rows * len(cage.triangles))
        assert same_bits(winding_numbers(pts, cage), w_default)

    def test_a_one_row_tail_matches_the_reference(self, monkeypatch):
        # p points in chunks of p - 1 rows leave point p - 1 alone, and
        # a one-row chunk must still sum its triangles in order.
        rng = np.random.default_rng(6)
        cage = build_template_cage(rng.normal(size=(20, 3)), resolution=3)
        pts = query_points(cage, 10, seed=7)
        for p in range(2, len(pts) + 1):
            monkeypatch.setattr(cage_module, "CHUNK_PAIRS",
                                (p - 1) * len(cage.triangles))
            assert same_bits(winding_numbers(pts[:p], cage),
                             winding_numbers_per_triangle(pts[:p], cage))

    @pytest.mark.parametrize("resolution", [3, 6])
    def test_scratch_memory_flat_in_point_count(self, resolution):
        # Scratch is the traced peak beyond the returned winding numbers;
        # chunks of CHUNK_PAIRS pairs bound it whatever the point count.
        cage = build_template_cage(np.array([[-1.0] * 3, [1.0] * 3]),
                                   resolution=resolution)
        scratch = []
        for n in (1000, 4000):
            pts = np.random.default_rng(n).uniform(-1.5, 1.5, (n, 3))
            peak, kept = traced(lambda: winding_numbers(pts, cage))
            scratch.append(peak - kept)
        assert max(scratch) < 6 * 2**20
        assert abs(scratch[1] - scratch[0]) < 0.1 * scratch[0]
