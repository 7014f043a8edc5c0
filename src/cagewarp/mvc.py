"""Mean value coordinates for closed triangle cages.

For a query point x and cage vertices v_i, the weight of vertex i is
assembled triangle by triangle from the projection of each triangle onto
the unit sphere around x. With u_i = (v_i - x) / d_i the projected corner
directions, the vector area of the spherical triangle is

    m = 1/2 * sum_i theta_i N_i

where theta_i is the arc angle opposite corner i and N_i the unit normal
of that arc's great-circle plane. Solving [u_0 u_1 u_2] lambda = m and
accumulating w_i += lambda_i / d_i over all triangles yields weights whose
normalization reproduces linear functions exactly: sum_i w_i (v_i - x) = 0
because the per-triangle vector areas of a closed surface cancel.

One routine, _spherical_triangles, turns the unit directions into the
arc angles, the Cramer solution lambda and det [u_0 u_1 u_2]. theta_k
and the cross product u_{k+1} x u_{k+2} depend only on the edge opposite
corner k, and every cage edge borders two triangles, so both are
computed once per unique edge of the cage's edge table (cage.edges)
and gathered to the corners, negated where a triangle runs the edge
backwards (negation and |a - b| = |b - a| are exact). Arrays are
vertex-major, (rows, points) per component, so every gather takes whole
contiguous rows; one sparse product with the (V, 3T) corner incidence
sums the corners' lambda_i / d_i into the weights. The routine runs in float64 over every (point, triangle) pair of a chunk,
and again in long double, one triangle per pair, over the pairs whose
|det| lies in [DET_SKIP, DET_REFINE): near-coplanar pairs, such as
points just off a face's supporting plane, over the face or beyond its
edges, where the float64 solve cancels catastrophically.

Weights are smooth away from the cage surface. Two kinds of rows are
replaced outright: a point within VERTEX_SNAP of a vertex gets that
vertex's unit row, and a point on a face (|det| below DET_SKIP and a
half-sum of arcs within ON_FACE_EPS of pi) gets the barycentric
coordinates of the first such face. The warp's Jacobian is
estimated from these weights by central differences in
transport.jacobian_fd.

Points are evaluated in chunks of about CHUNK_PAIRS (point, triangle)
pairs. Given a deformed copy of the cage, mvc_weights maps each chunk's
rows through it as soon as they are checked, so the rows held at once,
like the kernel's scratch, are bounded by one chunk, whatever the point
count; only a caller that keeps the weights, as the cage fit does, holds
a (P, V) matrix. The kernel's arrays are views into one buffer per call,
4V + 12E floats a point (about twenty (T, P) arrays, 2.5 MiB), that
every chunk reuses (_Scratch), so the allocator never sees them freed
between chunks: arrays freed at a chunk's end can leave the top of
glibc's heap free, which glibc hands back to the OS and faults in again
for the next chunk (61 000 minor faults in one call at 2900 points x 432
triangles, against 640 with the buffer). The kernel sums in cage.dot's
and cage.cross's order, so the buffer does not change a weight's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .cage import (CHUNK_PAIRS, CageMesh, TriangleMesh, as_points,
                   edge_table, winding_numbers)

# Distance below which a query point is treated as sitting on a cage
# vertex, as a fraction of the cage bbox diagonal.
VERTEX_SNAP = 1e-10
# A spherical triangle whose half-angle-sum is within this of pi, and
# whose |det| is below DET_SKIP, contains the query point in its
# supporting triangle: on-surface barycentric case. pi - h grows with the
# square of the distance to the face, so alone it would flag points up to
# ~3e-4 of the triangle's size off it. Arc angles come from chords via
# arcsin, which loses ~sqrt(eps) accuracy near pi (on-edge points), so the
# threshold sits well above that.
ON_FACE_EPS = 1e-7
# |det [u0 u1 u2]| below which a triangle is taken as exactly coplanar
# with the query point (outside it) and contributes nothing.
DET_SKIP = 1e-12
# Pairs with |det| below this are recomputed in extended precision: the
# Cramer solve loses ~eps/|det| digits to cancellation there.
DET_REFINE = 1e-6


@dataclass
class MVCWeights:
    """Normalized mean value coordinates of points with respect to a cage.

    weights[p, i] is the coordinate of query point p for cage vertex i;
    every row sums to one and reproduces the query point against the
    source cage vertices.
    """

    weights: np.ndarray      # (P, V), rows sum to 1
    cage: CageMesh           # source cage the weights were computed against


def mvc_weights(points: np.ndarray, cage: CageMesh,
                deformed: TriangleMesh | None = None):
    """Compute normalized mean value coordinates of points w.r.t. a cage.

    Points may lie anywhere: inside (all weights positive for convex
    cages), on the surface (barycentric limit), or outside (signed
    weights). Evaluation is chunked to about CHUNK_PAIRS (point,
    triangle) pairs; no bit of a row depends on the chunking. A point so
    far outside that its row vanishes or misses it raises ValueError.

    Returns MVCWeights, or, given a deformed copy of the cage, the points
    mapped through it, (P, 3): each chunk's rows are then mapped by
    _map_rows from one reused (rows, V) buffer, so the rows held at once
    are bounded by one chunk and no (P, V) matrix is formed. The mapped
    points equal deform_points(mvc_weights(points, cage), deformed) bit
    for bit.
    """
    points = as_points(points, "points")
    if deformed is not None:
        cage.check_same_topology(deformed)
    tri = cage.triangles
    table = cage.edges
    # Column k*T + t of the corner incidence is corner k of triangle t.
    incidence = sparse.csr_matrix(
        (np.ones(tri.size), (tri.T.ravel(), np.arange(tri.size))),
        shape=(len(cage.vertices), tri.size))
    rows = max(1, CHUNK_PAIRS // max(len(tri), 1))
    centre, diag = 0.5 * sum(cage.bbox()), cage.bbox_diagonal()
    # Every row, or, when mapping, one chunk's rows at a time.
    mapped = None if deformed is None else np.empty((len(points), 3))
    weights = np.empty((len(points) if mapped is None
                        else min(rows, len(points)), len(cage.vertices)))
    buf = _Scratch.buffer(len(cage.vertices), len(table.pairs),
                          min(rows, len(points)))
    for lo in range(0, len(points), rows):
        x = points[lo:lo + rows]
        w = weights[lo:lo + rows] if mapped is None else weights[:len(x)]
        _weights_chunk(x, cage, table, incidence, w, buf)
        total = w.sum(axis=1)
        # A zero total counts too: far enough outside, every triangle's
        # contribution is dropped and the row is all zeros.
        bad = ~np.isfinite(total) \
            | (np.abs(total) <= 1e-12 * np.abs(w).max(axis=1))
        if not np.any(bad):
            w /= total[:, None]
            # Farther out the rows stay finite but stop reproducing their
            # point: on box cages of resolution 1-6 the relative miss was
            # at most 1.1e-9 up to 1e3 diagonals out and 0.67 from 1e4 on.
            miss = np.linalg.norm(_map_rows(w, cage.vertices) - x, axis=1)
            bad = miss > 1e-6 * np.maximum(
                diag, np.linalg.norm(x - centre, axis=1))
        if np.any(bad):
            i = int(np.argmax(bad))
            where = "inside" if winding_numbers(x[i:i + 1], cage)[0] > 0.5 \
                else "too far outside"
            raise ValueError(
                f"mean value weights vanish or miss their point at point "
                f"index {lo + i}; the query point is {where} the cage")
        if mapped is not None:
            _map_rows(w, deformed.vertices, out=mapped[lo:lo + rows])
    return MVCWeights(weights=weights, cage=cage) if mapped is None \
        else mapped


def deform_points(weights: MVCWeights, deformed: TriangleMesh) -> np.ndarray:
    """Map the weights' query points through a deformed copy of the cage,
    by the per-row rule mvc_weights maps its chunks with."""
    weights.cage.check_same_topology(deformed)
    return _map_rows(weights.weights, deformed.vertices)


def _map_rows(w, vertices, out=None):
    """Rows w (P, V) times vertices (V, 3), into out when given: the one
    rule that maps MVC rows to positions. numpy's einsum loop sums each
    row alone and calls no BLAS, whose rounding of a row depends on where
    it falls in the product, so no bit depends on the chunking. The loop,
    and so the sums, follow the operands' layout, hence the C order.
    einsum's loop order is a numpy implementation detail, which the
    canary test test_mvc.TestMapRows pins."""
    return np.einsum("pv,cv->pc", np.ascontiguousarray(w),
                     np.ascontiguousarray(vertices.T), out=out)


class _Scratch(NamedTuple):
    """A chunk's arrays, as blocks of rows of n points in one flat buffer.

    Arrays whose lifetimes do not overlap share a block: the corner cross
    products cr (9T rows) take the place of the edge end directions (6E
    rows; 2E = 3T on a closed cage), the vector area m and a temporary
    (4T rows) that of the edge cross products, and det (T rows) that of
    g. Outside the buffer a chunk allocates only boolean (T, n) masks,
    the (V, n) weight sums and, for the long-double rescue, a _Scratch
    of its own for CHUNK_PAIRS // 32 pairs at most.
    """

    u: np.ndarray            # (3V, n) unit directions
    d: np.ndarray            # (V, n) distances
    edge_ends: np.ndarray    # (6E, n) edge end directions, then cr
    pair: np.ndarray         # (3E, n) edge cross products, then m
    theta: np.ndarray        # (E, n) arc angles
    g: np.ndarray            # (E, n) theta / (2 |c|), then det
    tmp: np.ndarray          # (E, n) temporary

    @staticmethod
    def block_ends(n_verts, n_edges):
        """The row each block ends at; the last is 4V + 12E."""
        return np.cumsum([3 * n_verts, n_verts, 6 * n_edges, 3 * n_edges,
                          n_edges, n_edges, n_edges])

    @classmethod
    def buffer(cls, n_verts, n_edges, n, dtype=np.float64):
        """A flat buffer for chunks of up to n points."""
        return np.empty(cls.block_ends(n_verts, n_edges)[-1] * n, dtype)

    @classmethod
    def carve(cls, buf, n_verts, n_edges, n):
        """The blocks of an n-point chunk, from the front of buf."""
        ends = cls.block_ends(n_verts, n_edges)
        return cls(*np.split(buf[:ends[-1] * n].reshape(-1, n), ends[:-1]))


def _gather(a, rows, out):
    """a[rows] written into out. rows come from an edge or triangle table,
    so mode "clip" never clips: it only spares the copy of out that
    np.take makes in its default mode."""
    return np.take(a, rows, axis=0, out=out, mode="clip")


def _dot_into(p, q, out, tmp):
    """cage.dot(p, q) written into out, over tmp: the same sums in the
    same order."""
    np.multiply(p[0], q[0], out=out)
    for j in (1, 2):
        out += np.multiply(p[j], q[j], out=tmp)
    return out


def _unit_directions(corners, x, s):
    """Unit directions (3, V, n) and distances (V, n) from points x
    (3, 1, n) to corners (3, V, 1), in s.u and s.d."""
    u = np.subtract(corners, x, out=s.u.reshape(3, -1, s.u.shape[1]))
    d = _dot_into(u, u, s.d, s.edge_ends[:len(s.d)])
    np.maximum(np.sqrt(d, out=d), 1e-300, out=d)
    u /= d
    return u, d


def _edge_terms(u, edges, s):
    """Arc angle theta, g = theta / (2 |c|) and cross product c per edge.

    Each is a function of the edge alone, shared by the (usually two)
    triangles on its sides: theta and g are (E, n), and c = e_a x e_b
    for the edge (a, b) is (3, E, n), by component.
    """
    ua, ub = s.edge_ends.reshape(2, 3, len(edges), -1)
    for j in range(3):
        _gather(u[j], edges[:, 0], ua[j])
        _gather(u[j], edges[:, 1], ub[j])
    # Arc-plane normal scaled by sin(theta), and a Cramer adjugate row of
    # [e0 e1 e2] for the corner opposite the edge: cage.cross.
    c = s.pair.reshape(3, len(edges), -1)
    for j in range(3):
        np.multiply(ua[(j + 1) % 3], ub[(j + 2) % 3], out=c[j])
        c[j] -= np.multiply(ua[(j + 2) % 3], ub[(j + 1) % 3], out=s.tmp)
    # From the chord length: stable for both tiny and obtuse angles.
    ua -= ub
    theta = _dot_into(ua, ua, s.theta, s.tmp)
    np.sqrt(theta, out=theta)
    theta *= 0.5
    np.arcsin(np.clip(theta, 0.0, 1.0, out=theta), out=theta)
    theta *= 2.0
    g = _dot_into(c, c, s.g, s.tmp)
    np.sqrt(g, out=g)
    # Guarded against |c| ~ 0.
    np.copyto(g, 1.0, where=g < 1e-300)
    g *= 2.0
    return theta, np.divide(theta, g, out=g), c


def _spherical_triangles(u, table, s):
    """Arc angles, Cramer coefficients and det of spherical triangles.

    u (3, V, n) holds the unit directions from n points to V vertices, by
    component, in any float dtype, s is the _Scratch they sit in, and
    table is the triangles' cage.EdgeTable. theta (E, n) is the arc angle
    of each edge, so theta[opposite[k]] is the one opposite corner k. lam
    (3, T, n) solves [e0 e1 e2] lam = m for the vector area m, and det =
    det [e0 e1 e2], for the corner directions e of each triangle. All
    three are views into s.
    """
    tri, pairs, opposite, backwards = table
    n_tri = len(tri)
    theta, g, edge_cross = _edge_terms(u, pairs, s)
    # cr[j, k] = (e_{k+1} x e_{k+2})_j: the shared edge product, negated
    # (an exact operation) where the triangle runs the edge backwards.
    cr = s.edge_ends[:9 * n_tri].reshape(3, 3, n_tri, -1)
    for j in range(3):
        for k in range(3):
            _gather(edge_cross[j], opposite[k], cr[j, k])
            np.negative(cr[j, k], out=cr[j, k], where=backwards[k])
    # m = 1/2 sum_k theta_k * cr_k / |cr_k|.
    m = s.pair[:3 * n_tri].reshape(3, n_tri, -1)
    prod, g_k = s.pair[3 * n_tri:4 * n_tri], s.tmp[:n_tri]
    np.multiply(_gather(g, opposite[0], g_k), cr[:, 0], out=m)
    for k in (1, 2):
        _gather(g, opposite[k], g_k)
        for j in range(3):
            m[j] += np.multiply(g_k, cr[j, k], out=prod)
    # det = e_0 . cr_0, as cage.dot sums it, in g's block.
    det = np.multiply(_gather(u[0], tri[:, 0], g_k), cr[0, 0],
                      out=s.g[:n_tri])
    for j in (1, 2):
        det += np.multiply(_gather(u[j], tri[:, 0], g_k), cr[j, 0], out=g_k)
    # lam[k] = m . cr_k, as cage.dot sums it, over the x components.
    lam = cr[0]
    for k in range(3):
        lam[k] *= m[0]
        lam[k] += np.multiply(m[1], cr[1, k], out=prod)
        lam[k] += np.multiply(m[2], cr[2, k], out=prod)
    np.copyto(g_k, det)
    np.copyto(g_k, 1.0, where=np.abs(det, out=prod) < 1e-300)
    lam /= g_k
    return theta, lam, det


def _weights_chunk(x, cage, table, incidence, w, buf):
    """Write the unnormalized weights of points x (P, 3) into w (P, V),
    over the flat scratch buffer buf."""
    verts = cage.vertices
    tri = cage.triangles
    opposite = table.opposite
    # Vertex-major: every per-vertex, per-edge and per-corner array is
    # (rows, P), so each gather takes whole contiguous rows.
    s = _Scratch.carve(buf, len(verts), len(table.pairs), len(x))
    u, d = _unit_directions(verts.T[:, :, None], x.T[:, None, :], s)
    theta, lam, det = _spherical_triangles(u, table, s)
    snap_rows = np.min(d, axis=0) < VERTEX_SNAP * cage.bbox_diagonal()

    # Long-double rescue of near-coplanar (point, triangle) pairs, where
    # the float64 Cramer solve cancels catastrophically: the same solve,
    # one triangle per pair. m's block is free once lam is formed.
    gathered = s.pair[:len(tri)]
    abs_det = np.abs(det, out=gathered)
    refine = (abs_det < DET_REFINE) & (abs_det >= DET_SKIP) & ~snap_rows
    zero = abs_det < DET_SKIP
    t_idx, p_idx = np.divmod(np.flatnonzero(refine), len(x))
    if len(t_idx):
        # In blocks of pairs, so the rescue's scratch stays well below
        # buf's however many pairs a chunk refines.
        block = max(1, CHUNK_PAIRS // 32)
        one = edge_table(np.array([[0, 1, 2]]))
        ld_buf = _Scratch.buffer(3, 3, min(block, len(t_idx)), np.longdouble)
        for lo in range(0, len(t_idx), block):
            tb, pb = t_idx[lo:lo + block], p_idx[lo:lo + block]
            sq = _Scratch.carve(ld_buf, 3, 3, len(tb))
            uq, _ = _unit_directions(verts[tri[tb]].T.astype(np.longdouble),
                                     x[pb].T[:, None, :], sq)
            lam[:, tb, pb] = _spherical_triangles(uq, one, sq)[1][:, 0]

    for k in range(3):
        lam[k] /= _gather(d, tri[:, k], gathered)
    np.copyto(lam, 0.0, where=zero)
    # Into C order: a row's sum in mvc_weights then does not depend on P.
    w[...] = (incidence @ lam.reshape(-1, len(x))).T

    # On-surface rows: barycentric interpolation inside the first flagged
    # triangle replaces the whole row (the weight field is discontinuous
    # across the surface, with on-surface values interpolating the face).
    # A pair off the face's plane is never on the face: pi - h shrinks
    # with the square of the distance, |det| with the distance itself. So
    # only coplanar pairs sum their arcs, point-major, so that a point's
    # pairs come in cage order (flat: a 2-D nonzero costs 25 times more).
    p, t = np.divmod(np.flatnonzero(zero.T & ~snap_rows[:, None]), len(tri))
    half_sum = (theta[opposite[0, t], p] + theta[opposite[1, t], p]
                + theta[opposite[2, t], p]) * 0.5
    on_face = np.pi - half_sum < ON_FACE_EPS
    p, t = p[on_face], t[on_face]
    first = np.diff(p, prepend=-1) != 0
    p, t = p[first], t[first]
    w[p] = 0.0
    for k in range(3):
        # An arc within fp noise of pi means the point sits on the
        # opposite edge; that corner's weight is exactly zero.
        th = theta[opposite[k, t], p]
        s_k = np.where(np.pi - th < ON_FACE_EPS, 0.0, np.sin(th))
        w[p, tri[t, k]] += s_k * d[tri[t, (k + 1) % 3], p] \
            * d[tri[t, (k + 2) % 3], p]

    p = np.nonzero(snap_rows)[0]
    w[p] = 0.0
    w[p, np.argmin(d[:, p], axis=0)] = 1.0
