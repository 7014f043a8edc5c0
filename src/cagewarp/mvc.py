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
contiguous rows, and each gather of a chunk is one ndarray.take by an
index table built once per call (_Plan); each vertex's corners'
lambda_i / d_i are summed slot by slot from 0.0, in the order a sparse
corner-incidence product would sum them. The routine runs in float64
over every (point, triangle) pair of a chunk,
and again in long double, one triangle per pair, over the pairs whose
|det| lies in [DET_SKIP, DET_REFINE): near-coplanar pairs, such as
points just off a face's supporting plane, over the face or beyond its
edges, where the float64 solve cancels catastrophically.

Weights are smooth away from the cage surface. Two kinds of rows are
replaced outright: a point within VERTEX_SNAP of a vertex gets that
vertex's unit row, and a point on a face (|det| below DET_SKIP and a
half-sum of arcs within ON_FACE_EPS of pi) gets the barycentric
coordinates of the first such face. A chunk none of whose pairs needs
the rescue, the on-face test or the snap skips their masks. The warp's
Jacobian is estimated from these weights by central differences in
transport.jacobian_fd.

Points are evaluated in chunks of about CHUNK_PAIRS (point, triangle)
pairs. Given a deformed copy of the cage, mvc_weights maps each chunk's
rows through it as soon as they are checked, so the rows held at once,
like the kernel's scratch, are bounded by one chunk, whatever the point
count; only a caller that keeps the weights, as the cage fit does, holds
a (P, V) matrix. The kernel's arrays are views into one buffer per call,
4V + 12E floats a point on the template cages (about twenty (T, P)
arrays, 1.3 MiB), that every chunk reuses (_Scratch), so the allocator
never sees them freed between chunks: arrays freed at a chunk's end can
leave the top of glibc's heap free, which glibc hands back to the OS and
faults in again for the next chunk (61 000 minor faults in one call at
2900 points x 432 triangles, against 640 with the buffer). The kernel
sums in cage.dot's and cage.cross's order, so the buffer does not change
a weight's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    plan = _Plan.of(cage.edges, len(cage.vertices),
                    VERTEX_SNAP * cage.bbox_diagonal())
    rows = max(1, CHUNK_PAIRS // plan.n_tri)
    n = min(rows, len(points))
    centre, diag = 0.5 * sum(cage.bbox()), cage.bbox_diagonal()
    # Every row, or, when mapping, one chunk's rows at a time.
    mapped = None if deformed is None else np.empty((len(points), 3))
    weights = np.empty((len(points) if mapped is None else n, plan.n_verts))
    buf = plan.buffer(n)
    s = plan.carve(buf, n)
    for lo in range(0, len(points), rows):
        x = points[lo:lo + rows]
        if len(x) < n:
            s = plan.carve(buf, len(x))
        w = weights[lo:lo + rows] if mapped is None else weights[:len(x)]
        _weights_chunk(x, cage, plan, w, s)
        total = w.sum(axis=1)
        # A zero total counts too: far enough outside, every triangle's
        # contribution is dropped and the row is all zeros.
        bad = ~np.isfinite(total) \
            | (np.abs(total) <= 1e-12 * np.abs(w).max(axis=1))
        if not bad.any():
            w /= total[:, None]
            # Farther out the rows stay finite but stop reproducing their
            # point: on box cages of resolution 1-6 the relative miss was
            # at most 1.1e-9 up to 1e3 diagonals out and 0.67 from 1e4 on.
            bad = _norms(_map_rows(w, cage.vertices) - x) \
                > 1e-6 * np.maximum(diag, _norms(x - centre))
        if bad.any():
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


def _norms(r):
    """np.linalg.norm(r, axis=1) of a fresh (P, 3) array r, the same
    sums, over r."""
    r *= r
    return np.sqrt(np.add.reduce(r, axis=1), out=r[:, 0])


class _Scratch(NamedTuple):
    """A chunk's arrays, as blocks of rows of n points in one flat buffer
    (see _Plan.carve for which array each block holds when). Outside it
    a chunk allocates only arrays of n items and, where near-coplanar
    pairs occur, boolean (T, n) masks and a long-double buffer for
    CHUNK_PAIRS // 32 pairs at most."""

    d: np.ndarray            # (V, n) distances
    theta: np.ndarray        # (E, n) arc angles
    big: np.ndarray          # edge end directions, then cr
    arena: np.ndarray        # edge cross products, g and the rest
    u: np.ndarray            # (3V, n) unit directions, at the arena's end


class _Plan(NamedTuple):
    """A cage's index tables for the kernel, built once per call, so that
    each gather of a chunk is one ndarray.take of whole contiguous rows.

    ends gathers the edge end directions (end a's three components, then
    end b's) from u's (3V, n) rows. cr_rows and cr_sign give cr[j, k] =
    the edge cross product c_j of the edge opposite corner k, times -1
    where the triangle runs that edge backwards (an exact operation).
    corner0 gathers corner 0's directions, opposite_120 g at the edges
    opposite corners 1, 2 and 0 of each triangle, and slots, for slot s
    of vertex i, the row of the s-th of its corners in the corners' (3T)
    order, or row 3T, which holds zeros, for vertices with fewer: the
    sums over the slots, from 0.0, add each vertex's corners in the order
    a sparse (V, 3T) incidence product did. Every index is in range, so
    take's mode "clip" never clips: it only spares the copy of out that
    take makes in its default mode.
    """

    n_verts: int
    n_edges: int
    n_tri: int
    sizes: tuple             # rows a point of each _Scratch block
    ends: np.ndarray         # (6E,)
    cr_rows: np.ndarray      # (9T,)
    cr_sign: np.ndarray      # (3T, 1)
    corner0: np.ndarray      # (3T,)
    opposite_120: np.ndarray  # (3T,)
    slots: np.ndarray        # (K V,)
    snap: float              # VERTEX_SNAP times the bbox diagonal

    @classmethod
    def of(cls, table, n_verts, snap=0.0):
        """The plan of an EdgeTable over n_verts vertices."""
        tri, pairs, opposite, backwards = table
        n_edges, n_tri = len(pairs), len(tri)
        corner = tri.T.ravel()                  # corner k * T + t's vertex
        counts = np.bincount(corner, minlength=n_verts)
        order = np.argsort(corner, kind="stable")
        rank = np.arange(len(order)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        slots = np.full((counts.max(), n_verts), 3 * n_tri)
        slots[rank, corner[order]] = order
        comp = np.arange(3)[:, None]
        sizes = (n_verts, n_edges, max(6 * n_edges, 9 * n_tri,
                                       3 * n_tri + 1 + n_verts),
                 max(5 * n_edges + 3 * n_verts, 9 * n_tri, slots.size))
        return cls(
            n_verts, n_edges, n_tri, sizes,
            np.concatenate([(comp * n_verts + pairs[:, 0]).ravel(),
                            (comp * n_verts + pairs[:, 1]).ravel()]),
            (comp[:, :, None] * n_edges + opposite).ravel(),
            np.where(backwards, -1.0, 1.0).reshape(-1, 1),
            (comp * n_verts + tri[:, 0]).ravel(),
            opposite[[1, 2, 0]].ravel(), slots.ravel(), snap)

    def buffer(self, n, dtype=np.float64):
        """A flat buffer for chunks of up to n points."""
        return np.empty(sum(self.sizes) * n, dtype)

    def carve(self, buf, n):
        """The _Scratch of an n-point chunk, from the front of buf.

        In the arena, c (3E rows), g (E) and a temporary (E) come first
        and u (3V) last; once cr is gathered into big and det formed in
        the arena's first T rows, g's gathers, m and its products take
        the rest of its first 9T rows, and the slot sums its first KV.
        big holds the corner sums' pad row and (V, n) total after cr's
        first 3T rows (lam).
        """
        b = buf[:sum(self.sizes) * n].reshape(-1, n)
        d, th, big, _ = np.cumsum(self.sizes)
        u = 5 * self.n_edges
        return _Scratch(b[:d], b[d:th], b[th:big], b[big:],
                        b[big + u:big + u + 3 * self.n_verts])


def _unit_directions(corners, x, s):
    """Unit directions (3, V, n) and distances (V, n) from points x
    (3, 1, n) to corners (3, V, 1), in s.u and s.d: cage.dot's sums."""
    u = np.subtract(corners, x, out=s.u.reshape(3, -1, s.u.shape[1]))
    sq = np.multiply(u, u, out=s.big[:s.u.shape[0]].reshape(u.shape))
    d = np.add(sq[0], sq[1], out=s.d)
    d += sq[2]
    np.maximum(np.sqrt(d, out=d), 1e-300, out=d)
    u /= d
    return u, d


def _edge_terms(u, plan, s):
    """Arc angle theta, g = theta / (2 |c|) and cross product c per edge.

    Each is a function of the edge alone, shared by the (usually two)
    triangles on its sides: theta and g are (E, n), and c = e_a x e_b
    for the edge (a, b) is (3, E, n), by component.
    """
    n_edges, n = plan.n_edges, s.d.shape[1]
    ends = s.big[:6 * n_edges]
    u.reshape(-1, n).take(plan.ends, axis=0, out=ends, mode="clip")
    ua, ub = ends.reshape(2, 3, n_edges, n)
    # Arc-plane normal scaled by sin(theta), and a Cramer adjugate row of
    # [e0 e1 e2] for the corner opposite the edge: cage.cross.
    c = s.arena[:3 * n_edges].reshape(3, n_edges, n)
    tmp = s.arena[4 * n_edges:5 * n_edges]
    for j in range(3):
        np.multiply(ua[(j + 1) % 3], ub[(j + 2) % 3], out=c[j])
        c[j] -= np.multiply(ua[(j + 2) % 3], ub[(j + 1) % 3], out=tmp)
    # From the chord length: stable for both tiny and obtuse angles.
    ua -= ub
    ua *= ua
    theta = np.add(ua[0], ua[1], out=s.theta)
    theta += ua[2]
    np.sqrt(theta, out=theta)
    theta *= 0.5
    # np.clip(theta, 0.0, 1.0): theta is >= +0.0 or NaN.
    np.arcsin(np.minimum(theta, 1.0, out=theta), out=theta)
    theta *= 2.0
    sq = np.multiply(c, c, out=ub)
    g = np.add(sq[0], sq[1], out=s.arena[3 * n_edges:4 * n_edges])
    g += sq[2]
    np.sqrt(g, out=g)
    # Guarded against |c| ~ 0.
    if not g.min() >= 1e-300:
        np.copyto(g, 1.0, where=g < 1e-300)
    g *= 2.0
    return theta, np.divide(theta, g, out=g), c


def _spherical_triangles(u, plan, s):
    """Arc angles, Cramer coefficients and |det| of spherical triangles.

    u (3, V, n) holds the unit directions from n points to V vertices, by
    component, in any float dtype, s is the _Scratch they sit in, and
    plan is the triangles' _Plan. theta (E, n) is the arc angle of each
    edge, so theta[opposite[k]] is the one opposite corner k. lam (3, T,
    n) solves [e0 e1 e2] lam = m for the vector area m, and abs_det =
    |det [e0 e1 e2]|, for the corner directions e of each triangle. All
    three are views into s.
    """
    n_tri, n = plan.n_tri, s.d.shape[1]
    theta, g, c = _edge_terms(u, plan, s)
    # cr[j, k] = (e_{k+1} x e_{k+2})_j, from the shared edge products.
    cr = s.big[:9 * n_tri]
    c.reshape(-1, n).take(plan.cr_rows, axis=0, out=cr, mode="clip")
    cr = cr.reshape(3, 3 * n_tri, n)
    cr *= plan.cr_sign
    cr = cr.reshape(3, 3, n_tri, n)
    # det = e_0 . cr_0, as cage.dot sums it, in the arena's first T rows.
    e0 = s.arena[:3 * n_tri]
    u.reshape(-1, n).take(plan.corner0, axis=0, out=e0, mode="clip")
    e0 = e0.reshape(3, n_tri, n)
    e0 *= cr[:, 0]
    det = np.add(e0[0], e0[1], out=e0[0])
    det += e0[2]
    # m = 1/2 sum_k theta_k * cr_k / |cr_k|, summed over k in order.
    g_k = s.arena[n_tri:4 * n_tri]
    g.take(plan.opposite_120, axis=0, out=g_k, mode="clip")
    g1, g2, g0 = g_k.reshape(3, n_tri, n)
    m = np.multiply(cr[:, 0], g0,
                    out=s.arena[6 * n_tri:9 * n_tri].reshape(3, n_tri, n))
    prod = s.arena[3 * n_tri:6 * n_tri].reshape(3, n_tri, n)
    m += np.multiply(cr[:, 1], g1, out=prod)
    m += np.multiply(cr[:, 2], g2, out=prod)
    # lam[k] = m . cr_k, as cage.dot sums it, in cr[0].
    cr *= m[:, None]
    lam = cr[0]
    lam += cr[1]
    lam += cr[2]
    abs_det = np.abs(det, out=s.arena[n_tri:2 * n_tri])
    if abs_det.min() >= 1e-300:
        lam /= det
    else:
        safe = prod[0]
        np.copyto(safe, det)
        np.copyto(safe, 1.0, where=abs_det < 1e-300)
        lam /= safe
    return theta, lam, abs_det


def _weights_chunk(x, cage, plan, w, s):
    """Write the unnormalized weights of points x (P, 3) into w (P, V),
    over the chunk's _Scratch s."""
    verts, tri = cage.vertices, cage.triangles
    n_tri, opposite = plan.n_tri, cage.edges.opposite
    # Vertex-major: every per-vertex, per-edge and per-corner array is
    # (rows, P), so each gather takes whole contiguous rows.
    u, d = _unit_directions(verts.T[:, :, None], x.T[:, None, :], s)
    theta, lam, abs_det = _spherical_triangles(u, plan, s)
    snap_rows = d.min(axis=0) < plan.snap

    # Near-coplanar pairs are rare, and a chunk without them (NaN aside)
    # skips their masks. The long-double rescue is for those where the
    # float64 Cramer solve cancels catastrophically: the same solve, one
    # triangle per pair.
    zero = None
    if not abs_det.min() >= DET_REFINE:
        refine = (abs_det < DET_REFINE) & (abs_det >= DET_SKIP) & ~snap_rows
        zero = abs_det < DET_SKIP
        t_idx, p_idx = np.divmod(np.flatnonzero(refine), len(x))
        # In blocks of pairs, so the rescue's scratch stays well below
        # the chunk's however many pairs a chunk refines.
        block = max(1, CHUNK_PAIRS // 32)
        one = _Plan.of(edge_table(np.array([[0, 1, 2]])), 3)
        ld_buf = one.buffer(min(block, len(t_idx)), np.longdouble)
        for lo in range(0, len(t_idx), block):
            tb, pb = t_idx[lo:lo + block], p_idx[lo:lo + block]
            sq = one.carve(ld_buf, len(tb))
            uq, _ = _unit_directions(verts[tri[tb]].T.astype(np.longdouble),
                                     x[pb].T[:, None, :], sq)
            lam[:, tb, pb] = _spherical_triangles(uq, one, sq)[1][:, 0]
        np.copyto(lam, 0.0, where=zero)

    # Each vertex's corners' lambda_i / d_i, summed slot by slot from 0.0
    # (a +0.0 pad adds nothing to a sum that starts there), into C order:
    # a row's sum in mvc_weights then does not depend on P.
    flat = s.big[:3 * n_tri + 1]
    flat[-1] = 0.0
    k_v = s.arena[:len(plan.slots)]
    flat.take(plan.slots, axis=0, out=k_v, mode="clip")
    k_v = k_v.reshape(-1, plan.n_verts, len(x))
    k_v /= d
    total = s.big[3 * n_tri + 1:3 * n_tri + 1 + plan.n_verts]
    np.add.reduce(k_v, axis=0, out=total, initial=0.0)
    np.copyto(w, total.T)

    # On-surface rows: barycentric interpolation inside the first flagged
    # triangle replaces the whole row (the weight field is discontinuous
    # across the surface, with on-surface values interpolating the face).
    # A pair off the face's plane is never on the face: pi - h shrinks
    # with the square of the distance, |det| with the distance itself. So
    # only coplanar pairs sum their arcs, point-major, so that a point's
    # pairs come in cage order (flat: a 2-D nonzero costs 25 times more).
    if zero is not None:
        p, t = np.divmod(np.flatnonzero(zero.T & ~snap_rows[:, None]),
                         n_tri)
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

    if snap_rows.any():
        p = np.nonzero(snap_rows)[0]
        w[p] = 0.0
        w[p, np.argmin(d[:, p], axis=0)] = 1.0
