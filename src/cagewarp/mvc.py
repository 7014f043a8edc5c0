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
computed once per unique edge and gathered to the corners, negated where
a triangle runs the edge backwards (negation and |a - b| = |b - a| are
exact). Arrays are vertex-major, (rows, points) per component, so every
gather takes whole contiguous rows; one sparse product with the (V, 3T)
corner incidence sums the corners' lambda_i / d_i into the weights. The
routine runs in float64 over every (point, triangle) pair of a chunk,
and again in long double, one triangle per pair, over the pairs whose
|det| lies in [DET_SKIP, DET_REFINE): near-coplanar pairs, such as
points just off a face's supporting plane outside the face, where the
float64 solve cancels catastrophically.

Weights are smooth away from the cage surface. Two kinds of rows are
replaced outright: a point within VERTEX_SNAP of a vertex gets that
vertex's unit row, and a point on a face (ON_FACE_EPS) gets the
barycentric coordinates of the first such face. The warp's Jacobian is
estimated from these weights by central differences in
transport.jacobian_fd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .cage import CHUNK_PAIRS, CageMesh

# Distance below which a query point is treated as sitting on a cage
# vertex, as a fraction of the cage bbox diagonal.
VERTEX_SNAP = 1e-10
# A spherical triangle whose half-angle-sum is within this of pi contains
# the query point in its supporting triangle: on-surface barycentric case.
# Arc angles come from chords via arcsin, which loses ~sqrt(eps) accuracy
# near pi (on-edge points), so the threshold sits well above that.
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


def mvc_weights(points: np.ndarray, cage: CageMesh) -> MVCWeights:
    """Compute normalized mean value coordinates of points w.r.t. a cage.

    Points may lie anywhere: inside (all weights positive for convex
    cages), on the surface (barycentric limit), or outside (signed
    weights). Evaluation is chunked to about CHUNK_PAIRS (point,
    triangle) pairs; rows do not depend on the chunking. A point so far
    outside that its row vanishes or misses it raises ValueError.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {points.shape}")
    tri = cage.triangles
    table = _edge_table(tri)
    # Column k*T + t of the corner incidence is corner k of triangle t.
    incidence = sparse.csr_matrix(
        (np.ones(tri.size), (tri.T.ravel(), np.arange(tri.size))),
        shape=(len(cage.vertices), tri.size))
    rows = max(1, CHUNK_PAIRS // max(len(tri), 1))
    centre, diag = 0.5 * sum(cage.bbox()), cage.bbox_diagonal()
    weights = np.empty((len(points), len(cage.vertices)))
    for lo in range(0, len(points), rows):
        x = points[lo:lo + rows]
        w = weights[lo:lo + rows]
        _weights_chunk(x, cage, table, incidence, w)
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
            miss = np.linalg.norm(w @ cage.vertices - x, axis=1)
            bad = miss > 1e-6 * np.maximum(
                diag, np.linalg.norm(x - centre, axis=1))
        if np.any(bad):
            raise ValueError(
                f"mean value weights vanish at point index "
                f"{lo + int(np.argmax(bad))}; the query point is too far "
                "outside the cage")
    return MVCWeights(weights=weights, cage=cage)


def deform_points(weights: MVCWeights, deformed: CageMesh) -> np.ndarray:
    """Map the weights' query points through a deformed copy of the cage."""
    weights.cage.check_same_topology(deformed)
    return weights.weights @ deformed.vertices


class _EdgeTable(NamedTuple):
    """The edges of triangles, each once, and how the corners see them."""

    tri: np.ndarray          # (T, 3) triangles
    edges: np.ndarray        # (E, 2) unique undirected edges, sorted pairs
    opposite: np.ndarray     # (3, T) the edge opposite corner k
    backwards: np.ndarray    # (3, T, 1) the triangle runs it from edges[:, 1]


def _edge_table(tri) -> _EdgeTable:
    a, b = tri[:, [1, 2, 0]].T, tri[:, [2, 0, 1]].T     # (3, T) each
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1)
    edges, opposite = np.unique(pairs.reshape(-1, 2), axis=0,
                                return_inverse=True)
    return _EdgeTable(tri, edges, opposite.reshape(3, -1), (a > b)[:, :, None])


def _dot(a, b):
    """Dot products of vectors stored as three component arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unit_directions(corners, x):
    """Unit directions and distances from x to corners, (3, ...) arrays."""
    u = corners - x
    d = np.maximum(np.sqrt(_dot(u, u)), 1e-300)
    u /= d
    return u, d


def _edge_terms(u, edges):
    """Arc angle theta, g = theta / (2 |c|) and cross product c per edge.

    Each is a function of the edge alone, shared by the (usually two)
    triangles on its sides: theta and g are (E, n), and c = e_a x e_b
    for the edge (a, b) is three (E, n) component arrays.
    """
    ua = [c[edges[:, 0]] for c in u]
    ub = [c[edges[:, 1]] for c in u]
    # From the chord length: stable for both tiny and obtuse angles.
    diff = [p - q for p, q in zip(ua, ub)]
    theta = np.sqrt(_dot(diff, diff))
    theta *= 0.5
    np.arcsin(np.clip(theta, 0.0, 1.0, out=theta), out=theta)
    theta *= 2.0
    # Arc-plane normal scaled by sin(theta), and a Cramer adjugate row of
    # [e0 e1 e2] for the corner opposite the edge.
    cross = [ua[(j + 1) % 3] * ub[(j + 2) % 3]
             - ua[(j + 2) % 3] * ub[(j + 1) % 3] for j in range(3)]
    s = np.sqrt(_dot(cross, cross))
    # Guarded against |c| ~ 0.
    return theta, theta / (2.0 * np.where(s < 1e-300, 1.0, s)), cross


def _spherical_triangles(u, edge_table):
    """Arc angles, Cramer coefficients and det of spherical triangles.

    u (3, V, n) holds the unit directions from n points to V vertices, by
    component, in any float dtype. theta (E, n) is the arc angle of each
    edge, so theta[opposite[k]] is the one opposite corner k. lam (3, T,
    n) solves [e0 e1 e2] lam = m for the vector area m, and det = det
    [e0 e1 e2], for the corner directions e of each triangle.
    """
    tri, edges, opposite, backwards = edge_table
    theta, g, cross = _edge_terms(u, edges)
    # cr[k] = e_{k+1} x e_{k+2}: the shared edge product, negated (an
    # exact operation) where the triangle runs the edge backwards.
    cr = [[c[opposite[k]] for c in cross] for k in range(3)]
    del cross                                           # bound the scratch
    for k in range(3):
        for c in cr[k]:
            np.negative(c, out=c, where=backwards[k])
    # m = 1/2 sum_k theta_k * cr_k / |cr_k|.
    m = [g[opposite[0]] * c for c in cr[0]]
    for k in (1, 2):
        g_k = g[opposite[k]]
        for j in range(3):
            m[j] += g_k * cr[k][j]
    det = _dot([c[tri[:, 0]] for c in u], cr[0])
    lam = np.empty((3,) + det.shape, dtype=det.dtype)
    for k in range(3):
        lam[k] = _dot(m, cr[k])
    lam /= np.where(np.abs(det) < 1e-300, 1.0, det)
    return theta, lam, det


def _weights_chunk(x, cage, table, incidence, w):
    """Write the unnormalized weights of points x (P, 3) into w (P, V)."""
    verts = cage.vertices
    tri = cage.triangles
    # Vertex-major: every per-vertex, per-edge and per-corner array is
    # (rows, P), so each gather takes whole contiguous rows.
    u, d = _unit_directions(verts.T[:, :, None], x.T[:, None, :])
    theta, lam, det = _spherical_triangles(u, table)
    theta = theta[table.opposite]                       # (3, T, P)
    dcorn = d[tri.T]

    on_face = (np.pi - 0.5 * theta.sum(axis=0)) < ON_FACE_EPS   # (T, P)
    snap_rows = np.min(d, axis=0) < VERTEX_SNAP * cage.bbox_diagonal()

    # Long-double rescue of near-coplanar (point, triangle) pairs, where
    # the float64 Cramer solve cancels catastrophically: the same solve,
    # one triangle per pair.
    abs_det = np.abs(det)
    refine = (abs_det < DET_REFINE) & (abs_det >= DET_SKIP) \
        & ~on_face & ~snap_rows
    if np.any(refine):
        t_idx, p_idx = np.nonzero(refine)
        uq, _ = _unit_directions(verts[tri[t_idx]].T.astype(np.longdouble),
                                 x[p_idx].T[:, None, :])  # (3, 3 corners, K)
        one = _edge_table(np.array([[0, 1, 2]]))
        lam[:, t_idx, p_idx] = _spherical_triangles(uq, one)[1][:, 0]

    lam /= dcorn
    np.copyto(lam, 0.0, where=(abs_det < DET_SKIP) | on_face)
    # Into C order: a row's sum in mvc_weights then does not depend on P.
    w[...] = (incidence @ lam.reshape(-1, len(x))).T

    # On-surface rows: barycentric interpolation inside the first flagged
    # triangle replaces the whole row (the weight field is discontinuous
    # across the surface, with on-surface values interpolating the face).
    p = np.nonzero(on_face.any(axis=0) & ~snap_rows)[0]
    t = np.argmax(on_face[:, p], axis=0)
    w[p] = 0.0
    for k in range(3):
        # An arc within fp noise of pi means the point sits on the
        # opposite edge; that corner's weight is exactly zero.
        th = theta[k, t, p]
        s_k = np.where(np.pi - th < ON_FACE_EPS, 0.0, np.sin(th))
        w[p, tri[t, k]] += s_k * dcorn[(k + 1) % 3, t, p] \
            * dcorn[(k + 2) % 3, t, p]

    p = np.nonzero(snap_rows)[0]
    w[p] = 0.0
    w[p, np.argmin(d[:, p], axis=0)] = 1.0
