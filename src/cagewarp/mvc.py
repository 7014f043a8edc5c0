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

One routine, _spherical_triangle, turns the corner directions into the
arc angles, the Cramer solution lambda and det [u_0 u_1 u_2]. It runs once
in float64 over every (point, triangle) pair of a chunk, and once more in
long double over the pairs whose |det| lies in [DET_SKIP, DET_REFINE):
near-coplanar pairs, such as points just off a face's supporting plane
outside the face, where the float64 solve cancels catastrophically.

Weights are smooth away from the cage surface. Two kinds of rows are
replaced outright: a point within VERTEX_SNAP of a vertex gets that
vertex's unit row, and a point on a face (ON_FACE_EPS) gets the
barycentric coordinates of the first such face. The warp's Jacobian is
estimated from these weights by central differences in
transport.jacobian_fd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cage import CageMesh

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
    points: np.ndarray       # (P, 3) the query points
    cage: CageMesh           # source cage the weights were computed against

    def __len__(self) -> int:
        return len(self.points)


def mvc_weights(points: np.ndarray, cage: CageMesh,
                chunk_size: int | None = None) -> MVCWeights:
    """Compute normalized mean value coordinates of points w.r.t. a cage.

    Points may lie anywhere: inside (all weights positive for convex
    cages), on the surface (barycentric limit), or outside (signed
    weights). Evaluation is chunked; `chunk_size` caps points per chunk.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {points.shape}")
    n_tri = len(cage.triangles)
    if chunk_size is None:
        chunk_size = int(np.clip(1_500_000 // max(n_tri, 1), 128, 8192))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    rows = []
    for start in range(0, len(points), chunk_size):
        rows.append(_weights_chunk(points[start:start + chunk_size], cage))
    weights = np.concatenate(rows, axis=0) if rows else \
        np.zeros((0, len(cage.vertices)))
    return MVCWeights(weights=weights, points=points, cage=cage)


def deform_points(weights: MVCWeights, deformed: CageMesh) -> np.ndarray:
    """Map the stored query points through a deformed copy of the cage."""
    weights.cage.check_same_topology(deformed)
    return weights.weights @ deformed.vertices


def _spherical_triangle(e):
    """Arc angles, Cramer coefficients and det of spherical triangles.

    e holds the unit directions to a triangle's three corners, each an
    (..., 3) array of any float dtype. theta[k] is the arc angle opposite
    corner k, lam solves [e0 e1 e2] lam = m for the vector area m, and
    det = det [e0 e1 e2]; all are (...) arrays of e's dtype.
    """
    theta, cr = [], []
    for k in range(3):
        a, b = e[(k + 1) % 3], e[(k + 2) % 3]
        # From the chord length: stable for both tiny and obtuse angles.
        chord = np.linalg.norm(a - b, axis=-1)
        theta.append(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0)))
        # Arc-plane normal scaled by sin(theta_k), and simultaneously a
        # Cramer adjugate row of [e0 e1 e2].
        cr.append(np.cross(a, b))
    det = np.einsum("...x,...x->...", e[0], cr[0])
    # m = 1/2 sum_k theta_k * cr_k / |cr_k|, guarded against |cr| ~ 0.
    m = np.zeros_like(cr[0])
    for k in range(3):
        s = np.linalg.norm(cr[k], axis=-1)
        s_safe = np.where(s < 1e-300, 1.0, s)
        m += 0.5 * (theta[k] / s_safe)[..., None] * cr[k]
    det_safe = np.where(np.abs(det) < 1e-300, 1.0, det)
    lam = [np.einsum("...x,...x->...", m, cr[k]) / det_safe for k in range(3)]
    return theta, lam, det


def _weights_chunk(x: np.ndarray, cage: CageMesh) -> np.ndarray:
    n_pts = len(x)
    verts = cage.vertices
    n_vert = len(verts)
    tri = cage.triangles

    u = verts[None, :, :] - x[:, None, :]               # (P, V, 3)
    d = np.maximum(np.linalg.norm(u, axis=2), 1e-300)   # (P, V)
    u /= d[:, :, None]
    theta, lam, det = _spherical_triangle([u[:, tri[:, k]] for k in range(3)])
    dcorn = [d[:, tri[:, k]] for k in range(3)]         # 3 x (P, T)

    half_sum = 0.5 * (theta[0] + theta[1] + theta[2])
    on_face = (np.pi - half_sum) < ON_FACE_EPS          # (P, T)
    snap_rows = np.min(d, axis=1) < VERTEX_SNAP * cage.bbox_diagonal()

    # Long-double rescue of near-coplanar (point, triangle) pairs, where
    # the float64 Cramer solve cancels catastrophically.
    refine = (np.abs(det) < DET_REFINE) & (np.abs(det) >= DET_SKIP) \
        & ~on_face & ~snap_rows[:, None]
    if np.any(refine):
        p_idx, t_idx = np.nonzero(refine)
        uq = verts[tri[t_idx]].astype(np.longdouble) - x[p_idx, None, :]
        uq /= np.linalg.norm(uq, axis=2)[:, :, None]    # (K, 3 corners, 3)
        _, lam_q, _ = _spherical_triangle([uq[:, k] for k in range(3)])
        for k in range(3):
            lam[k][p_idx, t_idx] = lam_q[k]

    drop = (np.abs(det) < DET_SKIP) | on_face
    w = np.zeros((n_pts, n_vert))
    flat_p = np.repeat(np.arange(n_pts), len(tri))
    for k in range(3):
        contrib = np.where(drop, 0.0, lam[k] / dcorn[k])
        flat_v = np.tile(tri[:, k], n_pts)
        w += np.bincount(flat_p * n_vert + flat_v,
                         weights=contrib.ravel(),
                         minlength=n_pts * n_vert).reshape(n_pts, n_vert)

    # On-surface rows: barycentric interpolation inside the first flagged
    # triangle replaces the whole row (the weight field is discontinuous
    # across the surface, with on-surface values interpolating the face).
    p = np.nonzero(on_face.any(axis=1) & ~snap_rows)[0]
    t = np.argmax(on_face[p], axis=1)
    w[p] = 0.0
    for k in range(3):
        # An arc within fp noise of pi means the point sits on the
        # opposite edge; that corner's weight is exactly zero.
        th = theta[k][p, t]
        s_k = np.where(np.pi - th < ON_FACE_EPS, 0.0, np.sin(th))
        w[p, tri[t, k]] += s_k * dcorn[(k + 1) % 3][p, t] \
            * dcorn[(k + 2) % 3][p, t]

    p = np.nonzero(snap_rows)[0]
    w[p] = 0.0
    w[p, np.argmin(d[p], axis=1)] = 1.0

    total = w.sum(axis=1)
    bad = np.abs(total) < 1e-12 * np.abs(w).max(axis=1)
    if np.any(bad):
        raise ValueError(
            f"mean value weights vanish at point index {int(np.nonzero(bad)[0][0])}; "
            "the query point is too far outside the cage")
    return w / total[:, None]
