"""The MVC kernel's arithmetic as plain numpy expressions, kept as the
reference that cagewarp.mvc's in-place kernel must match bit for bit.

cagewarp.mvc writes every array of a chunk into one reused buffer; this
module computes the same sums, in the same order, into fresh arrays, one
expression per formula, with cage.dot and cage.cross, and sums each
vertex's corners by a sparse (V, 3T) incidence product. weights_chunk
takes the arguments of mvc._weights_chunk except its index tables and
scratch.
"""

import numpy as np
from scipy import sparse

from cagewarp.cage import cross, dot, edge_table
from cagewarp.mvc import DET_REFINE, DET_SKIP, ON_FACE_EPS, VERTEX_SNAP


def unit_directions(corners, x):
    u = corners - x
    d = np.maximum(np.sqrt(dot(u, u)), 1e-300)
    u /= d
    return u, d


def spherical_triangles(u, table):
    """theta (E, n), lam (3, T, n) and det (T, n), as in
    mvc._spherical_triangles."""
    tri, pairs, opposite, backwards = table
    ua = [c[pairs[:, 0]] for c in u]
    ub = [c[pairs[:, 1]] for c in u]
    diff = [p - q for p, q in zip(ua, ub)]
    theta = 2.0 * np.arcsin(np.clip(0.5 * np.sqrt(dot(diff, diff)), 0.0, 1.0))
    edge_cross = cross(ua, ub)
    s = np.sqrt(dot(edge_cross, edge_cross))
    g = theta / (2.0 * np.where(s < 1e-300, 1.0, s))
    cr = [[np.where(backwards[k], -c[opposite[k]], c[opposite[k]])
           for c in edge_cross] for k in range(3)]
    m = [g[opposite[0]] * c for c in cr[0]]
    for k in (1, 2):
        for j in range(3):
            m[j] = m[j] + g[opposite[k]] * cr[k][j]
    det = dot([c[tri[:, 0]] for c in u], cr[0])
    lam = np.stack([dot(m, cr[k]) for k in range(3)])
    return theta, lam / np.where(np.abs(det) < 1e-300, 1.0, det), det


def weights_chunk(x, cage, w):
    """The unnormalized weights of points x (P, 3), written into w."""
    verts, tri, table = cage.vertices, cage.triangles, cage.edges
    # Column k*T + t of the corner incidence is corner k of triangle t.
    incidence = sparse.csr_matrix(
        (np.ones(tri.size), (tri.T.ravel(), np.arange(tri.size))),
        shape=(len(verts), tri.size))
    u, d = unit_directions(verts.T[:, :, None], x.T[:, None, :])
    theta, lam, det = spherical_triangles(u, table)
    theta = theta[table.opposite]                       # (3, T, P)
    dcorn = d[tri.T]
    on_face = (np.pi - 0.5 * theta.sum(axis=0)) < ON_FACE_EPS
    snap_rows = np.min(d, axis=0) < VERTEX_SNAP * cage.bbox_diagonal()
    abs_det = np.abs(det)
    on_face &= abs_det < DET_SKIP
    refine = (abs_det < DET_REFINE) & (abs_det >= DET_SKIP) & ~snap_rows
    if np.any(refine):
        t_idx, p_idx = np.nonzero(refine)
        uq, _ = unit_directions(verts[tri[t_idx]].T.astype(np.longdouble),
                                x[p_idx].T[:, None, :])
        one = edge_table(np.array([[0, 1, 2]]))
        lam[:, t_idx, p_idx] = spherical_triangles(uq, one)[1][:, 0]
    lam = np.where(abs_det < DET_SKIP, 0.0, lam / dcorn)
    w[...] = (incidence @ lam.reshape(-1, len(x))).T
    p = np.nonzero(on_face.any(axis=0) & ~snap_rows)[0]
    t = np.argmax(on_face[:, p], axis=0)
    w[p] = 0.0
    for k in range(3):
        th = theta[k, t, p]
        s_k = np.where(np.pi - th < ON_FACE_EPS, 0.0, np.sin(th))
        w[p, tri[t, k]] += s_k * dcorn[(k + 1) % 3, t, p] \
            * dcorn[(k + 2) % 3, t, p]
    p = np.nonzero(snap_rows)[0]
    w[p] = 0.0
    w[p, np.argmin(d[:, p], axis=0)] = 1.0
