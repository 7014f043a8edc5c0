"""Analytic deformation Jacobians, kept as a test oracle for jacobian_fd.

The product estimates the warp Jacobian by central differences
(cagewarp.transport.jacobian_fd). This module differentiates the mean
value coordinates in closed form instead. It keeps its own copy of the
spherical geometry of Ju, Schaefer & Warren (SIGGRAPH 2005) rather than
importing the weight kernel's, so the two estimators are independent
checks on each other.
"""

import numpy as np

from cagewarp.cage import CageMesh, surface_distance
from cagewarp.errors import NearSurfaceError

# Gradients are refused within this fraction of the diagonal from the cage.
SURFACE_GUARD = 1e-8
# |det [u0 u1 u2]| below which a triangle is taken as coplanar with the
# query point and contributes nothing (the value cagewarp.mvc uses).
DET_SKIP = 1e-12


def jacobian_analytic(points: np.ndarray, source: CageMesh,
                      deformed: CageMesh) -> np.ndarray:
    """Deformation Jacobians from the analytic coordinate gradients.

    J(x) = sum_i v'_i grad(omega_i)(x)^T with v'_i the deformed cage
    vertices. Agrees with jacobian_fd away from the cage surface.
    """
    source.check_same_topology(deformed)
    grads = mvc_gradient(points, source)               # (P, V, 3)
    return np.einsum("vd,pvg->pdg", deformed.vertices, grads)


def mvc_gradient(points: np.ndarray, cage: CageMesh,
                 chunk_size: int | None = None) -> np.ndarray:
    """Spatial gradients of the normalized coordinates.

    Returns (P, V, 3) with entry [p, i, :] = d omega_i / dx at point p.
    Rows satisfy sum_i grad omega_i = 0 and sum_i grad omega_i v_i^T = I.
    Raises NearSurfaceError for points closer to the cage surface than
    SURFACE_GUARD times its bbox diagonal, where the derivative blows up.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {points.shape}")
    guard = SURFACE_GUARD * cage.bbox_diagonal()
    dist = surface_distance(points, cage)
    if np.any(dist < guard):
        bad = int(np.argmin(dist))
        raise NearSurfaceError(
            f"point {bad} is {dist[bad]:.3e} from the cage surface "
            f"(< {guard:.3e}); gradients are not defined there")
    n_tri = len(cage.triangles)
    if chunk_size is None:
        chunk_size = int(np.clip(200_000 // max(n_tri, 1), 32, 4096))
    grads = []
    for start in range(0, len(points), chunk_size):
        grads.append(_gradient_chunk(points[start:start + chunk_size], cage))
    return np.concatenate(grads, axis=0) if grads else \
        np.zeros((0, len(cage.vertices), 3))


def _gradient_chunk(x: np.ndarray, cage: CageMesh) -> np.ndarray:
    n_pts = len(x)
    n_vert = len(cage.vertices)
    tri = cage.triangles
    eye = np.eye(3)

    geo = _spherical_setup(x, cage)
    e, dcorn, theta, cr, det = (geo["e"], geo["dcorn"], geo["theta"],
                                geo["cr"], geo["det"])
    m = _vector_area(geo)
    det_safe = np.where(np.abs(det) < 1e-300, 1.0, det)
    lam = [np.einsum("ptx,ptx->pt", m, cr[k]) / det_safe for k in range(3)]
    drop = np.abs(det) < DET_SKIP

    # d(u_hat)/dx per corner: (u u^T - I) / d,  symmetric.
    Du = [(np.einsum("ptx,pty->ptxy", e[k], e[k]) - eye)
          / dcorn[k][:, :, None, None] for k in range(3)]

    def skew(v):
        K = np.zeros(v.shape[:-1] + (3, 3))
        K[..., 0, 1] = -v[..., 2]
        K[..., 0, 2] = v[..., 1]
        K[..., 1, 0] = v[..., 2]
        K[..., 1, 2] = -v[..., 0]
        K[..., 2, 0] = -v[..., 1]
        K[..., 2, 1] = v[..., 0]
        return K

    # Dm = 1/2 sum_k (N_k grad(theta_k)^T + theta_k DN_k)
    Dm = np.zeros((n_pts, len(tri), 3, 3))
    for k in range(3):
        a, b = e[(k + 1) % 3], e[(k + 2) % 3]
        Da, Db = Du[(k + 1) % 3], Du[(k + 2) % 3]
        Dcr = -skew(b) @ Da + skew(a) @ Db
        s = np.linalg.norm(cr[k], axis=2)
        s_safe = np.where(s < 1e-300, 1.0, s)[:, :, None]
        N = cr[k] / s_safe
        grad_s = np.einsum("ptxy,ptx->pty", Dcr, N)
        # cos(theta) = a . b; Du is symmetric so grad(cos) = Da b + Db a.
        cos_t = np.einsum("ptx,ptx->pt", a, b)
        grad_cos = np.einsum("ptxy,pty->ptx", Da, b) \
            + np.einsum("ptxy,pty->ptx", Db, a)
        grad_theta = cos_t[:, :, None] * grad_s \
            - np.sin(theta[k])[:, :, None] * grad_cos
        DN = (Dcr - np.einsum("ptx,pty->ptxy", N,
                              np.einsum("ptx,ptxy->pty", N, Dcr))) / s_safe[..., None]
        Dm += 0.5 * (np.einsum("ptx,pty->ptxy", N, grad_theta)
                     + theta[k][:, :, None, None] * DN)

    M = sum(lam[k][:, :, None, None] * Du[k] for k in range(3))
    rhs = Dm - M
    grad_w = np.zeros((n_pts, n_vert, 3))
    flat_p3 = np.repeat(np.arange(n_pts), len(tri))
    for k in range(3):
        grad_lam = np.einsum("ptx,ptxy->pty", cr[k], rhs) \
            / det_safe[:, :, None]
        contrib = grad_lam / dcorn[k][:, :, None] \
            + (lam[k] / dcorn[k] ** 2)[:, :, None] * e[k]
        contrib = np.where(drop[:, :, None], 0.0, contrib)
        flat_v = np.tile(tri[:, k], n_pts)
        for c in range(3):
            grad_w[:, :, c] += np.bincount(
                flat_p3 * n_vert + flat_v, weights=contrib[:, :, c].ravel(),
                minlength=n_pts * n_vert).reshape(n_pts, n_vert)

    # Forward weights for the normalization term, reusing lam.
    w = np.zeros((n_pts, n_vert))
    for k in range(3):
        contrib = np.where(drop, 0.0, lam[k] / dcorn[k])
        flat_v = np.tile(tri[:, k], n_pts)
        w += np.bincount(flat_p3 * n_vert + flat_v, weights=contrib.ravel(),
                         minlength=n_pts * n_vert).reshape(n_pts, n_vert)
    total = w.sum(axis=1)
    omega = w / total[:, None]
    grad_total = grad_w.sum(axis=1)                      # (P, 3)
    return (grad_w - omega[:, :, None] * grad_total[:, None, :]) \
        / total[:, None, None]


def _spherical_setup(x: np.ndarray, cage: CageMesh):
    """Spherical geometry: unit directions, distances, arcs, crosses, dets.

    Returns a dict of arrays over (P points, T triangles, 3 corners).
    """
    verts = cage.vertices
    tri = cage.triangles
    u = verts[None, :, :] - x[:, None, :]            # (P, V, 3)
    d = np.linalg.norm(u, axis=2)                    # (P, V)
    d_safe = np.maximum(d, 1e-300)
    uh = u / d_safe[:, :, None]

    e = [uh[:, tri[:, k], :] for k in range(3)]      # 3 x (P, T, 3)
    dcorn = [d_safe[:, tri[:, k]] for k in range(3)]  # 3 x (P, T)

    # Arc angle opposite corner k, from the chord length (stable for both
    # tiny and obtuse angles).
    theta = []
    for k in range(3):
        chord = np.linalg.norm(e[(k + 1) % 3] - e[(k + 2) % 3], axis=2)
        theta.append(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0)))

    # cr[k] = e_{k+1} x e_{k+2}: arc-plane normals scaled by sin(theta_k),
    # and simultaneously the Cramer adjugate rows of U = [e0 e1 e2].
    cr = [np.cross(e[(k + 1) % 3], e[(k + 2) % 3]) for k in range(3)]
    det = np.einsum("ptx,ptx->pt", e[0], cr[0])
    return {"e": e, "dcorn": dcorn, "theta": theta, "cr": cr, "det": det}


def _vector_area(geo) -> np.ndarray:
    """m = 1/2 sum_k theta_k * cr_k / |cr_k|, guarded against |cr| ~ 0."""
    m = np.zeros_like(geo["cr"][0])
    for k in range(3):
        s = np.linalg.norm(geo["cr"][k], axis=2)
        s_safe = np.where(s < 1e-300, 1.0, s)
        m += 0.5 * (geo["theta"][k] / s_safe)[:, :, None] * geo["cr"][k]
    return m
