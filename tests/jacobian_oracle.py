"""Analytic deformation Jacobians, kept as a test oracle for jacobian_fd.

The product estimates the warp Jacobian by central differences
(cagewarp.transport.jacobian_fd). This module differentiates the mean
value coordinates in closed form instead, sharing only the spherical
geometry of the weight kernel, so the two estimators are independent
checks on each other.
"""

import numpy as np

from cagewarp.cage import CageMesh, surface_distance
from cagewarp.errors import NearSurfaceError
from cagewarp.mvc import DET_SKIP, _spherical_setup, _vector_area

# Gradients are refused within this fraction of the diagonal from the cage.
SURFACE_GUARD = 1e-8


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
