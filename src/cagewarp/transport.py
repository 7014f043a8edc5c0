"""Carrying splat covariances through a cage deformation.

The deformation x -> f(x) defined by a cage pair is locally linear, so a
Gaussian at x with covariance Sigma maps to one at f(x) with covariance
J Sigma J^T, where J is the Jacobian of f at x. J is estimated by central
finite differences through the full deformation.

Computing a Jacobian per splat is wasteful when nearby splats share
essentially the same local map, so Jacobians are evaluated at a sampled
subset of centers ("sites") and every splat uses its nearest site's
Jacobian.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .cage import CageMesh, surface_distance
from .errors import NearSurfaceError
from .mvc import deform_points, mvc_weights
from .rotations import matrix_to_quat
from .splats import GaussianCloud, covariances_of

# |det J| at or below this marks a site as singular: the local map
# collapses a direction and the transported covariance is degenerate.
SINGULAR_DET = 1e-12

# Relative finite-difference step, as a fraction of the cage diagonal.
FD_STEP_FRACTION = 1e-5

# Variances are clamped here before sqrt/log so collapsed covariances
# still produce finite log-scales.
VARIANCE_FLOOR = 1e-18


@dataclass
class JacobianField:
    """Jacobians sampled at a subset of points, shared via nearest-site.

    site_indices : (m,) int
        Rows of the original point array where Jacobians were evaluated,
        in increasing order.
    site_jacobians : (m, 3, 3) float
        Jacobian of the deformation at each site.
    assignment : (n,) int
        For every original point, the row in site_jacobians it uses.
    singular : (m,) bool
        Sites where |det J| <= SINGULAR_DET.
    """

    site_indices: np.ndarray
    site_jacobians: np.ndarray
    assignment: np.ndarray
    singular: np.ndarray

    @property
    def n_singular(self) -> int:
        return int(np.count_nonzero(self.singular))


def jacobian_fd(points: np.ndarray, source: CageMesh,
                deformed: CageMesh) -> np.ndarray:
    """Deformation Jacobians by central differences, (P, 3, 3).

    The step starts at FD_STEP_FRACTION of the source cage diagonal and
    is halved per point (at most four times) until the whole stencil stays
    on one side of the cage surface; points still too close then raise
    NearSurfaceError, since the deformation is discontinuous across the
    cage.
    """
    source.check_same_topology(deformed)
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    base = FD_STEP_FRACTION * source.bbox_diagonal()
    dist = surface_distance(points, source)
    h = np.full(len(points), base)
    for _ in range(4):
        h = np.where(h > 0.5 * dist, 0.5 * h, h)
    if np.any(h > 0.5 * dist):
        bad = int(np.argmin(dist - h))
        raise NearSurfaceError(
            f"point {bad} is {dist[bad]:.3e} from the cage surface; the "
            f"finite-difference stencil cannot avoid crossing it")

    # Stencil: for each point, +/- h along each axis -> (P, 3, 2, 3).
    offsets = np.zeros((len(points), 3, 2, 3))
    for axis in range(3):
        offsets[:, axis, 0, axis] = h
        offsets[:, axis, 1, axis] = -h
    stencil = (points[:, None, None, :] + offsets).reshape(-1, 3)
    mapped = deform_points(mvc_weights(stencil, source), deformed)
    mapped = mapped.reshape(len(points), 3, 2, 3)
    # J[p, i, a] = d f_i / d x_a
    return (mapped[:, :, 0, :] - mapped[:, :, 1, :]).transpose(0, 2, 1) \
        / (2.0 * h)[:, None, None]


def build_jacobian_field(points: np.ndarray, source: CageMesh,
                         deformed: CageMesh, m: int = 10000,
                         seed: int = 0) -> JacobianField:
    """Sample m Jacobian sites from points and assign every point to one.

    Sites are drawn uniformly without replacement (all points become sites
    when m >= len(points)). Assignment is nearest-site; exact distance
    ties break toward the lowest site row so results do not depend on
    k-d tree traversal order.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("cannot build a Jacobian field over zero points")
    if m < 1:
        raise ValueError(f"site count must be >= 1, got {m}")

    if m >= n:
        site_indices = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        site_indices = np.sort(rng.choice(n, size=m, replace=False))
    sites = points[site_indices]

    jac = jacobian_fd(sites, source, deformed)

    if len(site_indices) == n:
        assignment = np.arange(n)
    else:
        k = min(8, len(site_indices))
        dist, idx = cKDTree(sites).query(points, k=k)
        if k == 1:
            assignment = np.asarray(idx)
        else:
            tied = dist == dist[:, :1]
            assignment = np.where(tied, idx, len(site_indices)).min(axis=1)

    singular = np.abs(np.linalg.det(jac)) <= SINGULAR_DET
    return JacobianField(site_indices=site_indices, site_jacobians=jac,
                         assignment=assignment, singular=singular)


def transform_covariance(jacobians: np.ndarray, rotations: np.ndarray,
                         log_scales: np.ndarray):
    """Map Gaussian shapes through local Jacobians.

    Builds Sigma = R S S^T R^T from each (quaternion, log-scale) pair,
    forms J Sigma J^T, and refactors the symmetrized result by
    eigendecomposition into a proper rotation (det +1) and log-scales,
    eigenvalues in descending order. Variances are floored at
    VARIANCE_FLOOR so singular Jacobians still yield finite scales.

    Returns (quaternions (..., 4), log_scales (..., 3)).
    """
    jacobians = np.asarray(jacobians, dtype=np.float64)
    sigma = covariances_of(rotations, log_scales)
    sigma_new = np.einsum("...ij,...jk,...lk->...il", jacobians, sigma,
                          jacobians)
    sym = 0.5 * (sigma_new + np.swapaxes(sigma_new, -1, -2))
    vals, vecs = np.linalg.eigh(sym)          # ascending
    vals = vals[..., ::-1]
    vecs = np.ascontiguousarray(vecs[..., ::-1])
    flip = np.where(np.linalg.det(vecs) < 0.0, -1.0, 1.0)
    vecs[..., :, 2] *= flip[..., None]
    new_log_scales = 0.5 * np.log(np.maximum(vals, VARIANCE_FLOOR))
    return matrix_to_quat(vecs), new_log_scales


def _run_spans(func, spans, workers: int) -> None:
    """Apply func to each (lo, hi) span, optionally across threads.

    The span grid is fixed by the caller, so results are identical for any
    worker count; tasks write disjoint output slices.
    """
    if workers <= 1 or len(spans) <= 1:
        for span in spans:
            func(span)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(func, spans))


def deform_cloud(cloud: GaussianCloud, source: CageMesh, deformed: CageMesh,
                 update_covariance: bool = True, m: int = 10000,
                 seed: int = 0, center_chunk: int = 30000,
                 workers: int = 1):
    """Deform a whole splat cloud through a cage pair.

    Centers move by coordinate interpolation (in chunks of center_chunk);
    covariances are transported through a sampled Jacobian field unless
    update_covariance is off, in which case rotations and scales pass
    through untouched. Opacity and color coefficients always pass through
    bit-for-bit, as does splat order. workers > 1 runs the fixed chunk
    grid on a thread pool; the grid does not depend on the worker count,
    so neither do the results.

    Returns (new_cloud, field): field is the JacobianField used, or None
    when covariances were not transported. An exactly-identical cage pair
    short-circuits to a bit-exact copy of the input. The new cloud never
    shares an array with the input.
    """
    source.check_same_topology(deformed)
    if len(cloud) == 0:
        raise ValueError("cannot deform an empty cloud")
    if center_chunk < 1:
        raise ValueError(f"center_chunk must be >= 1, got {center_chunk}")

    if np.array_equal(source.vertices, deformed.vertices):
        return cloud.copy(), None

    spans = [(lo, min(lo + center_chunk, len(cloud)))
             for lo in range(0, len(cloud), center_chunk)]
    new_centers = np.empty_like(cloud.centers)

    def _move(span):
        lo, hi = span
        weights = mvc_weights(cloud.centers[lo:hi], source)
        new_centers[lo:hi] = deform_points(weights, deformed)

    _run_spans(_move, spans, workers)

    if not update_covariance:
        return replace(cloud.copy(), centers=new_centers), None

    field = build_jacobian_field(cloud.centers, source, deformed,
                                 m=m, seed=seed)
    quats = np.empty_like(cloud.rotations)
    log_scales = np.empty_like(cloud.log_scales)

    def _reshape(span):
        lo, hi = span
        jac = field.site_jacobians[field.assignment[lo:hi]]
        quats[lo:hi], log_scales[lo:hi] = transform_covariance(
            jac, cloud.rotations[lo:hi], cloud.log_scales[lo:hi])

    _run_spans(_reshape, spans, workers)

    return replace(cloud.copy(), centers=new_centers, log_scales=log_scales,
                   rotations=quats), field
