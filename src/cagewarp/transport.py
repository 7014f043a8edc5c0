"""Carrying splat covariances through a cage deformation.

The deformation x -> f(x) defined by a cage pair is locally linear, so a
Gaussian at x with covariance Sigma maps to one at f(x) with covariance
J Sigma J^T, where J is the Jacobian of f at x. J is estimated by central
finite differences through the full deformation.

Computing a Jacobian per splat is wasteful when nearby splats share
essentially the same local map, so Jacobians are evaluated at a sampled
subset of centers ("sites"). Each site also gets a gradient of J, fitted
by least squares to its nearest other sites (least-squares gradient
reconstruction, Barth & Jespersen 1989), and every splat takes its
nearest site's Jacobian extrapolated to its own position along that
gradient. The shared field's error then falls with the square of the
site spacing, not linearly. Nearest is cKDTree.query's answer, ties
included; a gradient block holds at most CHUNK_PAIRS (site, neighbour) pairs.

A partial-strength edit blends the identity with the full deformation
(blend_deformation) instead of deforming again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .cage import (CHUNK_PAIRS, CageMesh, TriangleMesh, as_points, det3,
                   surface_distance)
from .errors import NearSurfaceError
from .mvc import mvc_weights
from .rotations import matrix_to_quat
from .splats import GaussianCloud, covariances_of

# |det J| at or below this marks a site as singular: the local map
# collapses a direction and the transported covariance is degenerate.
# It sits above the rounding noise of jacobian_fd: the MVC sums carry
# about one ulp of the cage coordinates, divided by the step, so an
# exactly collapsed direction reads as |det J| up to about 3e-12 on box
# cages around the origin, and more on cages far from it.
SINGULAR_DET = 1e-9

# Relative finite-difference step, as a fraction of the cage diagonal.
FD_STEP_FRACTION = 1e-5

# Variances are clamped here before sqrt/log so collapsed covariances
# still produce finite log-scales.
VARIANCE_FLOOR = 1e-18

# Sweeps of cyclic Jacobi that re-factor a transported covariance. On
# 200k random SPD matrices (variances 1e-18 to 1e4, repeated spectra and
# near-diagonal ones included) the worst relative reconstruction error
# was 3e-6 after three sweeps and 1.6e-15 after four, as after five.
JACOBI_SWEEPS = 4

# Each site's gradient of J is fitted over this many nearest other sites.
GRADIENT_NEIGHBORS = 10

# A site whose gradient fit leaves a relative residual |R - D G| / |R|
# above this keeps a zero gradient: J is far from linear there, as across
# the kinks a thin template cage puts into a flat cloud. On a z = 0 cloud
# of 50k splats with 1000 sites, unlimited gradients made the covariance
# p95 29 times nearest sites' (0.035 against 0.0012), and this limit 1.3
# times; a limit of 0.1 gave back most of the gain on a spherical shell.
GRADIENT_RESIDUAL_LIMIT = 0.3

# D^T D is inverted with a ridge of this fraction of its trace, which one
# refinement step takes back out where D^T D is well conditioned. Along a
# direction the neighbours do not span, such as the normal of a coplanar
# set, the gradient stays at rounding level instead of blowing up.
GRADIENT_RIDGE = 1e-8


@dataclass
class JacobianField:
    """Jacobians and their gradients sampled at a subset of points, shared
    via nearest site.

    A site is singular where |det J| <= SINGULAR_DET and inverted where
    det J < 0; the pipeline counts both per output from one determinant.

    site_indices : (m,) int
        Rows of the original point array where Jacobians were evaluated,
        in increasing order.
    site_jacobians : (m, 3, 3) float
        Jacobian of the deformation at each site.
    assignment : (n,) int
        For every original point, the row in site_jacobians it uses: its
        nearest site.
    gradients : (m, 3, 9) float or None
        gradients[s, a] is the derivative of site s's flattened Jacobian
        along axis a: a point x assigned to s takes
        J_s + sum_a (x - x_s)_a gradients[s, a]. None when every point is
        a site or there are fewer than 4 sites.
    limited_sites : int
        Sites the residual limiter left at a zero gradient.
    """

    site_indices: np.ndarray
    site_jacobians: np.ndarray
    assignment: np.ndarray
    gradients: np.ndarray | None = None
    limited_sites: int = 0

    def span_jacobians(self, points: np.ndarray, lo: int,
                       hi: int) -> np.ndarray:
        """Jacobians of points[lo:hi], the points the field was built
        on. Gathering one gradient axis at a time keeps the scratch to one
        array of the result's size."""
        rows = self.assignment[lo:hi]
        jac = self.site_jacobians[rows]
        if self.gradients is not None:
            offset = points[lo:hi] - points[self.site_indices[rows]]
            for axis in range(3):
                step = self.gradients[rows, axis].reshape(-1, 3, 3)
                step *= offset[:, axis, None, None]
                jac += step
        return jac


def sample_rows(n: int, count: int, seed: int) -> np.ndarray:
    """count distinct rows of n drawn without replacement for a seed, in
    increasing order; every row when count >= n."""
    if count >= n:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=count, replace=False))


def jacobian_fd(points: np.ndarray, source: CageMesh,
                deformed: TriangleMesh) -> np.ndarray:
    """Deformation Jacobians by central differences, (P, 3, 3).

    The step starts at FD_STEP_FRACTION of the source cage diagonal and
    is halved per point (at most four times) until the whole stencil stays
    on one side of the cage surface; points still too close then raise
    NearSurfaceError, since the deformation is discontinuous across the
    cage. The 6P stencil points go through mvc_weights with the deformed
    cage, which holds their weight rows one MVC chunk at a time: beyond
    the stencil and its (6P, 3) image, memory does not grow with P.
    """
    source.check_same_topology(deformed)
    points = as_points(points, "points")
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

    # Stencil x +/- h e_a for each point and axis a -> (P, 3, 2, 3).
    step = h[:, None, None] * np.eye(3)
    x = points[:, None, :]
    stencil = np.stack([x + step, x - step], axis=2).reshape(-1, 3)
    mapped = mvc_weights(stencil, source, deformed).reshape(len(points), 3,
                                                            2, 3)
    # J[p, i, a] = d f_i / d x_a
    return (mapped[:, :, 0, :] - mapped[:, :, 1, :]).transpose(0, 2, 1) \
        / (2.0 * h)[:, None, None]


def build_jacobian_field(points: np.ndarray, source: CageMesh,
                         deformed: TriangleMesh, m: int = 10000,
                         seed: int = 0) -> JacobianField:
    """Sample m Jacobian sites from points, fit their gradients and
    assign every point to one.

    Sites are drawn uniformly without replacement (all points become sites
    when m >= len(points), and need no gradients). Each point takes its
    nearest site and each site's gradient is fitted over its
    GRADIENT_NEIGHBORS nearest others (_site_gradients), as cKDTree.query
    answers them: exact ties go the same way on every run of one scipy build.
    """
    points = as_points(points, "points")
    n = len(points)
    if m < 1:
        raise ValueError(f"site count must be >= 1, got {m}")

    site_indices = sample_rows(n, m, seed)
    sites = points[site_indices]
    jac = jacobian_fd(sites, source, deformed)
    field = JacobianField(site_indices=site_indices, site_jacobians=jac,
                          assignment=site_indices)
    if len(sites) < n:
        tree = cKDTree(sites)
        field.assignment = tree.query(points)[1]
        if len(sites) >= 4:
            field.gradients, field.limited_sites = _site_gradients(tree, jac)
    return field


def _site_gradients(tree: cKDTree, jac: np.ndarray):
    """Least-squares gradients of the site Jacobians, (m, 3, 9), and the
    number of sites the residual limiter left at zero.

    tree holds the m >= 4 sites. Site s fits G_s to minimize
    sum_n |J_n - J_s - (x_n - x_s) G_s|^2 over its k =
    min(GRADIENT_NEIGHBORS, m - 1) nearest other sites (tree.query's
    k + 1 nearest, less s) through the normal equations (see
    GRADIENT_RIDGE), inverted in closed form: a LAPACK call here would
    page in its code before MVC's scratch peak, about 0.8 MB more peak
    RSS. Sites are fitted in blocks of CHUNK_PAIRS // k, so beyond the
    (m, k + 1) neighbour table and the result no scratch grows with m. A
    fit whose relative residual exceeds GRADIENT_RESIDUAL_LIMIT is
    dropped. The fit is linear in the Jacobians and a constant field has
    zero gradient, so blending with the identity scales the gradients.
    """
    sites, m = tree.data, tree.n
    k = min(GRADIENT_NEIGHBORS, m - 1)
    table = tree.query(sites, k=k + 1)[1]
    flat = jac.reshape(m, 9)
    grad, limited = np.empty((m, 3, 9)), 0
    block = CHUNK_PAIRS // k
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        rows = table[lo:hi]
        # Drop the site itself (or, among more than k + 1 coincident sites,
        # the farthest row); sorted rows fix the order of the sums.
        other = np.argsort(rows == np.arange(lo, hi)[:, None], axis=1,
                           kind="stable")[:, :k]
        near = np.sort(np.take_along_axis(rows, other, axis=1), axis=1)
        d = sites[near] - sites[lo:hi, None]              # (block, k, 3)
        r = flat[near] - flat[lo:hi, None]                # (block, k, 9)
        dt = np.swapaxes(d, 1, 2)
        a, b = dt @ d, dt @ r
        ridge = GRADIENT_RIDGE * np.trace(a, axis1=1, axis2=2)
        ridged = a + ridge[:, None, None] * np.eye(3)
        # A symmetric matrix's inverse is its rows' pairwise cross products
        # over its determinant; only coincident neighbours leave it zero.
        adj = np.stack([np.cross(ridged[:, i - 2], ridged[:, i - 1])
                        for i in range(3)], axis=1)
        det = np.sum(ridged[:, 0] * adj[:, 0], axis=1)[:, None, None]
        inv = np.divide(adj, det, out=np.zeros_like(adj), where=det > 0.0)
        g = np.matmul(inv, b, out=grad[lo:hi])
        g += inv @ (b - a @ g)
        miss = np.linalg.norm(r - d @ g, axis=(1, 2))
        drop = miss > GRADIENT_RESIDUAL_LIMIT * np.linalg.norm(r, axis=(1, 2))
        g[drop] = 0.0
        limited += int(np.count_nonzero(drop))
    return grad, limited


def transform_covariance(jacobians: np.ndarray, rotations: np.ndarray,
                         log_scales: np.ndarray, first_row: int = 0):
    """Map Gaussian shapes through local Jacobians.

    Builds Sigma = R S S^T R^T from each (quaternion, log-scale) pair,
    forms J Sigma J^T by stacked matmuls, and refactors it into a proper
    rotation (det +1) and log-scales, eigenvalues in descending order, by
    JACOBI_SWEEPS sweeps of cyclic Jacobi on the product's lower triangle
    (_jacobi_eigh), so its rounding asymmetry never reaches the result.
    An eigenvector's sign is the one that fixed sequence of rotations
    gives, the last one negated where needed for det +1.
    Variances are floored at VARIANCE_FLOOR so singular Jacobians still
    yield finite scales. jacobians is (..., 3, 3) and broadcasts against
    the splats, so one (3, 3) matrix serves them all. A covariance that
    is not finite (a log-scale above about 354 overflows its variance)
    raises ValueError naming its splat, counted from first_row, before
    any floating-point warning.

    Returns (quaternions (..., 4), log_scales (..., 3)).
    """
    jacobians = np.asarray(jacobians, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        # J^T is copied, as in covariances_of: the same bits, without
        # BLAS's transposed-operand kernel and its code pages. Neither
        # factor outlives the product, which bounds the solver's scratch.
        cov = jacobians @ covariances_of(rotations, log_scales) \
            @ np.swapaxes(jacobians, -1, -2).copy()
        # The trace comes first: a finite sum bounds every step of the
        # solver (see _jacobi_eigh).
        finite = np.isfinite(cov[..., 0, 0] + cov[..., 1, 1] + cov[..., 2, 2]
                             + cov[..., 1, 0] + cov[..., 2, 0] + cov[..., 2, 1])
    if not np.all(finite):
        bad = first_row + int(np.argmin(finite.reshape(-1)))
        raise ValueError(f"splat {bad}: the transported covariance is not "
                         "finite (its scales or Jacobian overflow float64)")
    vals, vecs = _jacobi_eigh(cov)
    del cov                                     # bound the scratch
    return (matrix_to_quat(vecs),
            0.5 * np.log(np.maximum(vals, VARIANCE_FLOOR)))


def _jacobi_eigh(cov: np.ndarray):
    """Eigenvalues (..., 3), descending, and eigenvectors (..., 3, 3), as
    the columns of a proper rotation, of symmetric 3x3 matrices whose
    lower triangle is read.

    Cyclic Jacobi (Golub & Van Loan, Matrix Computations, 8.5; Kopp,
    arXiv physics/0610206) on the six lower-triangle component arrays:
    each sweep zeroes the (0, 1), (0, 2) and (1, 2) entries in turn. The
    rotation that zeroes a_pq has t = tan(theta) = sgn(h) a_pq / (|h| +
    hypot(h, a_pq)), with h = (a_qq - a_pp) / 2 and sgn(0) = 1, and t = 0
    where both vanish. So |t| <= 1, and on a positive semi-definite input
    no term exceeds the trace: neither a tiny a_pq nor a large finite
    trace raises a floating-point warning. A three-comparator network
    sorts the pairs (a sort kernel would page in code of its own), and
    the last column is negated where det3 is negative. Every step is per
    row, so a row's bits do not depend on its batch.
    """
    d = [cov[..., i, i] for i in range(3)]
    # off[k] is the entry off row and column k, as component arrays, and
    # v[j] eigenvector j, one (3, ...) array: one call updates its three
    # components, with the same products and sums.
    off = [cov[..., 2, 1], cov[..., 2, 0], cov[..., 1, 0]]
    v = list(np.eye(3).reshape((3, 3) + (1,) * d[0].ndim))
    for _ in range(JACOBI_SWEEPS):
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = off[r]
            h = 0.5 * (d[q] - d[p])
            den = np.abs(h) + np.hypot(h, apq)
            t = np.divide(np.where(h < 0.0, -apq, apq), den,
                          out=np.zeros_like(den), where=den > 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            t *= apq
            d[p], d[q] = d[p] - t, d[q] + t
            # a_rp is off[q] and a_rq is off[p].
            off[r], off[q], off[p] = (0.0, c * off[q] - s * off[p],
                                      s * off[q] + c * off[p])
            v[p], v[q] = c * v[p] - s * v[q], s * v[p] + c * v[q]
    for i, j in ((0, 1), (1, 2), (0, 1)):
        swap = d[j] > d[i]
        d[i], d[j] = np.where(swap, d[j], d[i]), np.where(swap, d[i], d[j])
        v[i], v[j] = np.where(swap, v[j], v[i]), np.where(swap, v[i], v[j])
    v[2] = v[2] * np.where(det3(v) < 0.0, -1.0, 1.0)
    return (np.stack(d, axis=-1),
            np.stack([np.stack(col, axis=-1) for col in v], axis=-1))


def deform_cloud(cloud: GaussianCloud, source: CageMesh,
                 deformed: TriangleMesh, update_covariance: bool = True,
                 m: int = 10000, seed: int = 0, center_chunk: int = 30000):
    """Deform a whole splat cloud through a cage pair.

    Centers move by coordinate interpolation; covariances are transported
    through a sampled Jacobian field (each splat's nearest site's
    Jacobian, carried to the splat along that site's gradient) unless
    update_covariance is off, in which case rotations and scales pass
    through untouched. The field is built first, so a site too near the
    cage surface fails before any center moves. Then one serial pass
    (_transported) moves the centers in spans of center_chunk splats,
    mapping their MVC rows through the deformed cage one CHUNK_PAIRS
    chunk at a time (no (center_chunk, V) weight matrix), and re-factors
    the covariances in blocks of CHUNK_PAIRS // 9 rows.
    Opacity and color coefficients always pass through bit-for-bit, as
    does splat order. Every step after the field is per row, so
    center_chunk (the splats per span) changes neither bits, nor order,
    nor the error a failing run raises.

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

    field = build_jacobian_field(cloud.centers, source, deformed, m=m,
                                 seed=seed) if update_covariance else None
    return _transported(
        cloud, field, center_chunk,
        lambda lo, hi: mvc_weights(cloud.centers[lo:hi], source,
                                   deformed)), field


def blend_deformation(cloud: GaussianCloud, full: GaussianCloud,
                      field: JacobianField | None, lam: float,
                      center_chunk: int = 30000):
    """Deform a splat cloud at strength lam, given its full deformation.

    full and field are deform_cloud's result for cloud and a cage pair.
    MVC reproduce linear functions and interpolate_cage is affine in lam,
    so, up to rounding, the pair interpolated at lam maps a center x to
    (1 - lam) x + lam x1 and has the Jacobian (1 - lam) I + lam J1 at each
    site, with gradient lam G1. All three are blended here, in the
    serial pass deform_cloud makes: no MVC runs and each splat keeps its
    site. The blend is per row, so its bits do not depend on
    center_chunk. Returns (new_cloud, blended field or None, as in
    deform_cloud); lam = 0 gives (cloud, None) and lam = 1 gives
    (full, field) themselves, not copies.
    """
    if center_chunk < 1:
        raise ValueError(f"center_chunk must be >= 1, got {center_chunk}")
    if lam == 0.0:
        return cloud, None
    if lam == 1.0:
        return full, field
    if field is not None:
        jac = (1.0 - lam) * np.eye(3) + lam * field.site_jacobians
        grad = None if field.gradients is None else lam * field.gradients
        field = replace(field, site_jacobians=jac, gradients=grad)
    # The increment form keeps an identical cage pair (full equal to
    # cloud) exact.
    return _transported(
        cloud, field, center_chunk,
        lambda lo, hi: cloud.centers[lo:hi]
        + lam * (full.centers[lo:hi] - cloud.centers[lo:hi])), field


def _transported(cloud: GaussianCloud, field: JacobianField | None,
                 center_chunk: int, move):
    """A copy of cloud with centers[lo:hi] = move(lo, hi) for each span
    of center_chunk rows, and covariances carried through field's
    Jacobians (unchanged when field is None).

    One loop on the calling thread moves every span's centers, and then
    re-factors the covariances in blocks of CHUNK_PAIRS // 9 rows over
    the whole cloud, so a run holds one mvc._Scratch buffer and the
    covariance scratch does not grow with center_chunk. Both steps are
    per row, so neither spans nor blocks set a bit, and the first
    failing step raises. More threads would not pay: this small-array
    numpy work holds the GIL, so theirs would convoy with this one.
    """
    n = len(cloud)
    out = {"centers": np.empty_like(cloud.centers)}
    for lo in range(0, n, center_chunk):
        hi = min(lo + center_chunk, n)
        out["centers"][lo:hi] = move(lo, hi)
    if field is not None:
        out.update(rotations=np.empty_like(cloud.rotations),
                   log_scales=np.empty_like(cloud.log_scales))
        # A (block, 3, 3) array is as large as a (T, P) array of an MVC
        # chunk.
        block = max(1, CHUNK_PAIRS // 9)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            jac = field.span_jacobians(cloud.centers, lo, hi)
            out["rotations"][lo:hi], out["log_scales"][lo:hi] = \
                transform_covariance(jac, cloud.rotations[lo:hi],
                                     cloud.log_scales[lo:hi], first_row=lo)
    return cloud.copy(**out)
