"""Fitting a deformed cage so the enclosed model matches a target shape.

The deformed cage is found by direct optimization: tie the given source
points to the source cage once via mean value coordinates (the weight
matrix W is independent of the deformed cage, so deformed sample
positions are just W @ C for candidate vertices C), and descend an
alignment-plus-regularization loss with Adam on the vertex offsets.

Nearest-neighbor assignments for the alignment term are refreshed every
iteration; gradients hold the current assignments fixed, the usual
ICP-style treatment of a piecewise-smooth objective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cage import CageMesh, winding_numbers
from .errors import FitDivergedError
from .metrics import as_points
from .mvc import mvc_weights

# Adam's moment decay rates and denominator guard, and how many iterations
# the best loss may improve by less than convergence_tol before the fit
# counts as converged.
ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPS = 1e-8
CONVERGENCE_WINDOW = 20


@dataclass
class FitConfig:
    """Knobs for fit_deformed_cage.

    step_size is relative to the source cage diagonal. normal_weight
    scales the face-flip penalty against the alignment term; it is the
    objective's one free ratio, since Adam's steps do not change when
    both terms are scaled alike.
    """

    iterations: int = 500
    step_size: float = 0.01
    normal_weight: float = 0.05
    convergence_tol: float = 1e-5


@dataclass
class FitReport:
    """Per-iteration record of a cage fit.

    loss_trace columns are total, alignment and flip penalty, the last
    already multiplied by normal_weight, so the last two sum to the first.
    best_trace is the running minimum of the total; final_chamfer is the
    alignment term (a chamfer distance) of the best-loss iterate.
    outside_fraction is the share of source samples outside the source cage.
    """

    loss_trace: np.ndarray          # (K, 3)
    best_trace: np.ndarray          # (K,)
    final_chamfer: float
    iterations_run: int
    converged: bool
    outside_fraction: float = 0.0


def alignment_loss(positions: np.ndarray, target_points: np.ndarray):
    """Symmetric chamfer alignment between moved samples and a target.

    Returns (loss, gradient) where the gradient is with respect to the
    sample positions, holding the two nearest-neighbor assignments fixed.
    """
    positions = np.asarray(positions, dtype=np.float64)
    target_points = np.asarray(target_points, dtype=np.float64)
    n_pos = len(positions)
    n_tgt = len(target_points)
    d_pt, j_pt = cKDTree(target_points).query(positions, k=1)
    d_tp, j_tp = cKDTree(positions).query(target_points, k=1)
    loss = float(np.mean(d_pt ** 2) + np.mean(d_tp ** 2))
    grad = (2.0 / n_pos) * (positions - target_points[j_pt])
    np.add.at(grad, j_tp, (2.0 / n_tgt) * (positions[j_tp] - target_points))
    return loss, grad


def _normal_term(vertices: np.ndarray, triangles: np.ndarray,
                 source_normals: np.ndarray):
    """Face-flip penalty sum(1 - n_f . n0_f) and its vertex gradient."""
    v0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - v0
    e2 = vertices[triangles[:, 2]] - v0
    c = np.cross(e1, e2)
    cn = np.linalg.norm(c, axis=1)
    ok = cn > 1e-300
    cn_safe = np.where(ok, cn, 1.0)
    n = c / cn_safe[:, None]
    dots = np.einsum("ij,ij->i", n, source_normals)
    loss = float(np.sum(np.where(ok, 1.0 - dots, 0.0)))

    # d(1 - n.n0)/dc = -(I - n n^T) n0 / |c|
    g = -(source_normals - n * dots[:, None]) / cn_safe[:, None]
    g = np.where(ok[:, None], g, 0.0)
    grad = np.zeros_like(vertices)
    np.add.at(grad, triangles[:, 0], np.cross(e1 - e2, g))
    np.add.at(grad, triangles[:, 1], np.cross(e2, g))
    np.add.at(grad, triangles[:, 2], np.cross(g, e1))
    return loss, grad


def fit_deformed_cage(source, target, source_cage: CageMesh,
                      config: FitConfig | None = None):
    """Optimize deformed cage vertices so the source matches the target.

    source, target: GaussianCloud or (N, 3) array. Every point is used;
    subsample with metrics.sample_points beforehand, which also turns a
    TriangleMesh target into points.

    Returns (deformed_cage, FitReport). The returned cage carries the
    best-loss vertices seen, not necessarily the last iterate. Raises
    ValueError for fewer than one iteration and FitDivergedError if the
    loss leaves the realm of finite numbers.
    """
    config = config or FitConfig()
    if config.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {config.iterations}")
    samples = as_points(source, "source")
    targets = as_points(target, "target")

    outside = winding_numbers(samples, source_cage) < 0.5
    outside_fraction = float(np.mean(outside))
    if outside_fraction > 0.01:
        warnings.warn(
            f"{100 * outside_fraction:.1f}% of source samples lie outside "
            "the source cage; coordinates there are extrapolated and the "
            "fit may be poorly conditioned", stacklevel=2)

    weight_matrix = mvc_weights(samples, source_cage).weights    # (m, V)
    source_normals = source_cage.face_normals()

    n_vert = len(source_cage.vertices)
    delta = np.zeros((n_vert, 3))
    adam_m = np.zeros_like(delta)
    adam_v = np.zeros_like(delta)
    alpha = config.step_size * source_cage.bbox_diagonal()

    best_loss = np.inf
    best_delta = delta.copy()
    trace = []
    best_trace = []
    converged = False

    for it in range(1, config.iterations + 1):
        cage_now = source_cage.vertices + delta
        moved = weight_matrix @ cage_now
        # Positions past ~1e150 overflow squared distances downstream; the
        # comparison is False for NaN too, so this catches every blow-up.
        if not np.all(np.abs(moved) < 1e150):
            raise FitDivergedError(it)
        align, grad_pts = alignment_loss(moved, targets)
        normal, grad_normal = _normal_term(cage_now, source_cage.triangles,
                                           source_normals)
        normal = config.normal_weight * normal
        total = align + normal
        if not np.isfinite(total):
            raise FitDivergedError(it)
        trace.append((total, align, normal))
        if total < best_loss:
            best_loss, best_align = total, align
            best_delta = delta.copy()
        best_trace.append(best_loss)

        grad = weight_matrix.T @ grad_pts + config.normal_weight * grad_normal
        adam_m = ADAM_DECAY1 * adam_m + (1.0 - ADAM_DECAY1) * grad
        adam_v = ADAM_DECAY2 * adam_v + (1.0 - ADAM_DECAY2) * grad * grad
        m_hat = adam_m / (1.0 - ADAM_DECAY1 ** it)
        v_hat = adam_v / (1.0 - ADAM_DECAY2 ** it)
        delta = delta - alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        if len(best_trace) > CONVERGENCE_WINDOW:
            then = best_trace[-CONVERGENCE_WINDOW - 1]
            if (then - best_loss) < config.convergence_tol * max(abs(then),
                                                                 1e-300):
                converged = True
                break

    fitted = source_cage.with_vertices(source_cage.vertices + best_delta,
                                       validate=False)
    report = FitReport(
        loss_trace=np.asarray(trace),
        best_trace=np.asarray(best_trace),
        final_chamfer=best_align,
        iterations_run=len(trace),
        converged=converged,
        outside_fraction=outside_fraction,
    )
    return fitted, report
