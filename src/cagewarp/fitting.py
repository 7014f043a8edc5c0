"""Fitting a deformed cage so the enclosed model matches a target shape.

The deformed cage is found by direct optimization: tie the given source
points to the source cage once via mean value coordinates (the weight
matrix W is independent of the deformed cage, so deformed sample
positions are just W @ C for candidate vertices C), and descend an
alignment-plus-regularization loss with Adam on the vertex offsets.

Gradients hold the current nearest-neighbor assignments fixed, the
usual ICP-style treatment of a piecewise-smooth objective. The fit keeps
both assignments, sample->target and target->sample, between iterations
(after the cached k-d tree of Nuechter, Lingemann & Hertzberg 2007):
each row keeps its CANDIDATES nearest reference rows and the distance to
the last of them, its reach, from its last k-d query. A reference row
off that list was at least the reach away then, and can have come nearer
only by the slack: the row's own displacement since (targets do not
move), or for a target row a bound on every sample's displacement. So
the nearest listed candidate is the exact nearest neighbor when it is
strictly nearer than the second one and than reach - slack, both with a
relative CERTIFY_MARGIN for rounding. Only the other rows are queried
again, and the assignments equal those of fresh queries.

The descent runs coarse to fine (sampling for ICP after Rusinkiewicz &
Levoy 2001). A coarse stage descends on every COARSE_STRIDE-th row of
the k-d order of the samples and of the targets, a spatially stratified
tenth of each; a few dozen cage vertices are as well determined by it as
by every row. A refine stage then starts from the coarse stage's best
offsets and descends on all rows, with fresh Adam moments and the step
scaled by REFINE_STEP: Adam moves each offset by up to about its step
per iteration (Kingma & Ba 2015), so a full step keeps it from settling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cage import (CageMesh, TriangleMesh, as_points, cross, dot,
                   winding_numbers)
from .errors import FitDivergedError
from .mvc import mvc_weights

# Adam's moment decay rates and denominator guard, and how many iterations
# the best loss may improve by less than convergence_tol before the fit
# counts as converged.
ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPS = 1e-8
CONVERGENCE_WINDOW = 20
# Nearest reference rows each row of the fit's nearest-neighbor
# assignments keeps between iterations, and the relative margin by which
# a listed candidate must win to be certified without a k-d query.
CANDIDATES = 4
CERTIFY_MARGIN = 1e-12
# The coarse stage's row stride; the iterations of the budget it leaves to
# the refine stage; the refine stage's step as a share of the coarse one;
# and the rows per cage vertex both coarse subsets need, or the fit runs
# the refine stage alone.
COARSE_STRIDE = 10
REFINE_ITERATIONS = 40
REFINE_STEP = 0.5
COARSE_ROWS_PER_VERTEX = 10
# Adam's step as a fraction of the source cage diagonal, and the weight
# of the face-flip penalty against the alignment term. The weight is the
# objective's one free ratio, since Adam's steps do not change when both
# terms are scaled alike.
STEP_SIZE = 0.01
NORMAL_WEIGHT = 0.05


@dataclass
class FitReport:
    """Per-iteration record of a cage fit.

    loss_trace columns are total, alignment and flip penalty, the last
    already multiplied by NORMAL_WEIGHT, so the last two sum to the first.
    best_trace is the running minimum of the total; final_chamfer is the
    alignment term (a chamfer distance) of the best-loss iterate. Both
    traces cover the refine stage only, whose losses are taken on every
    row; iterations_run counts both stages, coarse_iterations the coarse
    one, on coarse_samples samples and coarse_targets targets (all 0 when
    it was skipped).
    outside_fraction is the share of source samples outside the source cage.
    sample_rows and target_rows count the rows whose nearest neighbor was
    assigned, summed over iterations; sample_requeries and
    target_requeries count those that took a k-d query because no bound
    proved them unchanged. Every row is queried in a stage's first
    iteration.
    """

    loss_trace: np.ndarray          # (iterations_run - coarse_iterations, 3)
    best_trace: np.ndarray          # (iterations_run - coarse_iterations,)
    final_chamfer: float
    iterations_run: int
    converged: bool
    outside_fraction: float = 0.0
    coarse_iterations: int = 0
    coarse_samples: int = 0
    coarse_targets: int = 0
    sample_rows: int = 0
    target_rows: int = 0
    sample_requeries: int = 0
    target_requeries: int = 0


class _Candidates:
    """The CANDIDATES nearest reference rows of each query row, as of the
    row's last k-d query, and the distance to the last of them (its
    reach; infinite when every reference row is listed)."""

    def __init__(self, n_rows: int, n_refs: int):
        self.k = min(CANDIDATES, n_refs)
        self.index = np.zeros((self.k, n_rows), dtype=np.intp)
        self.reach = np.zeros(n_rows)
        self.requeries = 0

    def nearest(self, queries, references, slack, tree, order):
        """Nearest reference row of every query row, and the rows queried.

        slack[i] bounds how much nearer than at row i's last query any
        reference row can have come (np.inf before its first query).
        tree() returns the k-d tree of references; re-queried rows go to
        it in the spatial order `order` of the query rows.
        """
        # Candidate-major (k, rows) arrays, gathered one component at a
        # time: several times faster than gathering (rows, k, 3) blocks.
        # np.sqrt(dot(diff, diff)) sums the components in the order
        # cKDTree does, so it equals cKDTree's distances bit for bit.
        diff = [references[:, c][self.index] - queries[:, c]
                for c in range(3)]
        dist = np.sqrt(dot(diff, diff))
        d1 = dist.min(axis=0)
        # The nearest candidate wins when no other is within the margin.
        wins = dist * (1.0 - CERTIFY_MARGIN) <= d1
        sure = (wins.sum(axis=0) == 1) \
            & (d1 < self.reach * (1.0 - CERTIFY_MARGIN) - slack)
        nearest = (self.index * wins).sum(axis=0)      # right where sure
        rows = order[~sure[order]]
        if len(rows):
            tree = tree()
            d, j = tree.query(queries[rows], k=self.k)
            d, j = d.reshape(len(rows), -1), j.reshape(len(rows), -1)
            self.index[:, rows] = j.T
            self.reach[rows] = (np.inf if self.k == len(references)
                                else d[:, -1])
            nearest[rows] = j[:, 0]
            if self.k > 1:
                # An exact tie goes the way a plain k=1 query breaks it.
                tie = rows[d[:, 0] == d[:, 1]]
                if len(tie):
                    nearest[tie] = tree.query(queries[tie], k=1)[1]
            self.requeries += len(rows)
        return nearest, rows


class _NeighborState:
    """The fit's two nearest-neighbor assignments, kept between iterations.

    A target's slack adds up the largest sample displacement of every
    iteration since its last query. The target tree is built once, a
    tree of the samples only in iterations that re-query some target.
    """

    def __init__(self, samples: np.ndarray, targets: np.ndarray):
        self.targets = targets
        self.target_tree = cKDTree(targets)
        # Samples move little against each other, so their rest positions
        # keep giving a good spatial order for their queries.
        self.sample_order = cKDTree(samples).indices
        self.to_target = _Candidates(len(samples), len(targets))
        self.to_sample = _Candidates(len(targets), len(samples))
        # Sample positions at each sample's last query and at the last
        # call; infinitely far before the first, so nothing is certified.
        self.anchor = np.full((len(samples), 3), np.inf)
        self.previous = self.anchor.copy()
        self.target_slack = np.zeros(len(targets))

    def assign(self, positions):
        """Nearest target of every sample and nearest sample of every
        target, equal to those of fresh k=1 queries."""
        moved = (positions - self.anchor).T
        sample_slack = np.sqrt(dot(moved, moved))
        step = (positions - self.previous).T
        self.target_slack += np.sqrt(dot(step, step)).max()
        self.previous = positions.copy()

        j_pt, rows = self.to_target.nearest(
            positions, self.targets, sample_slack,
            lambda: self.target_tree, self.sample_order)
        self.anchor[rows] = positions[rows]

        j_tp, rows = self.to_sample.nearest(
            self.targets, positions, self.target_slack,
            lambda: cKDTree(positions), self.target_tree.indices)
        self.target_slack[rows] = 0.0
        return j_pt, j_tp


def alignment_loss(positions: np.ndarray, target_points: np.ndarray,
                   state: _NeighborState | None = None):
    """Symmetric chamfer alignment between moved samples and a target.

    Returns (loss, gradient) where the gradient is with respect to the
    sample positions, holding the two nearest-neighbor assignments fixed.
    Without a state both assignments come from fresh k-d queries; with
    the fit's state (for these target_points) they come from its
    certified candidates, with the same result.
    """
    positions = as_points(positions, "positions")
    target_points = as_points(target_points, "target_points")
    if state is None:
        j_pt = cKDTree(target_points).query(positions, k=1)[1]
        j_tp = cKDTree(positions).query(target_points, k=1)[1]
    else:
        j_pt, j_tp = state.assign(positions)
    to_target = positions - target_points[j_pt]
    to_sample = positions[j_tp] - target_points
    loss = float(np.mean(np.sqrt(dot(to_target.T, to_target.T)) ** 2)
                 + np.mean(np.sqrt(dot(to_sample.T, to_sample.T)) ** 2))
    grad = (2.0 / len(positions)) * to_target
    np.add.at(grad, j_tp, (2.0 / len(target_points)) * to_sample)
    return loss, grad


def _normal_term(vertices: np.ndarray, triangles: np.ndarray,
                 source_normals: np.ndarray):
    """Face-flip penalty sum(1 - n_f . n0_f) and its vertex gradient, on
    component arrays; a bincount per component sums the corners."""
    v0, v1, v2 = (vertices[triangles[:, k]].T for k in range(3))
    e1, e2 = v1 - v0, v2 - v0
    c = cross(e1, e2)
    cn = np.sqrt(dot(c, c))
    ok = cn > 1e-300
    cn_safe = np.where(ok, cn, 1.0)
    n = [cj / cn_safe for cj in c]
    n0 = source_normals.T
    dots = dot(n, n0)
    loss = float(np.sum(np.where(ok, 1.0 - dots, 0.0)))

    # d(1 - n.n0)/dc = -(I - n n^T) n0 / |c|
    g = [np.where(ok, -(n0[j] - n[j] * dots) / cn_safe, 0.0)
         for j in range(3)]
    corners = np.hstack([cross(e1 - e2, g), cross(e2, g), cross(g, e1)])
    return loss, np.stack([np.bincount(triangles.T.ravel(), w, len(vertices))
                           for w in corners], axis=1)


def _stratified_rows(order: np.ndarray) -> np.ndarray:
    """Every COARSE_STRIDE-th row of a k-d order, sorted: one row from each
    run of COARSE_STRIDE neighbouring rows, so the subset spreads over the
    set as the set does."""
    return np.sort(order[::COARSE_STRIDE])


@dataclass
class _Descent:
    """What one stage of the fit's descent found."""

    best_delta: np.ndarray
    best_align: float
    trace: list
    best_trace: list
    converged: bool


def _descend(weight_matrix, targets, neighbors, source_cage, source_normals,
             convergence_tol, alpha, delta, budget, first):
    """Adam on the cage vertex offsets, from delta with fresh moments, for
    at most budget iterations. Iterations are numbered from first + 1 in
    a FitDivergedError."""
    adam_m = np.zeros_like(delta)
    adam_v = np.zeros_like(delta)
    best_loss = np.inf
    out = _Descent(delta.copy(), np.nan, [], [], False)
    # Moved samples or targets past ~1e150 overflow squared distances
    # downstream; NaN fails the comparison too, so this catches blow-ups.
    far_targets = not np.all(np.abs(targets) < 1e150)

    for it in range(1, budget + 1):
        cage_now = source_cage.vertices + delta
        # One BLAS product of the whole matrix, not mvc's per-row rule: it
        # has no chunk grid, and it runs every iteration.
        moved = weight_matrix @ cage_now
        if far_targets or not np.all(np.abs(moved) < 1e150):
            raise FitDivergedError(first + it)
        align, grad_pts = alignment_loss(moved, targets, neighbors)
        normal, grad_normal = _normal_term(cage_now, source_cage.triangles,
                                           source_normals)
        normal = NORMAL_WEIGHT * normal
        total = align + normal
        if not np.isfinite(total):
            raise FitDivergedError(first + it)
        out.trace.append((total, align, normal))
        if total < best_loss:
            best_loss, out.best_align = total, align
            out.best_delta = delta.copy()
        out.best_trace.append(best_loss)

        grad = weight_matrix.T @ grad_pts + NORMAL_WEIGHT * grad_normal
        adam_m = ADAM_DECAY1 * adam_m + (1.0 - ADAM_DECAY1) * grad
        adam_v = ADAM_DECAY2 * adam_v + (1.0 - ADAM_DECAY2) * grad * grad
        m_hat = adam_m / (1.0 - ADAM_DECAY1 ** it)
        v_hat = adam_v / (1.0 - ADAM_DECAY2 ** it)
        delta = delta - alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        if len(out.best_trace) > CONVERGENCE_WINDOW:
            then = out.best_trace[-CONVERGENCE_WINDOW - 1]
            if (then - best_loss) < convergence_tol * max(abs(then), 1e-300):
                out.converged = True
                break
    return out


def fit_deformed_cage(source, target, source_cage: CageMesh,
                      iterations: int = 500, convergence_tol: float = 1e-5):
    """Optimize deformed cage vertices so the source matches the target.

    source, target: (N, 3) point arrays (cage.as_points). Every point is
    used; subsample with metrics.sample_points beforehand, which also
    turns a TriangleMesh target into points.

    iterations bounds both stages together. The coarse stage may take all
    but REFINE_ITERATIONS of them; it is skipped when that leaves it none
    or either coarse subset has fewer than COARSE_ROWS_PER_VERTEX rows per
    cage vertex. A stage stops once its best loss improves by a relative
    less than convergence_tol over CONVERGENCE_WINDOW iterations.

    Returns (deformed_cage, FitReport). The returned cage is a
    TriangleMesh, as a fit may invert it, and carries the refine stage's
    best-loss vertices, not necessarily the last iterate.
    Raises ValueError for fewer than one iteration and FitDivergedError if
    the loss leaves the realm of finite numbers.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
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

    neighbors = _NeighborState(samples, targets)
    sample_sub = _stratified_rows(neighbors.sample_order)
    target_sub = _stratified_rows(neighbors.target_tree.indices)
    delta = np.zeros((len(source_cage.vertices), 3))
    alpha = STEP_SIZE * source_cage.bbox_diagonal()

    coarse_iterations = coarse_samples = coarse_targets = 0
    states = [neighbors]
    floor = COARSE_ROWS_PER_VERTEX * len(source_cage.vertices)
    if iterations > REFINE_ITERATIONS \
            and min(len(sample_sub), len(target_sub)) >= floor:
        states.append(_NeighborState(samples[sample_sub],
                                     targets[target_sub]))
        coarse = _descend(weight_matrix[sample_sub], targets[target_sub],
                          states[-1], source_cage, source_normals,
                          convergence_tol, alpha, delta,
                          iterations - REFINE_ITERATIONS, 0)
        delta = coarse.best_delta
        alpha = REFINE_STEP * alpha
        coarse_iterations = len(coarse.trace)
        coarse_samples, coarse_targets = len(sample_sub), len(target_sub)

    refine = _descend(weight_matrix, targets, neighbors, source_cage,
                      source_normals, convergence_tol, alpha, delta,
                      iterations - coarse_iterations, coarse_iterations)
    refine_iterations = len(refine.trace)

    fitted = TriangleMesh(source_cage.vertices + refine.best_delta,
                          source_cage.triangles.copy())
    report = FitReport(
        loss_trace=np.asarray(refine.trace),
        best_trace=np.asarray(refine.best_trace),
        final_chamfer=refine.best_align,
        iterations_run=coarse_iterations + refine_iterations,
        converged=refine.converged,
        outside_fraction=outside_fraction,
        coarse_iterations=coarse_iterations,
        coarse_samples=coarse_samples,
        coarse_targets=coarse_targets,
        sample_rows=coarse_iterations * coarse_samples
        + refine_iterations * len(samples),
        target_rows=coarse_iterations * coarse_targets
        + refine_iterations * len(targets),
        sample_requeries=sum(s.to_target.requeries for s in states),
        target_requeries=sum(s.to_sample.requeries for s in states),
    )
    return fitted, report
