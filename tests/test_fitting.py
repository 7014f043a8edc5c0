"""Tests for cage fitting: loss terms, gradients, and the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from cagewarp import fitting
from cagewarp.cage import TriangleMesh, build_template_cage, dot
from cagewarp.errors import FitDivergedError
from cagewarp.fitting import (_NeighborState, _normal_term, alignment_loss,
                              fit_deformed_cage)
from cagewarp.metrics import sample_points
from cagewarp.mvc import mvc_weights
from cagewarp.splats import GaussianCloud

from conftest import random_cloud


def _blob(n, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, 3))


def _affine(points, angle=0.15, scale=(1.15, 0.95, 1.05),
            shift=(0.1, -0.05, 0.08)):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    mat = rot @ np.diag(scale)
    return points @ mat.T + np.asarray(shift)


# ---------------------------------------------------------------------------
# alignment loss


def test_alignment_zero_for_identical_sets():
    pts = _blob(40, seed=1)
    loss, grad = alignment_loss(pts, pts.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(pts))


def test_alignment_hand_computed_pair():
    pos = np.array([[1.0, 0.0, 0.0]])
    tgt = np.array([[0.0, 0.0, 0.0]])
    loss, grad = alignment_loss(pos, tgt)
    # one point each way: d^2 + d^2 = 2; gradient 2(p-t) + 2(p-t) = 4(p-t)
    assert loss == pytest.approx(2.0, rel=1e-15)
    np.testing.assert_allclose(grad, [[4.0, 0.0, 0.0]], rtol=1e-15)


def test_alignment_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    pos = _blob(25, seed=2)
    tgt = _blob(35, seed=3) + 0.1
    _, grad = alignment_loss(pos, tgt)
    h = 1e-7
    for _ in range(12):
        i = rng.integers(len(pos))
        a = rng.integers(3)
        for sign, store in ((1.0, "hi"), (-1.0, "lo")):
            bumped = pos.copy()
            bumped[i, a] += sign * h
            val, _ = alignment_loss(bumped, tgt)
            if store == "hi":
                hi = val
            else:
                lo = val
        fd = (hi - lo) / (2.0 * h)
        assert fd == pytest.approx(grad[i, a], rel=1e-5, abs=1e-9)


def test_lengths_equal_kd_tree_distances_bit_for_bit():
    rng = np.random.default_rng(20)
    points = rng.standard_normal((2000, 3)) * 3.7
    refs = rng.standard_normal((2500, 3)) + 0.4
    dist, j = cKDTree(refs).query(points, k=4)
    diff = np.moveaxis(points[:, None, :] - refs[j], -1, 0)
    np.testing.assert_array_equal(np.sqrt(dot(diff, diff)), dist)


# Point counts of 1-3 leave fewer reference rows than CANDIDATES.
_counts = st.one_of(st.integers(1, 3), st.integers(4, 40))


@settings(max_examples=80, deadline=None)
@given(n_samples=_counts, n_targets=_counts, on_grid=st.booleans(),
       duplicates=st.booleans(), seed=st.integers(0, 2**32 - 1),
       moves=st.lists(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.5, 3.0]),
                      min_size=1, max_size=10))
def test_cached_assignments_equal_fresh_queries(n_samples, n_targets,
                                                on_grid, duplicates, seed,
                                                moves):
    rng = np.random.default_rng(seed)

    def cloud(n):
        # Integer coordinates make equidistant neighbors (exact ties).
        pts = (rng.integers(-2, 3, (n, 3)).astype(float) if on_grid
               else rng.standard_normal((n, 3)))
        if duplicates:
            pts[rng.integers(n, size=n // 2)] = pts[rng.integers(n,
                                                                size=n // 2)]
        return pts

    targets = cloud(n_targets)
    positions = cloud(n_samples)
    state = _NeighborState(positions, targets)
    for scale in (0.0, *moves):
        # Some rows stay put, so duplicated samples stay duplicated.
        step = scale * (rng.integers(-1, 2, (n_samples, 3)) if on_grid
                        else rng.standard_normal((n_samples, 3)))
        positions = positions + step * rng.integers(0, 2, (n_samples, 1))
        j_pt, j_tp = state.assign(positions)
        np.testing.assert_array_equal(
            j_pt, cKDTree(targets).query(positions, k=1)[1])
        np.testing.assert_array_equal(
            j_tp, cKDTree(positions).query(targets, k=1)[1])


def test_cached_fit_is_bit_identical_to_fresh_queries(monkeypatch):
    points = _blob(600, seed=19)
    cage = build_template_cage(points, resolution=2)
    targets = _affine(_blob(500, seed=20))
    cfg = dict(iterations=60)
    cached, rep_a = fit_deformed_cage(points, targets, cage, **cfg)

    stateless = fitting.alignment_loss
    monkeypatch.setattr(fitting, "alignment_loss",
                        lambda positions, target_points, state=None:
                        stateless(positions, target_points))
    fresh, rep_b = fit_deformed_cage(points, targets, cage, **cfg)
    np.testing.assert_array_equal(cached.vertices, fresh.vertices)
    np.testing.assert_array_equal(rep_a.loss_trace, rep_b.loss_trace)
    # A fit may invert the cage, so it returns a plain mesh.
    assert type(cached) is TriangleMesh
    np.testing.assert_array_equal(cached.triangles, cage.triangles)
    assert rep_a.sample_requeries < rep_a.iterations_run * len(points)
    assert rep_a.target_requeries < rep_a.iterations_run * len(targets)


def test_criterion_7_fit_requeries_under_half_its_rows():
    # The fit of tests/test_acceptance.py's criterion 7.
    rng = np.random.default_rng(77)
    points = 0.6 * rng.standard_normal((5000, 3))
    targets = _affine(points, angle=0.25, scale=(1.2, 0.9, 1.1),
                      shift=(0.15, -0.1, 0.2))
    cage = build_template_cage(points, resolution=2, padding=0.1)
    _, report = fit_deformed_cage(points, targets, cage, iterations=500)
    assert report.coarse_iterations > 0
    rows = report.sample_rows + report.target_rows
    assert report.sample_requeries + report.target_requeries < rows / 2
    # Every row is queried in the first iteration.
    assert report.sample_requeries >= len(points)
    assert report.target_requeries >= len(targets)


# ---------------------------------------------------------------------------
# coarse-to-fine descent


def _single_stage_trace(points, targets, cage, cfg):
    """Adam on the cage offsets with fresh k-d queries: the fit as one
    descent on every row, with no convergence test."""
    weights = mvc_weights(points, cage).weights
    n0 = cage.face_normals()
    alpha = fitting.STEP_SIZE * cage.bbox_diagonal()
    b1, b2 = fitting.ADAM_DECAY1, fitting.ADAM_DECAY2
    delta = np.zeros_like(cage.vertices)
    m, v = np.zeros_like(delta), np.zeros_like(delta)
    trace = []
    for it in range(1, cfg["iterations"] + 1):
        verts = cage.vertices + delta
        align, grad_pts = alignment_loss(weights @ verts, targets)
        normal, grad_n = _normal_term(verts, cage.triangles, n0)
        normal = fitting.NORMAL_WEIGHT * normal
        trace.append((align + normal, align, normal))
        grad = weights.T @ grad_pts + fitting.NORMAL_WEIGHT * grad_n
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        delta = delta - alpha * (m / (1.0 - b1 ** it)) / (
            np.sqrt(v / (1.0 - b2 ** it)) + fitting.ADAM_EPS)
    return np.asarray(trace)


def test_stratified_subsets_are_nested_sorted_and_deterministic():
    points = _blob(2345, seed=21)
    state = _NeighborState(points, _affine(points))
    again = _NeighborState(points, _affine(points))
    for order, order_again in ((state.sample_order, again.sample_order),
                               (state.target_tree.indices,
                                again.target_tree.indices)):
        rows = fitting._stratified_rows(order)
        assert len(rows) == -(-len(points) // fitting.COARSE_STRIDE)
        assert np.all(np.diff(rows) > 0)          # sorted, no repeats
        assert np.all((rows >= 0) & (rows < len(points)))
        # One row from every run of COARSE_STRIDE rows of the k-d order.
        picked = np.isin(order, rows)
        np.testing.assert_array_equal(
            np.add.reduceat(picked, np.arange(0, len(order),
                                              fitting.COARSE_STRIDE)), 1)
        np.testing.assert_array_equal(
            fitting._stratified_rows(order_again), rows)


@pytest.mark.parametrize("n_points, coarse", [(2590, False), (2600, True)])
def test_below_the_row_floor_the_fit_is_one_descent(n_points, coarse):
    # A res-2 cage has 26 vertices, so each coarse subset needs 260 rows:
    # ceil(2590 / 10) = 259 is one short.
    points = _blob(n_points, seed=22)
    targets = _affine(_blob(n_points, seed=23))
    cage = build_template_cage(points, resolution=2)
    cfg = dict(iterations=45, convergence_tol=0.0)
    _, report = fit_deformed_cage(points, targets, cage, **cfg)
    assert (report.coarse_iterations > 0) == coarse
    if not coarse:
        np.testing.assert_array_equal(
            report.loss_trace, _single_stage_trace(points, targets, cage, cfg))
        assert report.coarse_samples == report.coarse_targets == 0
        assert report.sample_rows == report.iterations_run * n_points


def test_a_budget_of_the_refine_reserve_skips_the_coarse_stage():
    points = _blob(3000, seed=24)
    targets = _affine(points)
    cage = build_template_cage(points, resolution=2)
    cfg = dict(iterations=fitting.REFINE_ITERATIONS, convergence_tol=0.0)
    _, report = fit_deformed_cage(points, targets, cage, **cfg)
    assert report.coarse_iterations == 0
    np.testing.assert_array_equal(
        report.loss_trace, _single_stage_trace(points, targets, cage, cfg))


def test_refine_starts_from_the_coarse_best(monkeypatch):
    points = _blob(3000, seed=25)
    targets = _affine(_blob(3000, seed=26))
    cage = build_template_cage(points, resolution=2)
    cfg = dict(iterations=70)
    calls = []
    descend = fitting._descend

    def recording(*args):
        calls.append((args, descend(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fitting, "_descend", recording)
    fitted, report = fit_deformed_cage(points, targets, cage, **cfg)
    (c_args, coarse), (r_args, refine) = calls
    # (weights, targets, neighbors, cage, normals, convergence_tol, alpha,
    #  delta, budget, first)
    assert len(c_args[0]) == report.coarse_samples == 300
    assert len(c_args[1]) == report.coarse_targets == 300
    assert c_args[8] == cfg["iterations"] - fitting.REFINE_ITERATIONS
    assert report.coarse_iterations == len(coarse.trace)
    assert r_args[6] == fitting.REFINE_STEP * c_args[6]
    assert r_args[7] is coarse.best_delta
    assert r_args[8] == cfg["iterations"] - report.coarse_iterations
    assert r_args[9] == report.coarse_iterations
    assert report.iterations_run == len(coarse.trace) + len(refine.trace)
    assert report.sample_rows == (report.coarse_iterations * 300
                                  + len(refine.trace) * 3000)
    np.testing.assert_array_equal(fitted.vertices,
                                  cage.vertices + refine.best_delta)

    # The refine stage's first loss is that of the coarse best offsets,
    # on every row.
    verts = cage.vertices + coarse.best_delta
    align, _ = alignment_loss(mvc_weights(points, cage).weights @ verts,
                              targets)
    normal, _ = _normal_term(verts, cage.triangles, cage.face_normals())
    assert tuple(report.loss_trace[0]) == (
        align + fitting.NORMAL_WEIGHT * normal, align,
        fitting.NORMAL_WEIGHT * normal)


def test_divergence_in_the_refine_stage_names_the_global_iteration(
        monkeypatch):
    points = _blob(3000, seed=27)
    cage = build_template_cage(points, resolution=2)
    cfg = dict(iterations=70, convergence_tol=0.0)
    stateless = fitting.alignment_loss
    calls = []

    def blows_up(positions, target_points, state=None):
        calls.append(len(positions))
        loss, grad = stateless(positions, target_points)
        return (np.inf if len(calls) == 35 else loss), grad

    monkeypatch.setattr(fitting, "alignment_loss", blows_up)
    with pytest.raises(FitDivergedError) as excinfo:
        fit_deformed_cage(points, _affine(points), cage, **cfg)
    assert excinfo.value.iteration == 35
    # Iterations 1-30 ran on the coarse subset, 31 on every row.
    assert calls[29] == 300 and calls[30] == 3000


# ---------------------------------------------------------------------------
# normal (face-flip) term


def test_normal_term_zero_at_rest():
    cage = build_template_cage(_blob(30, seed=4), resolution=2)
    loss, grad = _normal_term(cage.vertices, cage.triangles,
                              cage.face_normals())
    assert loss == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)


def test_normal_term_positive_under_rotation():
    cage = build_template_cage(_blob(30, seed=4), resolution=2)
    rotated = _affine(cage.vertices, angle=0.5, scale=(1, 1, 1),
                      shift=(0, 0, 0))
    loss, _ = _normal_term(rotated, cage.triangles, cage.face_normals())
    # every face normal tilts by up to the rotation angle
    assert loss > 0.0
    assert loss <= len(cage.triangles) * (1.0 - np.cos(0.5)) + 1e-12


def test_normal_term_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    cage = build_template_cage(_blob(30, seed=5), resolution=2)
    n0 = cage.face_normals()
    verts = cage.vertices + 0.03 * rng.standard_normal(cage.vertices.shape)
    _, grad = _normal_term(verts, cage.triangles, n0)
    h = 1e-6
    for _ in range(12):
        i = rng.integers(len(verts))
        a = rng.integers(3)
        hi = verts.copy()
        hi[i, a] += h
        lo = verts.copy()
        lo[i, a] -= h
        fd = (_normal_term(hi, cage.triangles, n0)[0]
              - _normal_term(lo, cage.triangles, n0)[0]) / (2.0 * h)
        assert fd == pytest.approx(grad[i, a], rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# full objective gradient (what the optimizer descends)


def test_total_gradient_matches_finite_differences():
    points = _blob(80, seed=6)
    cage = build_template_cage(points, resolution=2)
    targets = _affine(points, angle=0.1)
    weights = mvc_weights(points, cage).weights
    n0 = cage.face_normals()
    rng = np.random.default_rng(13)
    delta0 = 0.02 * rng.standard_normal(cage.vertices.shape)

    def total_and_grad(delta):
        verts = cage.vertices + delta
        align, grad_pts = alignment_loss(weights @ verts, targets)
        normal, grad_n = _normal_term(verts, cage.triangles, n0)
        total = align + fitting.NORMAL_WEIGHT * normal
        grad = weights.T @ grad_pts + fitting.NORMAL_WEIGHT * grad_n
        return total, grad

    _, grad = total_and_grad(delta0)
    h = 1e-6 * cage.bbox_diagonal()
    for _ in range(15):
        i = rng.integers(len(cage.vertices))
        a = rng.integers(3)
        bump = np.zeros_like(delta0)
        bump[i, a] = h
        fd = (total_and_grad(delta0 + bump)[0]
              - total_and_grad(delta0 - bump)[0]) / (2.0 * h)
        assert fd == pytest.approx(grad[i, a], rel=2e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# the optimizer


def test_affine_target_recovery():
    points = _blob(1500, seed=8)
    cage = build_template_cage(points, resolution=2, padding=0.15)
    targets = _affine(points)
    cfg = dict(iterations=400)
    fitted, report = fit_deformed_cage(points, targets, cage, **cfg)

    diag = np.linalg.norm(targets.max(axis=0) - targets.min(axis=0))
    assert report.final_chamfer <= 1e-4 * diag * diag
    fitted.check_same_topology(cage)
    assert report.iterations_run <= 400
    assert np.all(np.isfinite(fitted.vertices))


def test_best_trace_never_increases():
    points = _blob(300, seed=9)
    cage = build_template_cage(points, resolution=2)
    targets = _affine(points, angle=0.2)
    cfg = dict(iterations=80)
    _, report = fit_deformed_cage(points, targets, cage, **cfg)

    assert report.loss_trace.shape == (report.iterations_run, 3)
    assert report.best_trace.shape == (report.iterations_run,)
    assert np.all(np.diff(report.best_trace) <= 0.0)
    # total = align + normal, column-wise
    np.testing.assert_allclose(
        report.loss_trace[:, 0],
        report.loss_trace[:, 1:].sum(axis=1), rtol=1e-12)


def test_converges_when_target_equals_source():
    points = _blob(200, seed=10)
    cage = build_template_cage(points, resolution=2)
    cfg = dict(iterations=300)
    _, report = fit_deformed_cage(points, points.copy(), cage, **cfg)
    assert report.converged
    assert report.iterations_run < 300
    assert report.final_chamfer == pytest.approx(0.0, abs=1e-20)


def test_divergence_raises_with_iteration():
    # Targets this far away would overflow the loss's squared distances.
    points = _blob(120, seed=12)
    cage = build_template_cage(points, resolution=2)
    cfg = dict(iterations=50)
    with pytest.raises(FitDivergedError) as excinfo:
        fit_deformed_cage(points, _affine(points, shift=(1e160, 0, 0)),
                          cage, **cfg)
    assert excinfo.value.iteration == 1


def test_warns_when_samples_fall_outside_cage():
    points = _blob(150, seed=14)
    cage = build_template_cage(points[:20], resolution=2, padding=0.0)
    cfg = dict(iterations=2)
    with pytest.warns(UserWarning, match="outside"):
        _, report = fit_deformed_cage(points, _affine(points), cage, **cfg)
    assert report.outside_fraction > 0.01


def test_fit_is_deterministic():
    points = _blob(250, seed=15)
    cage = build_template_cage(points, resolution=2)
    targets = _affine(points)
    cfg = dict(iterations=60)
    first, rep_a = fit_deformed_cage(points, targets, cage, **cfg)
    second, rep_b = fit_deformed_cage(points, targets, cage, **cfg)
    np.testing.assert_array_equal(first.vertices, second.vertices)
    np.testing.assert_array_equal(rep_a.loss_trace, rep_b.loss_trace)


def test_mesh_target_is_sampled_by_area():
    points = _blob(200, seed=17, scale=0.2)
    cage = build_template_cage(points, resolution=2)
    tri = TriangleMesh(
        vertices=np.array([[-1.0, -1, -0.5], [1.0, -1, -0.5],
                           [1.0, 1, -0.5], [-1.0, 1, -0.5]]),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]))
    targets = sample_points(tri, 300, seed=5)
    _, report = fit_deformed_cage(points, targets, cage, iterations=5)
    assert np.all(np.isfinite(report.loss_trace))


def test_rejects_malformed_source():
    cage = build_template_cage(_blob(20, seed=18), resolution=2)
    with pytest.raises(ValueError, match="source"):
        fit_deformed_cage(np.zeros((4, 2)), _blob(20, seed=18), cage)
