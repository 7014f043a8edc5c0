"""The (w, x, y, z) quaternion <-> rotation-matrix contract."""

import numpy as np
import pytest

from cagewarp.errors import DegenerateRotationError
from cagewarp.rotations import matrix_to_quat, quat_to_matrix


def _random_rotations(n, seed):
    return quat_to_matrix(np.random.default_rng(seed).normal(size=(n, 4)))


def _half_turn(axis):
    u = np.asarray(axis, dtype=np.float64)
    u = u / np.linalg.norm(u)
    return 2.0 * np.outer(u, u) - np.eye(3)


def test_matrices_are_proper_rotations():
    R = _random_rotations(500, seed=1)
    np.testing.assert_allclose(R @ np.swapaxes(R, -1, -2),
                               np.broadcast_to(np.eye(3), R.shape),
                               atol=1e-14)
    np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-14)


def test_round_trip_recovers_the_matrix():
    R = _random_rotations(1000, seed=2)
    np.testing.assert_allclose(quat_to_matrix(matrix_to_quat(R)), R,
                               rtol=0, atol=1e-14)


def test_round_trip_recovers_the_unit_quaternion_up_to_sign():
    q = np.random.default_rng(3).normal(size=(1000, 4))
    unit = q / np.linalg.norm(q, axis=1, keepdims=True)
    back = matrix_to_quat(quat_to_matrix(3.0 * q))
    np.testing.assert_allclose(back, np.sign(unit[:, :1]) * unit,
                               rtol=0, atol=1e-14)
    assert np.all(back[:, 0] >= 0.0)


def test_known_rotation_in_w_x_y_z_order():
    # A quarter turn about z maps x to y.
    q = np.array([np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)])
    np.testing.assert_allclose(quat_to_matrix(q),
                               [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                               atol=1e-15)
    np.testing.assert_allclose(matrix_to_quat(quat_to_matrix(q)), q,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("axis, expected", [
    ((1, 0, 0), (0, 1, 0, 0)),
    ((0, 1, 0), (0, 0, 1, 0)),
    ((0, 0, 1), (0, 0, 0, 1)),
    ((1, -1, 0), (0, np.sqrt(0.5), -np.sqrt(0.5), 0)),
    ((0, -1, 2), (0, 0, 1 / np.sqrt(5), -2 / np.sqrt(5))),
], ids=["x", "y", "z", "xy", "yz"])
def test_half_turn_sign_is_canonical(axis, expected):
    # w = 0, so the first non-zero component decides the sign.
    R = _half_turn(axis)
    q = matrix_to_quat(R)
    assert q[0] == 0.0
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("batch", [(), (7,), (2, 7)],
                         ids=["single", "n", "2xn"])
def test_batch_shapes(batch):
    q = np.random.default_rng(4).normal(size=batch + (4,))
    R = quat_to_matrix(q)
    assert R.shape == batch + (3, 3)
    back = matrix_to_quat(R)
    assert back.shape == batch + (4,)
    flat = matrix_to_quat(quat_to_matrix(q.reshape(-1, 4)))
    np.testing.assert_array_equal(back.reshape(-1, 4), flat)


@pytest.mark.parametrize("quats", [
    np.zeros(4),
    np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
    np.full((2, 3, 4), 1e-13),
], ids=["zero", "zero-row", "below-floor"])
def test_degenerate_quaternion_raises(quats):
    with pytest.raises(DegenerateRotationError):
        quat_to_matrix(quats)
