"""Point sets: bags of 3D points with optional unit normals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PointSet:
    """An ordered bag of 3D points, optionally with index-aligned unit normals.

    points : (N, 3) float64
    normals : (N, 3) float64 or None, unit-norm within 1e-6
    """

    points: np.ndarray
    normals: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite coordinates")
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float64)
            if self.normals.shape != self.points.shape:
                raise ValueError("normals must be index-aligned with points")
            norms = np.linalg.norm(self.normals, axis=1)
            if not np.all(np.abs(norms - 1.0) <= 1e-6):
                raise ValueError("normals must be unit-norm within 1e-6")

    def __len__(self) -> int:
        return self.points.shape[0]


def bbox_of(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) corners of a raw (N, 3) array."""
    pts = np.asarray(points, dtype=np.float64)
    return pts.min(axis=0), pts.max(axis=0)


def inflate_degenerate_axes(lo: np.ndarray, hi: np.ndarray,
                            fraction: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Grow near-zero box extents to `fraction` of the box diagonal.

    A fully degenerate box (a single point) gets unit extent on every axis
    so downstream padding still has something to work with.
    """
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    extent = hi - lo
    diag = float(np.linalg.norm(extent))
    if diag == 0.0:
        half = 0.5
        return lo - half, hi + half
    floor = fraction * diag
    thin = extent < floor
    if np.any(thin):
        pad = 0.5 * (floor - extent[thin])
        lo[thin] -= pad
        hi[thin] += pad
    return lo, hi
