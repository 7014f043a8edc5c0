"""MVC rows near the cage surface against the 40-digit oracle.

Points sit inside jiggled cages, at 1e-2 down to 1e-10 of the diagonal
from face centroids, off-centre face points, edge midpoints and
vertices. Closer than about 3e-4 of a triangle's size, pi minus the
half-sum of a pair's arcs falls below mvc.ON_FACE_EPS; the rows there
must still be the oracle's, not a face's barycentric row or a refusal.
"""

import numpy as np
import pytest

from cagewarp import mvc
from cagewarp.cage import CageMesh
from cagewarp.mvc import mvc_weights

from conftest import cage_pair
from mvc_oracle import mvc_oracle

DISTANCES = [1e-2, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10]


def near_surface_points(cage, faces):
    """(kind, distance, point) for points inside the cage at DISTANCES
    times the diagonal from each face's centroid and an off-centre point
    (along the inward normal), an edge midpoint and a corner (towards
    the vertex mean)."""
    v, t = cage.vertices, cage.triangles
    diag, centre = cage.bbox_diagonal(), v.mean(axis=0)
    cases = []
    for a, b, c in v[t[faces]]:
        normal = np.cross(b - a, c - a)
        for kind, base, inward in [
                ("face", (a + b + c) / 3, -normal),
                ("off-centre", 0.6 * a + 0.3 * b + 0.1 * c, -normal),
                ("edge", 0.5 * (a + b), centre - 0.5 * (a + b)),
                ("vertex", a, centre - a)]:
            inward = inward / np.linalg.norm(inward)
            cases += [(kind, frac, base + frac * diag * inward)
                      for frac in DISTANCES]
    return cases


@pytest.mark.parametrize("resolution, seed", [(1, 0), (2, 1)])
def test_rows_near_the_surface_match_the_oracle(resolution, seed):
    _, jiggled = cage_pair(seed=seed, amplitude=0.1, resolution=resolution)
    cage = CageMesh(jiggled.vertices, jiggled.triangles)
    faces = np.arange(0, len(cage.triangles), len(cage.triangles) // 3)
    missed = []
    for kind, frac, x in near_surface_points(cage, faces):
        want = mvc_oracle(x, cage.vertices, cage.triangles)
        try:
            got = mvc_weights(x[None], cage).weights[0]
        except ValueError as err:
            missed.append((kind, frac, str(err)))
            continue
        # A point within VERTEX_SNAP of a vertex takes its unit row, which
        # misses the true row by about the distance over the edge length.
        tol = 1e-8 if kind == "vertex" and frac <= mvc.VERTEX_SNAP else 1e-12
        gap = np.abs(got - want).max()
        if gap > tol:
            missed.append((kind, frac, f"weights off by {gap:.2e}"))
    assert not missed, missed
