"""Mean value coordinates by the trigonometric formula of Ju, Schaefer &
Warren (SIGGRAPH 2005), in 40-digit mpmath arithmetic, kept as an oracle
for cagewarp.mvc.

The product computes the same coordinates in float64 from a Cramer solve
per triangle, with a long-double rescue and on-surface rules of its own.
This module shares no code with it: one triangle at a time, it takes the
arc angles from chords, the cosines c_i of the spherical triangle's
dihedral angles from the half-angle sum h, and the weights from the
paper's closed form. At 40 digits the paper's epsilon tests can sit far
below float64 rounding, so a point 1e-10 of the diagonal off a face is
still off it here.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip(
    "mpmath", reason="the MVC oracle computes in mpmath's 40-digit floats "
    "(pip install mpmath)")

DIGITS = 40
# The paper's epsilon: a point within this of a vertex takes its unit
# row, a spherical triangle within this of a half-turn holds the point,
# and one with a |sin| this small is coplanar with it.
EPS = mpmath.mpf("1e-30")


def mvc_oracle(point, vertices, triangles) -> np.ndarray:
    """Normalized mean value coordinates (V,) of one point, rounded to
    float64."""
    with mpmath.workdps(DIGITS):
        x = [mpmath.mpf(float(c)) for c in point]
        diffs = [[mpmath.mpf(float(c)) - xc for c, xc in zip(v, x)]
                 for v in vertices]
        d = [mpmath.sqrt(_dot(p, p)) for p in diffs]
        if min(d) <= EPS:
            row = np.zeros(len(vertices))
            row[min(range(len(d)), key=d.__getitem__)] = 1.0
            return row
        u = [[c / dist for c in p] for p, dist in zip(diffs, d)]
        w = [mpmath.mpf(0)] * len(vertices)
        for tri in triangles:
            on_face = _add_triangle([int(k) for k in tri], d, u, w)
            if on_face is not None:
                w = on_face
                break
        total = mpmath.fsum(w)
        return np.array([float(wi / total) for wi in w])


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _add_triangle(tri, d, u, w):
    """Add one triangle's terms to w, or return the barycentric row when
    the point lies on the triangle."""
    corner = [u[k] for k in tri]
    theta = []
    for i in range(3):
        chord = [p - q for p, q in zip(corner[(i + 1) % 3],
                                       corner[(i + 2) % 3])]
        theta.append(2 * mpmath.asin(mpmath.sqrt(_dot(chord, chord)) / 2))
    h = mpmath.fsum(theta) / 2
    sin_theta = [mpmath.sin(t) for t in theta]
    if mpmath.pi - h < EPS:
        row = [mpmath.mpf(0)] * len(w)
        for i in range(3):
            row[tri[i]] = sin_theta[i] * d[tri[(i + 1) % 3]] \
                * d[tri[(i + 2) % 3]]
        return row
    c = [2 * mpmath.sin(h) * mpmath.sin(h - theta[i])
         / (sin_theta[(i + 1) % 3] * sin_theta[(i + 2) % 3]) - 1
         for i in range(3)]
    a, b, e = corner
    det = _dot(a, [b[1] * e[2] - b[2] * e[1], b[2] * e[0] - b[0] * e[2],
                   b[0] * e[1] - b[1] * e[0]])
    s = [mpmath.sign(det) * mpmath.sqrt(max(1 - ci * ci, 0)) for ci in c]
    if min(abs(si) for si in s) <= EPS:
        return None            # coplanar with the point, outside the face
    for i in range(3):
        nxt, prv = (i + 1) % 3, (i + 2) % 3
        w[tri[i]] += (theta[i] - c[nxt] * theta[prv] - c[prv] * theta[nxt]) \
            / (d[tri[i]] * sin_theta[nxt] * s[prv])
    return None
