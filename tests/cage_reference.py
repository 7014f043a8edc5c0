"""The template cage helpers in their loop and branch forms, kept as the
reference that cagewarp.cage's array expressions must match bit for bit.

box_cage builds each quad's corners one lattice node at a time, in
(axis, level, u, v) order; inflate_degenerate_axes treats the single
point and the thin axes as separate cases. Both take the arguments of
their cagewarp.cage namesakes and return the (vertices, triangles)
arrays and the (lo, hi) corners.
"""

import numpy as np


def box_cage(lo, hi, resolution=2):
    r = int(resolution)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    side = r + 1
    ijk = np.stack(np.meshgrid(np.arange(side), np.arange(side),
                               np.arange(side), indexing="ij"),
                   axis=-1).reshape(-1, 3)
    on_surface = np.any((ijk == 0) | (ijk == r), axis=1)
    surf_ijk = ijk[on_surface]
    index_of = -np.ones((side, side, side), dtype=np.int64)
    index_of[surf_ijk[:, 0], surf_ijk[:, 1], surf_ijk[:, 2]] = \
        np.arange(len(surf_ijk))
    vertices = lo + surf_ijk / r * (hi - lo)

    triangles = []
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3
        for level in (0, r):
            for u in range(r):
                for v in range(r):
                    corner = {}
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        node = [0, 0, 0]
                        node[axis] = level
                        node[b] = u + du
                        node[c] = v + dv
                        corner[(du, dv)] = index_of[tuple(node)]
                    q00, q10 = corner[(0, 0)], corner[(1, 0)]
                    q11, q01 = corner[(1, 1)], corner[(0, 1)]
                    if level == r:   # outward normal +e_axis = e_b x e_c
                        triangles.append((q00, q10, q11))
                        triangles.append((q00, q11, q01))
                    else:            # outward normal -e_axis
                        triangles.append((q00, q11, q10))
                        triangles.append((q00, q01, q11))
    return vertices, np.asarray(triangles, dtype=np.int64)


def inflate_degenerate_axes(lo, hi):
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    extent = hi - lo
    diag = float(np.linalg.norm(extent))
    if diag == 0.0:
        half = 0.5
        return lo - half, hi + half
    floor = 1e-3 * diag
    thin = extent < floor
    if np.any(thin):
        pad = 0.5 * (floor - extent[thin])
        lo[thin] -= pad
        hi[thin] += pad
    return lo, hi
