"""Seeded inputs for the benchmark workloads.

Everything here is independent of the cagewarp package: the clouds, the
box cages, the warp and the file writers are re-derived from the file
formats, so a change to the program cannot change what it is fed. The same
seed always gives the same bytes.
"""

from __future__ import annotations

import numpy as np

# Fraction of the cage extent by which the sinusoidal warp moves vertices.
WARP_AMPLITUDE = 0.1
# Fixed phases keep the warp (and so the work per run) the same across
# seeds; only the cloud is drawn from the seed.
WARP_PHASES = (0.3, 1.1, 2.0)
CAGE_PADDING = 0.1
# Centers are uniform in a ball of this radius. Uniform density keeps the
# chamfer distance (a mean of squared nearest-neighbour gaps, which sparse
# tails would dominate) and the bounding box nearly constant across seeds.
BLOB_RADIUS = 2.0


def splat_cloud(n: int, sh_rest_width: int, seed) -> dict:
    """A valid splat cloud as float32 PLY columns.

    seed is anything numpy.random.default_rng accepts, such as a
    (seed, stream) pair so that different inputs of one run differ.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = BLOB_RADIUS * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)
    cols = {"centers": direction * radius,
            "log_scales": np.log(0.03) + 0.3 * rng.normal(size=(n, 3)),
            "rotations": rng.normal(size=(n, 4)),
            "opacity": rng.normal(size=n),
            "sh_dc": 0.5 * rng.normal(size=(n, 3)),
            "sh_rest": 0.1 * rng.normal(size=(n, sh_rest_width))}
    return {k: v.astype(np.float32) for k, v in cols.items()}


def padded_box(points: np.ndarray):
    lo, hi = points.min(axis=0), points.max(axis=0)
    ext = hi - lo
    return lo - CAGE_PADDING * ext, hi + CAGE_PADDING * ext


def box_cage(lo, hi, r: int):
    """Outward-wound surface of the box [lo, hi], r x r quads per face.

    Returns (vertices (V, 3), triangles (12 r^2, 3)) with
    V = (r+1)^3 - (r-1)^3.
    """
    side = r + 1
    ijk = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    surf = ijk[np.any((ijk == 0) | (ijk == r), axis=1)]
    index = -np.ones((side,) * 3, dtype=np.int64)
    index[tuple(surf.T)] = np.arange(len(surf))
    tris = []
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3
        for level in (0, r):
            for u in range(r):
                for v in range(r):
                    q = {}
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        node = [0, 0, 0]
                        node[axis], node[b], node[c] = level, u + du, v + dv
                        q[du, dv] = index[tuple(node)]
                    if level == r:   # outward normal is e_b x e_c
                        tris += [(q[0, 0], q[1, 0], q[1, 1]),
                                 (q[0, 0], q[1, 1], q[0, 1])]
                    else:
                        tris += [(q[0, 0], q[1, 1], q[1, 0]),
                                 (q[0, 0], q[0, 1], q[1, 1])]
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    return lo + surf / r * (hi - lo), np.asarray(tris, dtype=np.int64)


def warp(points: np.ndarray, lo, hi) -> np.ndarray:
    """Smooth sinusoidal warp of the box [lo, hi].

    Each axis is displaced by a sine of the next axis, so the Jacobian is
    I plus a cyclic off-diagonal term of size at most pi * amplitude and
    the map never folds.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    ext = hi - lo
    u = (points - 0.5 * (lo + hi)) / ext
    out = np.array(points, dtype=np.float64)
    for axis in range(3):
        nxt = (axis + 1) % 3
        out[:, axis] += WARP_AMPLITUDE * ext[axis] * np.sin(
            np.pi * u[:, nxt] + WARP_PHASES[axis])
    return out


def fit_target(n: int, seed) -> np.ndarray:
    """Another blob, stretched x(1.8, 0.6, 1.0) and bent by y += 0.25 x^2."""
    pts = splat_cloud(n, 0, seed)["centers"].astype(np.float64)
    pts *= (1.8, 0.6, 1.0)
    pts[:, 1] += 0.25 * pts[:, 0] ** 2
    return pts


def _write_ply(path, columns: list) -> None:
    """Binary little-endian PLY, one float32 vertex property per column."""
    n = len(columns[0][1])
    dtype = np.dtype([(name, "<f4") for name, _ in columns])
    records = np.zeros(n, dtype=dtype)
    for name, values in columns:
        records[name] = values
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += [f"property float {name}" for name, _ in columns]
    header.append("end_header")
    with open(path, "wb") as stream:
        stream.write(("\n".join(header) + "\n").encode("ascii"))
        stream.write(records.tobytes())


def write_splat_ply(path, cloud: dict) -> None:
    """The splat layout: x y z nx ny nz f_dc f_rest opacity scale rot."""
    n = len(cloud["centers"])
    zero = np.zeros(n, dtype=np.float32)
    cols = [(a, cloud["centers"][:, i]) for i, a in enumerate("xyz")]
    cols += [(a, zero) for a in ("nx", "ny", "nz")]
    cols += [(f"f_dc_{i}", cloud["sh_dc"][:, i]) for i in range(3)]
    cols += [(f"f_rest_{i}", cloud["sh_rest"][:, i])
             for i in range(cloud["sh_rest"].shape[1])]
    cols.append(("opacity", cloud["opacity"]))
    cols += [(f"scale_{i}", cloud["log_scales"][:, i]) for i in range(3)]
    cols += [(f"rot_{i}", cloud["rotations"][:, i]) for i in range(4)]
    _write_ply(path, cols)


def write_point_ply(path, points: np.ndarray) -> None:
    _write_ply(path, [(a, points[:, i]) for i, a in enumerate("xyz")])


def read_ply(path) -> np.ndarray:
    """Structured float32 records of a binary little-endian vertex PLY."""
    with open(path, "rb") as stream:
        names, count = [], 0
        while True:
            line = stream.readline()
            if not line:
                raise ValueError(f"{path}: PLY header has no end_header")
            tokens = line.decode("ascii").split()
            if tokens[:1] == ["end_header"]:
                break
            if tokens[:2] == ["element", "vertex"]:
                count = int(tokens[2])
            elif tokens[:1] == ["property"]:
                names.append(tokens[-1])
        dtype = np.dtype([(name, "<f4") for name in names])
        body = stream.read()
    if len(body) != count * dtype.itemsize:
        raise ValueError(f"{path}: PLY body is {len(body)} bytes, expected "
                         f"{count * dtype.itemsize}")
    return np.frombuffer(body, dtype=dtype)


def write_obj(path, vertices: np.ndarray, triangles: np.ndarray) -> None:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles.tolist()]
    with open(path, "w", encoding="ascii", newline="\n") as stream:
        stream.write("\n".join(lines) + "\n")
