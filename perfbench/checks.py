"""Output checks and accuracy metrics, computed outside the timed region.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import gen

# Relative central-difference step for the reference Jacobians, as a
# fraction of the source cage diagonal.
FD_STEP = 1e-5


def digests(out_dir: Path) -> dict:
    """sha256 of every file the run left in its output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def same_bytes(found: dict, reference: dict, label: str) -> list:
    if found == reference:
        return []
    names = sorted(set(found) ^ set(reference)) or sorted(
        n for n in found if found[n] != reference[n])
    return [f"{label}: outputs differ from the reference run in {names}"]


def _read_json(path: Path) -> None:
    json.loads(path.read_text(encoding="ascii"))


def _read_csv(path: Path) -> None:
    if not path.read_text(encoding="ascii").strip():
        raise ValueError("empty file")


def reread(out_dir: Path, expected: list) -> list:
    """Every expected artifact exists and re-reads with the program's own
    readers."""
    from cagewarp import read_cage_obj, read_gs_ply

    readers = {".ply": read_gs_ply, ".obj": read_cage_obj,
               ".json": _read_json, ".csv": _read_csv}
    problems = []
    for name in expected:
        try:
            readers[Path(name).suffix](Path(out_dir) / name)
        except (OSError, ValueError) as exc:
            problems.append(f"{name} does not re-read: {exc}")
    return problems


def lambda_checks(out_dir: Path, source_ply: Path, tags: list) -> list:
    """lambda=0 returns the source bit for bit, and lambda=0.5 centers lie
    midway between the lambda=0 and lambda=1 centers to float32 rounding."""
    def records(tag):
        return gen.read_ply(Path(out_dir) / f"deformed_lam{tag}.ply")

    def centers(rec):
        return np.stack([rec[a].astype(np.float64) for a in "xyz"], axis=1)

    problems = []
    if "0.00" in tags and records("0.00").tobytes() != \
            gen.read_ply(source_ply).tobytes():
        problems.append("lambda=0 output is not the source bit for bit")
    if {"0.00", "0.50", "1.00"} <= set(tags):
        c0, c5, c1 = (centers(records(t)) for t in ("0.00", "0.50", "1.00"))
        # Each side is rounded to float32 once; allow a few ulps of the
        # largest coordinate.
        tol = 4 * np.finfo(np.float32).eps * np.abs(c1).max()
        gap = float(np.abs(c5 - 0.5 * (c0 + c1)).max())
        if gap > tol:
            problems.append(f"lambda=0.5 centers are {gap:.3e} from the "
                            f"midpoint (allowed {tol:.3e})")
    return problems


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=1).reshape(-1, 3, 3)


def _covariances(rec: np.ndarray) -> np.ndarray:
    q = np.stack([rec[f"rot_{i}"] for i in range(4)], axis=1).astype(float)
    var = np.exp(2.0 * np.stack([rec[f"scale_{i}"] for i in range(3)],
                                axis=1).astype(float))
    rot = _quat_to_matrix(q)
    return np.einsum("pik,pk,pjk->pij", rot, var, rot)


def cov_err_p95(source_ply: Path, output_ply: Path, source_cage: Path,
                deformed_cage: Path) -> float:
    """95th percentile over all splats of the relative Frobenius error of
    the output covariance against J Sigma J^T, with J by central
    differences through the public mvc_weights / deform_points.

    Every splat is probed: a sampled subset makes the percentile itself
    noisy from seed to seed.
    """
    from cagewarp import deform_points, mvc_weights, read_cage_obj

    src, out = gen.read_ply(source_ply), gen.read_ply(output_ply)
    cage, moved = read_cage_obj(source_cage), read_cage_obj(deformed_cage)
    x = np.stack([src[a].astype(np.float64) for a in "xyz"], axis=1)
    h = FD_STEP * cage.bbox_diagonal()
    stencil = (x[:, None, None, :] + h * np.stack([np.eye(3), -np.eye(3)],
                                                  axis=1)).reshape(-1, 3)
    mapped = deform_points(mvc_weights(stencil, cage), moved)
    mapped = mapped.reshape(len(x), 3, 2, 3)
    jac = ((mapped[:, :, 0] - mapped[:, :, 1]) / (2 * h)).transpose(0, 2, 1)
    want = np.einsum("pij,pjk,plk->pil", jac, _covariances(src), jac)
    err = np.linalg.norm(_covariances(out) - want, axis=(1, 2)) \
        / np.linalg.norm(want, axis=(1, 2))
    return float(np.percentile(err, 95))


def chamfer(output_ply: Path, reference: np.ndarray) -> float:
    """Symmetric squared chamfer distance between the output centers and
    the reference points, in the reference's unit-diagonal box frame."""
    rec = gen.read_ply(output_ply)
    pts = np.stack([rec[a].astype(np.float64) for a in "xyz"], axis=1)
    scale = 1.0 / np.linalg.norm(np.ptp(reference, axis=0))
    d_or, _ = cKDTree(reference).query(pts, k=1)
    d_ro, _ = cKDTree(pts).query(reference, k=1)
    return float((np.mean(d_or ** 2) + np.mean(d_ro ** 2)) * scale ** 2)
