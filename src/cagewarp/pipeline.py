"""End-to-end deformation runs: load, fit, deform, write, verify.

A run reads a splat model, fits (or loads) a cage pair, deforms the model
once per interpolation factor, and writes the results plus cages, a fit
trace, and a metrics report; the baseline mode scales the model onto the
target's bounding box instead. Every artifact is deterministic for a given
config and seed: timings go to the log, never into output files.

Fitting happens in normalized frames (source and target each mapped to a
unit-diagonal box at the origin) so step sizes and tolerances are
scale-free; the cages are mapped back through the inverse transforms
before any splat is touched, which is exact because the coordinates are
invariant under similarity transforms of the cage.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cage import (CageMesh, build_template_cage, interpolate_cage,
                   read_cage_obj, write_cage_obj)
from .errors import PipelineError
from .fitting import FitConfig, fit_deformed_cage
from .metrics import (TARGET_KINDS, TriangleMesh, baseline_bbox_scale,
                      chamfer_distance, load_target, sample_points)
from .points import bbox_of, inflate_degenerate_axes
from .splats import read_gs_ply, write_gs_ply
from .transport import deform_cloud

logger = logging.getLogger("cagewarp")

MODES = ("deform", "fit-cage", "apply-cage", "baseline")


@dataclass
class PipelineConfig:
    """Everything a run needs; the run's mode (see run_pipeline) is not
    part of it.

    lambdas are interpolation factors in [0, 1]; one output model is
    written per factor. jacobian_sites (m) bounds how many Jacobians are
    evaluated; sample_count (N) bounds how many centers/target points the
    fit sees. cage_in is the (source_cage, deformed_cage) OBJ pair that
    apply-cage replays, and no other mode takes one; a fitted pair is
    written to output_dir. target is required by every mode except
    apply-cage, where it only adds a chamfer per output. workers = 0
    means one thread per available core.
    """

    source: str
    output_dir: str
    target: str | None = None
    target_kind: str = "auto"
    fit: FitConfig = field(default_factory=FitConfig)
    jacobian_sites: int = 10000
    sample_count: int = 30000
    lambdas: tuple = (1.0,)
    seed: int = 0
    update_covariance: bool = True
    cage_in: tuple | None = None
    cage_resolution: int = 2
    cage_padding: float = 0.1
    center_chunk: int = 30000
    workers: int = 0

    def validate(self, mode: str = "deform") -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "apply-cage" and self.cage_in is None:
            raise ValueError("apply-cage needs cage_in (source cage, "
                             "deformed cage)")
        if mode != "apply-cage" and self.cage_in is not None:
            raise ValueError(f"{mode} takes no cage_in; only apply-cage "
                             "replays a cage pair")
        if mode != "apply-cage" and self.target is None:
            raise ValueError(f"a target is required by {mode}")
        lams = tuple(float(l) for l in self.lambdas)
        if not lams:
            raise ValueError("at least one lambda value is required")
        if any(not 0.0 <= l <= 1.0 for l in lams):
            raise ValueError(f"lambda values must lie in [0, 1]: {lams}")
        if len(set(_lambda_tag(l) for l in lams)) != len(lams):
            raise ValueError(f"duplicate lambda values: {lams}")
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"target_kind must be one of {TARGET_KINDS}")
        if self.jacobian_sites < 1:
            raise ValueError("jacobian_sites must be >= 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.center_chunk < 1:
            raise ValueError("center_chunk must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.cage_in is not None and len(tuple(self.cage_in)) != 2:
            raise ValueError("cage_in needs exactly two paths "
                             "(source cage, deformed cage)")
        paths = [str(self.source)]
        if self.target is not None:
            paths.append(str(self.target))
        if self.cage_in is not None:
            paths.extend(str(p) for p in self.cage_in)
        if len(set(map(os.path.abspath, paths))) != len(paths):
            raise ValueError(f"input paths must be distinct: {paths}")

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


@dataclass
class _Frame:
    """Similarity transform between world and a unit-diagonal box frame."""

    center: np.ndarray
    scale: float

    @classmethod
    def of_points(cls, points: np.ndarray) -> "_Frame":
        lo, hi = inflate_degenerate_axes(*bbox_of(points))
        return cls(center=0.5 * (lo + hi),
                   scale=1.0 / float(np.linalg.norm(hi - lo)))

    def to_canonical(self, points: np.ndarray) -> np.ndarray:
        return (points - self.center) * self.scale

    def from_canonical(self, points: np.ndarray) -> np.ndarray:
        return points / self.scale + self.center


def _lambda_tag(lam: float) -> str:
    return f"{lam:.2f}"


class _Run:
    """Tracks artifacts and stage timings; removes artifacts on failure."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.artifacts: list[Path] = []
        self.timings: dict[str, float] = {}

    def claim(self, name: str) -> Path:
        path = self.out_dir / name
        self.artifacts.append(path)
        return path

    @contextmanager
    def stage(self, name: str):
        logger.info("[%s] ...", name)
        started = time.perf_counter()
        try:
            yield
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc
        elapsed = time.perf_counter() - started
        self.timings[name] = elapsed
        logger.info("[%s] done in %.2f s", name, elapsed)

    def discard_artifacts(self) -> None:
        for path in self.artifacts:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                logger.warning("could not remove partial output %s", path)


def _normalized_chamfer(a: np.ndarray, b: np.ndarray,
                        frame: _Frame) -> float:
    return chamfer_distance(frame.to_canonical(a), frame.to_canonical(b))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")


def _write_fit_trace(path: Path, report) -> None:
    lines = ["iteration,total,alignment,flip_penalty,best"]
    for i, (row, best) in enumerate(zip(report.loss_trace,
                                        report.best_trace), start=1):
        cells = ",".join(repr(float(v)) for v in (*row, best))
        lines.append(f"{i},{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _verify_artifacts(run: _Run) -> None:
    """Re-open every artifact; any unreadable output fails the run."""
    for path in run.artifacts:
        if not path.is_file():
            raise PipelineError("verify", f"missing artifact {path}")
        suffix = path.suffix.lower()
        try:
            if suffix == ".ply":
                read_gs_ply(path)
            elif suffix == ".obj":
                read_cage_obj(path)
            elif suffix == ".json":
                json.loads(path.read_text(encoding="ascii"))
            elif suffix == ".csv":
                if not path.read_text(encoding="ascii").strip():
                    raise ValueError("empty file")
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError("verify", f"artifact {path} failed its "
                                          f"readback check: {exc}") from exc


def run_pipeline(config: PipelineConfig, mode: str = "deform",
                 timings_out=None) -> dict:
    """Execute one run; returns a summary dict (also saved as JSON).

    mode is the CLI subcommand: "deform" fits a cage pair to the target
    and writes one model per lambda; "fit-cage" writes the cage pair and
    fit trace but no models; "apply-cage" deforms with config.cage_in and
    fits nothing; "baseline" scales the model onto the target's bounding
    box. A configuration the mode cannot use fails at stage "config"
    before anything is written. Stage failures raise PipelineError tagged
    with the stage name after removing any partially written outputs.
    timings_out optionally names a JSON file for per-stage wall-clock
    seconds; it is diagnostic output, kept apart from the deterministic
    artifacts.
    """
    try:
        config.validate(mode)
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = _Run(out_dir)
    try:
        summary = _execute(config, mode, run)
    except BaseException:
        run.discard_artifacts()
        raise
    if timings_out is not None:
        _write_json(Path(timings_out), {"stage_seconds": run.timings})
    return summary


def _execute(config: PipelineConfig, mode: str, run: _Run) -> dict:
    with run.stage("load-source"):
        cloud = read_gs_ply(config.source)
        logger.info("source: %d splats from %s", len(cloud), config.source)

    if mode == "apply-cage":
        with run.stage("load-cages"):
            source_cage = read_cage_obj(config.cage_in[0])
            deformed_cage = read_cage_obj(config.cage_in[1])
            source_cage.check_same_topology(deformed_cage)

    target_points = None
    if config.target is not None:
        with run.stage("load-target"):
            target = load_target(config.target, kind=config.target_kind)
            target_points = sample_points(target, config.sample_count,
                                          config.seed + 1)
            logger.info("target: %d points (%s)", len(target_points),
                        type(target).__name__)
        metric_frame = _Frame.of_points(target_points)

    def chamfer_to_target(moved) -> float:
        return _normalized_chamfer(
            sample_points(moved.centers, config.sample_count, config.seed),
            target_points, metric_frame)

    report = None
    cage_paths = {}
    if mode in ("deform", "fit-cage"):
        with run.stage("sample-source"):
            samples = sample_points(cloud, config.sample_count, config.seed)

        with run.stage("fit-cage"):
            src_frame = _Frame.of_points(cloud.centers)
            tgt_frame = _Frame.of_points(target_points)
            cage_canonical = build_template_cage(
                src_frame.to_canonical(cloud.centers),
                resolution=config.cage_resolution,
                padding=config.cage_padding)
            fitted_canonical, report = fit_deformed_cage(
                src_frame.to_canonical(samples),
                tgt_frame.to_canonical(target_points),
                cage_canonical, config.fit)
            source_cage = cage_canonical.with_vertices(
                src_frame.from_canonical(cage_canonical.vertices))
            deformed_cage = fitted_canonical.with_vertices(
                tgt_frame.from_canonical(fitted_canonical.vertices),
                validate=False)
            logger.info(
                "fit: %d iterations, converged=%s, chamfer %.3e "
                "(normalized frame)", report.iterations_run,
                report.converged, report.final_chamfer)

        with run.stage("write-cages"):
            src_path = run.claim("source_cage.obj")
            def_path = run.claim("deformed_cage.obj")
            write_cage_obj(source_cage, src_path)
            write_cage_obj(deformed_cage, def_path)
            cage_paths = {"source_cage": src_path.name,
                          "deformed_cage": def_path.name}

        with run.stage("fit-trace"):
            _write_fit_trace(run.claim("fit_trace.csv"), report)

    outputs = []
    if mode == "baseline":
        with run.stage("baseline"):
            # The box comes from the full geometry, not from samples, so
            # the map hits the exact extents; samples are only for the
            # metric.
            full = target.vertices if isinstance(target, TriangleMesh) \
                else target.points
            moved = baseline_bbox_scale(
                cloud, *bbox_of(full),
                update_covariance=config.update_covariance)
            path = run.claim("baseline.ply")
            write_gs_ply(moved, path)
            outputs.append({"path": path.name, "chamfer_sq_normalized":
                            chamfer_to_target(moved)})
    elif mode != "fit-cage":
        for lam in config.lambdas:
            with run.stage(f"deform-lam{_lambda_tag(lam)}"):
                cage_lam = interpolate_cage(source_cage, deformed_cage,
                                            float(lam))
                moved, jac_field = deform_cloud(
                    cloud, source_cage, cage_lam,
                    update_covariance=config.update_covariance,
                    m=config.jacobian_sites, seed=config.seed,
                    center_chunk=config.center_chunk,
                    workers=config.effective_workers())
                path = run.claim(f"deformed_lam{_lambda_tag(lam)}.ply")
                write_gs_ply(moved, path)
                entry = {"lambda": float(lam), "path": path.name}
                if jac_field is not None:
                    entry["jacobian_sites"] = int(
                        len(jac_field.site_indices))
                    entry["singular_sites"] = jac_field.n_singular
                if target_points is not None:
                    entry["chamfer_sq_normalized"] = chamfer_to_target(moved)
                outputs.append(entry)

    summary = {
        "mode": mode,
        "source": str(config.source),
        "target": None if config.target is None else str(config.target),
        "splats": len(cloud),
        "update_covariance": config.update_covariance,
        "seed": config.seed,
        "chamfer_frame": "unit-diagonal box of the target points",
        "outputs": outputs,
        **cage_paths,
    }
    if report is not None:
        summary["fit"] = {
            "iterations": report.iterations_run,
            "converged": report.converged,
            "final_chamfer_normalized": report.final_chamfer,
            "outside_fraction": report.outside_fraction,
        }
    with run.stage("metrics"):
        _write_json(run.claim("metrics.json"), summary)

    with run.stage("verify"):
        _verify_artifacts(run)
    return summary


def compare_models(path_a, path_b, kind_a: str = "auto",
                   kind_b: str = "auto", sample_count: int = 30000,
                   seed: int = 0) -> dict:
    """Symmetric squared chamfer between two models, reported in the
    unit-diagonal frame of the second (reference) model."""
    points = []
    for path, kind, offset in ((path_a, kind_a, 0), (path_b, kind_b, 1)):
        geometry = load_target(path, kind=kind)
        points.append(sample_points(geometry, sample_count, seed + offset))
    frame = _Frame.of_points(points[1])
    return {
        "model": str(path_a),
        "reference": str(path_b),
        "points_model": len(points[0]),
        "points_reference": len(points[1]),
        "chamfer_frame": "unit-diagonal box of the reference model",
        "chamfer_sq_normalized": _normalized_chamfer(points[0], points[1],
                                                     frame),
    }
