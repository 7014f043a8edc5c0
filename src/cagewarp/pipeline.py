"""End-to-end deformation runs: load, fit, deform, write, verify.

A run reads a splat model, fits (or loads) a cage pair, deforms the model
once through the full pair, serves every interpolation factor as a blend
of that deformation and the identity, and writes the results plus cages,
a fit trace, and a metrics report; the baseline mode scales the model
onto the target's bounding box instead. Every artifact is deterministic
for a given config and seed: timings go to the log, never into output
files.

Fitting happens in normalized frames (source and target each mapped to a
unit-diagonal box at the origin) so step sizes and tolerances are
scale-free; the cages are mapped back through the inverse transforms
before any splat is touched, which is exact because the coordinates are
invariant under similarity transforms of the cage.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:     # not every platform has getrusage
    resource = None

from .cage import (TriangleMesh, bbox_of, build_template_cage, det3,
                   inflate_degenerate_axes, read_cage_obj,
                   read_deformed_cage, write_cage_obj)
from .errors import PipelineError
from .fitting import fit_deformed_cage
from .metrics import (baseline_bbox_scale, chamfer_distance, load_target,
                      sample_points)
from .splats import read_gs_ply, verify_gs_ply, write_gs_ply
from .transport import SINGULAR_DET, blend_deformation, deform_cloud

logger = logging.getLogger("cagewarp")

MODES = ("deform", "fit-cage", "apply-cage", "baseline")
# The template cage's margin per axis, as a fraction of the axis. Every
# box axis spans at least 1e-3 of the diagonal (inflate_degenerate_axes),
# so centers clear the cage by at least 1e-4 of it: about 80x the 1.25e-6
# that jacobian_fd's smallest stencil needs (2 * FD_STEP_FRACTION / 16).
CAGE_PADDING = 0.1
# Annotation -> accepted values; a bool is no number, an int is a float.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool,
                "str": str, "str | None": (str, type(None)),
                "tuple": (tuple, list),
                "tuple | None": (tuple, list, type(None))}


@dataclass
class PipelineConfig:
    """Everything a run needs; the run's mode (see run_pipeline) is not
    part of it.

    lambdas are interpolation factors in [0, 1]; one output model is
    written per factor. The model is deformed once, through the full cage
    pair, if any factor is above 0, and each output blends that result
    with the identity (transport.blend_deformation); up to rounding, that
    is the deformation through the cage pair interpolated at the factor.
    jacobian_sites (m) bounds how many Jacobians are evaluated;
    sample_count (N) bounds how many centers/target points the fit sees.
    The fit's template cage has the margin CAGE_PADDING; fit_iterations
    and fit_convergence_tol are fit_deformed_cage's keywords.
    cage_in is the (source_cage, deformed_cage) OBJ pair that apply-cage
    replays, and no other mode takes one; a fitted pair is written to
    output_dir. target is required by every mode except apply-cage, where
    it only adds a chamfer per output. center_chunk sets the splats per
    span of the deform stage's serial pass, and no output bit.
    """

    source: str
    output_dir: str
    target: str | None = None
    jacobian_sites: int = 10000
    sample_count: int = 30000
    lambdas: tuple = (1.0,)
    seed: int = 0
    update_covariance: bool = True
    cage_in: tuple | None = None
    cage_resolution: int = 2
    fit_iterations: int = 500
    fit_convergence_tol: float = 1e-5
    center_chunk: int = 30000

    def validate(self, mode: str = "deform", timings_out=None,
                 config_file=None) -> None:
        """Raise ValueError for a setting the mode cannot use, a value of
        the wrong type or out of range, an artifact that would overwrite
        an input, or a timings_out file that would overwrite an input or
        an artifact. config_file, the file the settings were read from,
        counts as an input."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        for f in fields(self):
            value, kind = getattr(self, f.name), _FIELD_TYPES.get(f.type)
            if kind and (not isinstance(value, kind)
                         or isinstance(value, bool) != (kind is bool)):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if kind is numbers.Real and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.cage_in is not None and not (len(self.cage_in) == 2 and all(
                isinstance(p, str) for p in self.cage_in)):
            raise ValueError("cage_in must be two str paths (source cage, "
                             f"deformed cage), got {self.cage_in!r}")
        if mode == "apply-cage" and self.cage_in is None:
            raise ValueError("apply-cage needs cage_in (source cage, "
                             "deformed cage)")
        if mode != "apply-cage" and self.cage_in is not None:
            raise ValueError(f"{mode} takes no cage_in; only apply-cage "
                             "replays a cage pair")
        if mode != "apply-cage" and self.target is None:
            raise ValueError(f"a target is required by {mode}")
        lams = tuple(self.lambdas)
        if not all(isinstance(l, numbers.Real) and not isinstance(l, bool)
                   for l in lams):
            raise ValueError(f"lambda values must be numbers: {lams!r}")
        if not lams:
            raise ValueError("at least one lambda value is required")
        if any(not 0.0 <= l <= 1.0 for l in lams):
            raise ValueError(f"lambda values must lie in [0, 1]: {lams}")
        if len(set(_lambda_tag(l) for l in lams)) != len(lams):
            raise ValueError(f"duplicate lambda values: {lams}")
        for rule, holds in (
                ("jacobian_sites must be >= 1", self.jacobian_sites >= 1),
                ("sample_count must be >= 1", self.sample_count >= 1),
                ("center_chunk must be >= 1", self.center_chunk >= 1),
                ("seed must be >= 0", self.seed >= 0),
                ("cage_resolution must be >= 1", self.cage_resolution >= 1),
                ("fit_iterations must be >= 1", self.fit_iterations >= 1),
                ("fit_convergence_tol must be >= 0",
                 self.fit_convergence_tol >= 0)):
            if not holds:
                raise ValueError(rule)
        paths = [p for p in (self.source, self.target, *(self.cage_in or ()),
                             config_file) if p is not None]
        if len(set(map(os.path.abspath, paths))) != len(paths):
            raise ValueError(f"input paths must be distinct: {paths}")
        inputs = {Path(p).resolve() for p in paths}
        artifacts = set()
        for name in _artifact_names(self, mode):
            artifact = Path(self.output_dir, name).resolve()
            if artifact in inputs:
                raise ValueError(f"output {name} in {self.output_dir} "
                                 "would overwrite an input")
            artifacts.add(artifact)
        if timings_out is not None and \
                Path(timings_out).resolve() in inputs | artifacts:
            raise ValueError(f"timings_out {timings_out} would overwrite an "
                             "input or an artifact")


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


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far in MiB, or None where the
    platform does not report it (ru_maxrss counts KiB; macOS counts
    bytes)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _lambda_tag(lam: float) -> str:
    return f"{lam:.2f}"


def _artifact_names(config: PipelineConfig, mode: str) -> list[str]:
    """The files a run in this mode writes into config.output_dir."""
    names = ["metrics.json"]
    if mode in ("deform", "fit-cage"):
        names += ["source_cage.obj", "deformed_cage.obj", "fit_trace.csv"]
    if mode == "baseline":
        names.append("baseline.ply")
    elif mode != "fit-cage":
        names += [f"deformed_lam{_lambda_tag(float(lam))}.ply"
                  for lam in config.lambdas]
    return names


class _Run:
    """Makes the output directory, tracks artifacts, stage timings and the
    peak RSS after each stage, and on failure removes the artifacts and
    the directories it made.

    Only planned names may be claimed: validate checked those against
    the inputs."""

    def __init__(self, out_dir: Path, planned: list[str]):
        self.out_dir = out_dir
        self.created = [d for d in (out_dir, *out_dir.parents)
                        if not d.exists()]              # deepest first
        out_dir.mkdir(parents=True, exist_ok=True)
        self.planned = set(planned)
        self.artifacts: list[Path] = []
        self.timings: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}

    def claim(self, name: str) -> Path:
        if name not in self.planned:
            raise ValueError(f"{name} is not a planned artifact")
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
        peak = _peak_rss_mb()
        if peak is not None:
            self.peak_rss_mb[name] = peak
        logger.info("[%s] done in %.2f s%s", name, elapsed,
                    "" if peak is None else f", peak RSS {peak:.1f} MB")

    def discard_artifacts(self) -> None:
        for path in self.artifacts:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                logger.warning("could not remove partial output %s", path)
        for directory in self.created:
            try:
                directory.rmdir()
            except OSError:     # not empty, so neither is its parent
                break


def _normalized_chamfer(a: np.ndarray, b: np.ndarray,
                        frame: _Frame) -> float:
    return chamfer_distance(frame.to_canonical(a), frame.to_canonical(b))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")


def _write_fit_trace(path: Path, report) -> None:
    lines = ["iteration,total,alignment,flip_penalty,best"]
    for i, (row, best) in enumerate(zip(report.loss_trace,
                                        report.best_trace),
                                    start=report.coarse_iterations + 1):
        cells = ",".join(repr(float(v)) for v in (*row, best))
        lines.append(f"{i},{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _verify_artifacts(run: _Run) -> None:
    """Re-open every artifact; any unreadable output fails the run. A
    splat PLY gets read_gs_ply's checks one row block at a time; the cage
    pair is read back as apply-cage reads it."""
    for path in run.artifacts:
        if not path.is_file():
            raise PipelineError("verify", f"missing artifact {path}")
        suffix = path.suffix.lower()
        try:
            if suffix == ".ply":
                verify_gs_ply(path)
            elif path.name == "deformed_cage.obj":
                read_deformed_cage(path, read_cage_obj(
                    path.with_name("source_cage.obj")))
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
    seconds and the process's peak RSS in MiB after each stage (where the
    platform reports it); it is diagnostic output, kept apart from the
    deterministic artifacts, and may be neither an input nor an artifact;
    a failure to write it removes the outputs as a stage failure does.
    """
    try:
        config.validate(mode, timings_out)
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc

    run = _Run(Path(config.output_dir), _artifact_names(config, mode))
    try:
        summary = _execute(config, mode, run)
        if timings_out is not None:
            _write_json(Path(timings_out), {
                "stage_seconds": run.timings,
                "stage_peak_rss_mb": run.peak_rss_mb})
    except BaseException:
        run.discard_artifacts()
        raise
    return summary


def _execute(config: PipelineConfig, mode: str, run: _Run) -> dict:
    with run.stage("load-source"):
        cloud = read_gs_ply(config.source)
        logger.info("source: %d splats from %s", len(cloud), config.source)

    if mode == "apply-cage":
        with run.stage("load-cages"):
            source_cage = read_cage_obj(config.cage_in[0])
            deformed_cage = read_deformed_cage(config.cage_in[1],
                                               source_cage)

    target_points = None
    if config.target is not None:
        with run.stage("load-target"):
            target = load_target(config.target)
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
            samples = sample_points(cloud.centers, config.sample_count,
                                    config.seed)

        with run.stage("fit-cage"):
            src_frame = _Frame.of_points(cloud.centers)
            tgt_frame = _Frame.of_points(target_points)
            cage_canonical = build_template_cage(
                src_frame.to_canonical(cloud.centers),
                resolution=config.cage_resolution,
                padding=CAGE_PADDING)
            fitted_canonical, report = fit_deformed_cage(
                src_frame.to_canonical(samples),
                tgt_frame.to_canonical(target_points),
                cage_canonical, config.fit_iterations,
                config.fit_convergence_tol)
            source_cage = cage_canonical.with_vertices(
                src_frame.from_canonical(cage_canonical.vertices))
            deformed_cage = fitted_canonical.with_vertices(
                tgt_frame.from_canonical(fitted_canonical.vertices))
            logger.info(
                "fit: %d iterations (%d on %d samples and %d targets, then "
                "all rows), converged=%s, chamfer %.3e (normalized frame)",
                report.iterations_run, report.coarse_iterations,
                report.coarse_samples, report.coarse_targets,
                report.converged, report.final_chamfer)
            logger.info(
                "fit: k-d queries for %d of %d sample rows and %d of %d "
                "target rows", report.sample_requeries, report.sample_rows,
                report.target_requeries, report.target_rows)

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
                else target
            moved = baseline_bbox_scale(
                cloud, *bbox_of(full),
                update_covariance=config.update_covariance)
            path = run.claim("baseline.ply")
            write_gs_ply(moved, path)
            outputs.append({"path": path.name, "chamfer_sq_normalized":
                            chamfer_to_target(moved)})
    elif mode != "fit-cage":
        lambdas = [float(lam) for lam in config.lambdas]
        full = full_field = None
        if any(lambdas):
            with run.stage("deform"):
                full, full_field = deform_cloud(
                    cloud, source_cage, deformed_cage,
                    update_covariance=config.update_covariance,
                    m=config.jacobian_sites, seed=config.seed,
                    center_chunk=config.center_chunk)
            if full_field is not None:
                logger.info(
                    "deform: %d Jacobian sites, %d with gradients dropped "
                    "by the residual limiter",
                    len(full_field.site_indices), full_field.limited_sites)
        for lam in lambdas:
            with run.stage(f"deform-lam{_lambda_tag(lam)}"):
                moved, jac_field = blend_deformation(
                    cloud, full, full_field, lam,
                    center_chunk=config.center_chunk)
                path = run.claim(f"deformed_lam{_lambda_tag(lam)}.ply")
                write_gs_ply(moved, path)
                entry = {"lambda": lam, "path": path.name}
                if jac_field is not None:
                    # det J^T, from J's columns as component arrays.
                    det = det3(jac_field.site_jacobians.T)
                    entry["jacobian_sites"] = len(det)
                    entry["singular_sites"] = int(np.count_nonzero(
                        np.abs(det) <= SINGULAR_DET))
                    entry["inverted_sites"] = int(np.count_nonzero(det < 0))
                    entry["limited_sites"] = jac_field.limited_sites
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
            "coarse_iterations": report.coarse_iterations,
            "coarse_samples": report.coarse_samples,
            "coarse_targets": report.coarse_targets,
        }
    with run.stage("metrics"):
        _write_json(run.claim("metrics.json"), summary)

    with run.stage("verify"):
        _verify_artifacts(run)
    return summary


def compare_models(path_a, path_b, sample_count: int = 30000,
                   seed: int = 0) -> dict:
    """Symmetric squared chamfer between two models, reported in the
    unit-diagonal frame of the second (reference) model."""
    points = [sample_points(load_target(path), sample_count, seed + offset)
              for offset, path in enumerate((path_a, path_b))]
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
