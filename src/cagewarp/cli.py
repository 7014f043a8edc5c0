"""Command-line front end.

Subcommands:
  deform      full run: fit a cage pair to a target, deform, write models
  fit-cage    run the fit only and emit the cage pair + loss trace
  apply-cage  deform with an existing cage pair, skipping the fit
  metrics     chamfer distance between two models
  baseline    bounding-box scaling instead of a cage (ablation comparator)

The subcommand is the run's mode (pipeline.run_pipeline). A setting the mode
cannot use, such as cage_in outside apply-cage, an out-of-range value, a
config-file value of the wrong type and an output that would overwrite an
input, the --config file included, exit with status 2 before anything is
written; metrics checks its flags the same way. Flags mirror PipelineConfig,
whose field names key a --config JSON file (fit_x as {"fit": {"x": ...}});
explicit flags win. The one exception is --workers, which is parsed, has
no effect and keys no setting. Progress and timings go to stderr; the run
summary is printed to stdout as JSON. The CAGEWARP_LOG environment
variable sets the log level (DEBUG/INFO/WARNING/ERROR), -v forces DEBUG.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import logging
import os
import sys
from pathlib import Path

from .errors import CagewarpError
from .pipeline import PipelineConfig, compare_models, run_pipeline

logger = logging.getLogger("cagewarp")

_CONFIG_KEYS = set(PipelineConfig.__dataclass_fields__)

# The interpreter's finalizer runs cyclic collections that walk every
# object numpy and scipy made at import: `python -c "import cagewarp.cli"`
# spent 80-130 ms (median 100) exiting, and 14-21 ms after gc.freeze()
# (2 cores). atexit hooks run before those collections, and callers that
# import this module keep their collector until their interpreter exits.
atexit.register(gc.freeze)


def _read_config_file(path: Path) -> dict:
    """A --config file as PipelineConfig keywords; "fit": {name: value}
    is the one spelling of fit_<name>."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    fit = data.pop("fit", {})
    if not isinstance(fit, dict):
        raise ValueError(f"{path}: fit must be a JSON object, got {fit!r}")
    unknown = [key for key in data
               if key not in _CONFIG_KEYS or key.startswith("fit_")]
    unknown += [f"fit.{key}" for key in fit
                if f"fit_{key}" not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return {**data, **{f"fit_{key}": value for key, value in fit.items()}}


def _parse_lambdas(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _add_io_flags(parser):
    parser.add_argument("--source", "-s", help="input splat model (.ply)")
    parser.add_argument("--target", "-t",
                        help="target geometry: an .obj mesh, or a .ply "
                             "whose vertex x/y/z are used")
    parser.add_argument("--out", "-o", dest="output_dir",
                        help="output directory for all artifacts")
    parser.add_argument("--config", type=Path,
                        help="JSON file keyed by PipelineConfig field "
                             "names; fit settings in a nested \"fit\" object")


def _add_run_flags(parser):
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--samples", type=int, dest="sample_count",
                        help="max sampled centers / target points "
                             "(default 30000)")
    parser.add_argument("--workers", type=int,
                        help="has no effect: the deform stage runs on "
                             "the calling thread")
    parser.add_argument("--center-chunk", type=int, dest="center_chunk",
                        help="splats per work unit of the deform pass; "
                             "changes no output bit (default 30000)")
    parser.add_argument("--timings-out", type=Path, dest="timings_out",
                        help="write per-stage wall-clock seconds and the "
                             "peak RSS after each stage to this JSON file")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at DEBUG level")


def _add_deform_flags(parser):
    parser.add_argument("--lambdas", type=_parse_lambdas,
                        help="comma-separated interpolation factors in "
                             "[0,1], one output per value (default 1)")
    parser.add_argument("--sites", type=int, dest="jacobian_sites",
                        help="Jacobian evaluation sites; every splat "
                             "takes its nearest site's Jacobian, carried "
                             "along that site's fitted gradient (default "
                             "10000)")
    parser.add_argument("--covariance", dest="update_covariance",
                        action=argparse.BooleanOptionalAction,
                        help="transport covariances through the local "
                             "Jacobian (default on)")


def _add_fit_flags(parser):
    parser.add_argument("--iterations", type=int, dest="fit_iterations",
                        help="max fit iterations (default 500)")
    parser.add_argument("--cage-resolution", type=int,
                        dest="cage_resolution",
                        help="template cage subdivisions per edge "
                             "(default 2)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cagewarp",
        description="Cage-driven deformation of Gaussian splat models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deform", help="fit a cage pair and deform")
    _add_io_flags(p)
    _add_deform_flags(p)
    _add_fit_flags(p)
    _add_run_flags(p)

    p = sub.add_parser("fit-cage", help="fit and write the cage pair only")
    _add_io_flags(p)
    _add_fit_flags(p)
    _add_run_flags(p)

    p = sub.add_parser("apply-cage",
                       help="deform with an existing cage pair")
    _add_io_flags(p)
    p.add_argument("--cage-in", nargs=2, dest="cage_in", required=False,
                   metavar=("SRC_OBJ", "DEF_OBJ"),
                   help="the cage pair to replay")
    _add_deform_flags(p)
    _add_run_flags(p)

    p = sub.add_parser("baseline",
                       help="bounding-box scaling toward the target")
    _add_io_flags(p)
    p.add_argument("--covariance", dest="update_covariance",
                   action=argparse.BooleanOptionalAction,
                   help="rescale covariances too (default on)")
    _add_run_flags(p)

    p = sub.add_parser("metrics",
                       help="chamfer distance between two models")
    p.add_argument("--model", "-m", required=True,
                   help="model to score (.ply or .obj)")
    p.add_argument("--reference", "-r", required=True,
                   help="reference model; its bounding box sets the "
                        "normalized frame")
    p.add_argument("--samples", type=int, default=30000,
                   help="points sampled per model (default 30000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="also write the JSON here")
    p.add_argument("-v", "--verbose", action="store_true")
    return parser


def _configure_logging(verbose: bool) -> None:
    level_name = "DEBUG" if verbose else os.environ.get("CAGEWARP_LOG",
                                                        "INFO")
    level = getattr(logging, level_name.upper(), logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s %(message)s")
    logger.setLevel(level)


def _build_config(args, parser) -> PipelineConfig:
    try:
        file_cfg = _read_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    merged = dict(file_cfg)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged.get("source") is None:
        parser.error("a source model is required (--source or config file)")
    if merged.get("output_dir") is None:
        parser.error("an output directory is required (--out or config "
                     "file)")
    try:
        config = PipelineConfig(**merged)
        config.validate(args.command, args.timings_out, args.config)
    except (TypeError, ValueError) as exc:
        parser.error(f"bad configuration: {exc}")
    return config


def _check_metrics_args(args, parser) -> None:
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.out is not None and args.out.resolve() in {
            Path(args.model).resolve(), Path(args.reference).resolve()}:
        parser.error(f"--out {args.out} would overwrite an input")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "verbose", False))
    try:
        if args.command == "metrics":
            _check_metrics_args(args, parser)
            result = compare_models(
                args.model, args.reference, sample_count=args.samples,
                seed=args.seed)
            text = json.dumps(result, indent=2, sort_keys=True)
            if args.out is not None:
                args.out.write_text(text + "\n", encoding="ascii")
            print(text)
            return 0

        config = _build_config(args, parser)
        summary = run_pipeline(config, args.command,
                               timings_out=args.timings_out)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except (CagewarpError, OSError, ValueError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
