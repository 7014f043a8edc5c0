"""Command-line front end.

Subcommands:
  deform      full run: fit a cage pair to a target, deform, write models
  fit-cage    run the fit only and emit the cage pair + loss trace
  apply-cage  deform with an existing cage pair, skipping the fit
  metrics     chamfer distance between two models
  baseline    bounding-box scaling instead of a cage (ablation comparator)

The subcommand is the run's mode (pipeline.run_pipeline); a setting the
mode cannot use, such as cage_in outside apply-cage, exits with status 2
before anything is written. Flags mirror PipelineConfig; a --config JSON
file supplies the same keys, with explicit flags winning. Progress and
timings go to stderr; the run summary is printed to stdout as JSON. The
CAGEWARP_LOG environment variable (DEBUG/INFO/WARNING/ERROR) sets the log
level, -v forces DEBUG.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .errors import CagewarpError
from .fitting import FitConfig
from .metrics import TARGET_KINDS
from .pipeline import PipelineConfig, compare_models, run_pipeline

logger = logging.getLogger("cagewarp")

_CONFIG_KEYS = set(PipelineConfig.__dataclass_fields__) - {"fit"}
_FIT_KEYS = set(FitConfig.__dataclass_fields__)


def _read_config_file(path: Path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    fit_part = data.pop("fit", {})
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    bad_fit = set(fit_part) - _FIT_KEYS
    if bad_fit:
        raise ValueError(f"{path}: unknown fit keys {sorted(bad_fit)}")
    data["fit"] = fit_part
    return data


def _parse_lambdas(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _add_io_flags(parser):
    parser.add_argument("--source", "-s", help="input splat model (.ply)")
    parser.add_argument("--target", "-t",
                        help="target geometry (.obj mesh or .ply)")
    parser.add_argument("--target-kind", choices=TARGET_KINDS,
                        dest="target_kind",
                        help="how to interpret the target file")
    parser.add_argument("--out", "-o", dest="output_dir",
                        help="output directory for all artifacts")
    parser.add_argument("--config", type=Path,
                        help="JSON config file with the same keys as the "
                             "flags")


def _add_run_flags(parser):
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--samples", type=int, dest="sample_count",
                        help="max sampled centers / target points "
                             "(default 30000)")
    parser.add_argument("--workers", type=int,
                        help="thread count for the deform stage; "
                             "0 = all cores (default)")
    parser.add_argument("--center-chunk", type=int, dest="center_chunk",
                        help="splats processed per chunk (default 30000)")
    parser.add_argument("--timings-out", type=Path, dest="timings_out",
                        help="write per-stage wall-clock seconds to this "
                             "JSON file")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at DEBUG level")


def _add_deform_flags(parser):
    parser.add_argument("--lambdas", type=_parse_lambdas,
                        help="comma-separated interpolation factors in "
                             "[0,1], one output per value (default 1)")
    parser.add_argument("--sites", type=int, dest="jacobian_sites",
                        help="Jacobian evaluation sites (default 10000)")
    parser.add_argument("--covariance", dest="update_covariance",
                        action=argparse.BooleanOptionalAction,
                        help="transport covariances through the local "
                             "Jacobian (default on)")


def _add_fit_flags(parser):
    parser.add_argument("--iterations", type=int, dest="fit_iterations",
                        help="max fit iterations (default 500)")
    parser.add_argument("--step-size", type=float, dest="fit_step_size",
                        help="optimizer step as a fraction of the cage "
                             "diagonal (default 0.01)")
    parser.add_argument("--cage-resolution", type=int,
                        dest="cage_resolution",
                        help="template cage subdivisions per edge "
                             "(default 2)")
    parser.add_argument("--cage-padding", type=float, dest="cage_padding",
                        help="template cage margin fraction (default 0.1)")


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
    p.add_argument("--model-kind", choices=TARGET_KINDS, default="auto")
    p.add_argument("--reference-kind", choices=TARGET_KINDS, default="auto")
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
        file_cfg = _read_config_file(args.config) if args.config else {
            "fit": {}}
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    fit_cfg = dict(file_cfg.pop("fit", {}))
    for key in _FIT_KEYS:
        value = getattr(args, f"fit_{key}", None)
        if value is not None:
            fit_cfg[key] = value
    merged = dict(file_cfg)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if "lambdas" in merged:
        merged["lambdas"] = tuple(float(l) for l in merged["lambdas"])
    if merged.get("cage_in") is not None:
        merged["cage_in"] = tuple(str(p) for p in merged["cage_in"])

    if merged.get("source") is None:
        parser.error("a source model is required (--source or config file)")
    if merged.get("output_dir") is None:
        parser.error("an output directory is required (--out or config "
                     "file)")
    try:
        config = PipelineConfig(fit=FitConfig(**fit_cfg), **merged)
        config.validate(args.command)
    except (TypeError, ValueError) as exc:
        parser.error(f"bad configuration: {exc}")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "verbose", False))

    try:
        if args.command == "metrics":
            result = compare_models(
                args.model, args.reference, kind_a=args.model_kind,
                kind_b=args.reference_kind, sample_count=args.samples,
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
