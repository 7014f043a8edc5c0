"""Exercising the command-line interface through its main() entry point."""

import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cagewarp
from cagewarp.cage import TriangleMesh, build_template_cage, write_cage_obj
from cagewarp.cli import _build_parser, main
from cagewarp.metrics import write_point_ply
from cagewarp.pipeline import PipelineConfig, compare_models
from cagewarp.splats import read_gs_ply, write_gs_ply

from conftest import random_cloud


@pytest.fixture()
def model_files(tmp_path):
    cloud = random_cloud(300, seed=7)
    source = tmp_path / "model.ply"
    write_gs_ply(cloud, source)
    stretched = cloud.centers * np.array([1.4, 0.9, 1.0]) + 0.2
    target = tmp_path / "goal.ply"
    write_point_ply(stretched, target)
    return source, target


def _common(tmp_path):
    return ["--samples", "300", "--iterations", "30", "--seed", "0"]


def test_deform_subcommand(model_files, tmp_path, capsys):
    source, target = model_files
    out = tmp_path / "run"
    code = main(["deform", "--source", str(source), "--target", str(target),
                 "--out", str(out), "--lambdas", "0.5,1", "--sites", "60",
                 *_common(tmp_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "deform"
    assert [o["lambda"] for o in summary["outputs"]] == [0.5, 1.0]
    assert (out / "deformed_lam1.00.ply").is_file()
    assert (out / "metrics.json").is_file()


def test_fit_cage_then_apply_cage(model_files, tmp_path, capsys):
    source, target = model_files
    cage_dir = tmp_path / "cages"
    assert main(["fit-cage", "--source", str(source), "--target",
                 str(target), "--out", str(cage_dir),
                 *_common(tmp_path)]) == 0
    capsys.readouterr()

    apply_dir = tmp_path / "applied"
    code = main(["apply-cage", "--source", str(source),
                 "--cage-in", str(cage_dir / "source_cage.obj"),
                 str(cage_dir / "deformed_cage.obj"),
                 "--out", str(apply_dir), "--lambdas", "1",
                 "--sites", "60", "--samples", "300"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "apply-cage"
    assert (apply_dir / "deformed_lam1.00.ply").is_file()


def test_metrics_subcommand(model_files, tmp_path, capsys):
    source, target = model_files
    report_path = tmp_path / "cd.json"
    code = main(["metrics", "--model", str(source), "--reference",
                 str(target), "--samples", "300",
                 "--out", str(report_path)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(report_path.read_text())
    assert printed == saved
    assert printed["chamfer_sq_normalized"] > 0.0
    assert "unit-diagonal" in printed["chamfer_frame"]


def test_metrics_of_model_with_itself_is_zero(model_files, capsys):
    source, _ = model_files
    code = main(["metrics", "--model", str(source), "--reference",
                 str(source), "--samples", "300"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["chamfer_sq_normalized"] \
        == 0.0


@pytest.mark.parametrize("flags", [
    ("--out", "MODEL"), ("--seed", "-1"), ("--samples", "0"),
], ids=["out-over-model", "negative-seed", "zero-samples"])
def test_metrics_bad_flags_exit_two(model_files, flags):
    source, target = model_files
    before = source.read_bytes()
    flags = [str(source) if f == "MODEL" else f for f in flags]
    with pytest.raises(SystemExit) as excinfo:
        main(["metrics", "-m", str(source), "-r", str(target), *flags])
    assert excinfo.value.code == 2
    assert source.read_bytes() == before


def test_baseline_subcommand(model_files, tmp_path, capsys):
    source, target = model_files
    out = tmp_path / "bl"
    code = main(["baseline", "--source", str(source), "--target",
                 str(target), "--out", str(out), "--samples", "300"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "baseline"
    moved = read_gs_ply(out / "baseline.ply")
    assert len(moved) == 300


def test_missing_required_arguments_exit_two(model_files, tmp_path):
    source, target = model_files
    with pytest.raises(SystemExit) as excinfo:
        main(["deform", "--target", str(target), "--out",
              str(tmp_path / "x")])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["apply-cage", "--source", str(source), "--out",
              str(tmp_path / "y")])
    assert excinfo.value.code == 2


def test_stage_failure_exits_one(tmp_path, model_files):
    _, target = model_files
    code = main(["deform", "--source", str(tmp_path / "nope.ply"),
                 "--target", str(target), "--out", str(tmp_path / "z"),
                 "--iterations", "5"])
    assert code == 1


def test_an_overflowing_covariance_fails_the_deform_stage(model_files,
                                                          tmp_path, caplog):
    # 360 is a finite float32 log-scale, but exp(720) is no float64.
    source, target = model_files
    cloud = read_gs_ply(source)
    cloud.log_scales[211, 0] = 360.0
    write_gs_ply(cloud, source)
    out = tmp_path / "o"
    with caplog.at_level("ERROR", logger="cagewarp"):
        code = main(["deform", "-s", str(source), "-t", str(target),
                     "-o", str(out), "--sites", "60", *_common(tmp_path)])
    assert code == 1
    assert "[deform] splat 211: the transported covariance is not finite" \
        in caplog.text
    assert not out.exists()


def test_a_center_outside_float32_fails_its_lambda_stage(model_files,
                                                        tmp_path, caplog):
    # A cage pair scaled by 1e39 moves the centers beyond float32's range;
    # the write must fail with the splat named, not leave inf for verify.
    source, _ = model_files
    cloud = read_gs_ply(source)
    cage = build_template_cage(cloud.centers, resolution=2)
    cage_in = (tmp_path / "src.obj", tmp_path / "def.obj")
    write_cage_obj(cage, cage_in[0])
    write_cage_obj(cage.with_vertices(cage.vertices * 1e39), cage_in[1])
    out = tmp_path / "o"
    with caplog.at_level("ERROR", logger="cagewarp"):
        code = main(["apply-cage", "-s", str(source), "--cage-in",
                     *map(str, cage_in), "-o", str(out), "--sites", "60"])
    assert code == 1
    assert re.search(r"\[deform-lam1\.00\] centers of splat \d+ \([xyz]\) "
                     r"is outside float32's range", caplog.text)
    assert not out.exists()


def test_bad_lambda_text_exits_two(model_files, tmp_path):
    source, target = model_files
    with pytest.raises(SystemExit) as excinfo:
        main(["deform", "--source", str(source), "--target", str(target),
              "--out", str(tmp_path / "x"), "--lambdas", "a,b"])
    assert excinfo.value.code == 2


def _code_default(command, dest):
    """The default the code uses for a flag's destination."""
    if command == "metrics":
        name = {"samples": "sample_count"}.get(dest, dest)
        return inspect.signature(compare_models).parameters[name].default
    return PipelineConfig.__dataclass_fields__[dest].default


def test_help_states_the_defaults_the_code_uses():
    # The help repeats the defaults as text; every "(default X)" must
    # still read the value the code falls back to.
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    checked = set()
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for text in re.findall(r"\(default ([^)]+)\)", action.help or ""):
                code = _code_default(command, action.dest)
                assert action.default in (None, code), (command, action.dest)
                if text in ("on", "off"):
                    assert code is (text == "on"), (command, action.dest)
                else:
                    stated = tuple(float(x) for x in text.split(","))
                    assert stated == (code if isinstance(code, tuple)
                                      else (code,)), (command, action.dest)
                checked.add((command, action.dest))
    assert {("deform", "jacobian_sites"), ("deform", "lambdas"),
            ("deform", "fit_iterations"), ("fit-cage", "cage_resolution"),
            ("baseline", "update_covariance"),
            ("metrics", "samples")} <= checked


def test_config_file_supplies_defaults_cli_overrides(model_files, tmp_path,
                                                     capsys):
    source, target = model_files
    out = tmp_path / "cfgrun"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "source": str(source),
        "target": str(target),
        "output_dir": str(out),
        "sample_count": 300,
        "lambdas": [1.0],
        "fit": {"iterations": 7, "convergence_tol": 0.0},
    }))
    code = main(["deform", "--config", str(cfg_path), "--iterations", "4"])
    assert code == 0
    capsys.readouterr()
    # CLI --iterations wins over the file's 7
    rows = (out / "fit_trace.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 4


@pytest.mark.parametrize("extra", [
    {"lambdas": 0.5}, {"lambdas": "0.5,1"}, {"lambdas": [0.5, "x"]},
    {"cage_in": 5}, {"update_covariance": "no"}, {"sample_count": 1.5},
    {"jacobian_sites": 2.5}, {"fit": {"iterations": 2.5}}, {"seed": 1.5},
    {"center_chunk": 100.5}, {"seed": True}, {"cage_resolution": "2"},
    {"source": 1.5}, {"source": ["model.ply"]}, {"target": 7},
    {"fit": 5}, {"fit": None}, {"fit": {"convergence_tol": float("inf")}},
    {"fit": {"convergence_tol": float("nan")}},
    {"fit": {"convergence_tol": float("-inf")}}, {"lambdas": [True]},
    {"lambdas": ["0.5"]}, {"cage_in": [1, 2]},
    # Fields that are now constants: a bad value for one is still refused.
    {"cage_padding": "0.1"}, {"cage_padding": float("inf")},
    {"fit": {"step_size": float("inf")}},
    {"fit": {"step_size": float("-inf")}},
], ids=["lambdas-number", "lambdas-text", "lambdas-bad-item",
        "cage_in-number", "update_covariance-text", "sample_count-float",
        "jacobian_sites-float", "fit-iterations-float", "seed-float",
        "center_chunk-float", "seed-bool", "cage_resolution-text",
        "source-float", "source-list", "target-number", "fit-number",
        "fit-null", "fit-convergence_tol-inf", "fit-convergence_tol-nan",
        "fit-convergence_tol-neg-inf", "lambdas-bool", "lambdas-text-item",
        "cage_in-number-items", "cage_padding-text", "cage_padding-inf",
        "fit-step_size-inf", "fit-step_size-neg-inf"])
def test_config_value_of_wrong_type_exits_two(model_files, tmp_path, extra):
    source, _ = model_files
    out = tmp_path / "o"
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({"source": str(source),
                                    "output_dir": str(out),
                                    "cage_in": ["a.obj", "b.obj"],
                                    **extra}))
    with pytest.raises(SystemExit) as excinfo:
        main(["apply-cage", "--config", str(cfg_path)])
    assert excinfo.value.code == 2
    assert not out.exists()


def test_apply_cage_replays_a_mirrored_cage(model_files, tmp_path, capsys):
    # The mirror in x inverts every triangle, so the deformed cage is no
    # valid cage; MVC needs only its topology, and J = diag(-1, 1, 1).
    source, _ = model_files
    cloud = read_gs_ply(source)
    cage = build_template_cage(cloud.centers, resolution=1)
    cages = (tmp_path / "src.obj", tmp_path / "mirror.obj")
    write_cage_obj(cage, cages[0])
    write_cage_obj(TriangleMesh(cage.vertices * [-1.0, 1.0, 1.0],
                                cage.triangles), cages[1])
    out = tmp_path / "o"
    code = main(["apply-cage", "-s", str(source), "--cage-in",
                 *map(str, cages), "-o", str(out), "--sites", "60"])
    assert code == 0
    entry = json.loads(capsys.readouterr().out)["outputs"][0]
    assert entry["lambda"] == 1.0
    assert entry["inverted_sites"] == entry["jacobian_sites"] == 60
    assert entry["singular_sites"] == 0
    moved = read_gs_ply(out / "deformed_lam1.00.ply")
    np.testing.assert_allclose(moved.centers,
                               cloud.centers * [-1.0, 1.0, 1.0],
                               rtol=0, atol=1e-5 * cage.bbox_diagonal())


def test_apply_cage_bytes_do_not_depend_on_chunk_or_workers(model_files,
                                                            tmp_path,
                                                            capsys):
    source, _ = model_files
    cage = build_template_cage(read_gs_ply(source).centers, resolution=3)
    v = cage.vertices
    cages = (tmp_path / "src.obj", tmp_path / "bent.obj")
    write_cage_obj(cage, cages[0])
    write_cage_obj(TriangleMesh(v + 0.1 * np.sin(2 * v[:, [1, 2, 0]]),
                                cage.triangles), cages[1])
    digests = {}
    for chunk in ("17", None):
        for workers in ("1", "2"):
            out = tmp_path / f"c{chunk}-w{workers}"
            sizing = [] if chunk is None else ["--center-chunk", chunk]
            assert main(["apply-cage", "-s", str(source), "--cage-in",
                         *map(str, cages), "-o", str(out), "--sites", "60",
                         "--lambdas", "0.5,1", "--workers", workers,
                         *sizing]) == 0
            digests[chunk, workers] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}
    capsys.readouterr()
    first = digests["17", "1"]
    assert len(first) == 3
    for key, digest in digests.items():
        assert digest == first, key


@pytest.mark.parametrize("extra", [
    {"wiggle": 3}, {"baseline_mode": True},
    {"cage_out": ["a.obj", "b.obj"]}, {"fit": {"seed": 0}},
    {"fit": {"beta1": 0.5}}, {"normalize": False},
    {"fit": {"align_weight": 2.0}}, {"fit": {"barrier_weight": 0.0}},
    {"target_kind": "mesh"}, {"fit": {"step_size": 0.01}},
    {"fit": {"normal_weight": 0.05}}, {"cage_padding": 0.1},
    # A fit setting is spelt only inside "fit", without its prefix.
    {"fit_iterations": 7}, {"fit_convergence_tol": 0.0},
    # --workers is parsed and has no effect; it keys no setting.
    {"workers": 1},
], ids=["wiggle", "baseline_mode", "cage_out", "fit.seed", "fit.beta1",
        "normalize", "fit.align_weight", "fit.barrier_weight",
        "target_kind", "fit.step_size", "fit.normal_weight",
        "cage_padding", "fit_iterations", "fit_convergence_tol", "workers"])
def test_unknown_config_key_exits_two(model_files, tmp_path, capsys, extra):
    source, target = model_files
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"source": str(source),
                                    "target": str(target),
                                    "output_dir": str(tmp_path / "o"),
                                    **extra}))
    with pytest.raises(SystemExit) as excinfo:
        main(["deform", "--config", str(cfg_path)])
    assert excinfo.value.code == 2
    (key, value), = extra.items()
    named = f"fit.{next(iter(value))}" if key == "fit" else key
    assert repr(named) in capsys.readouterr().err


def test_output_over_an_input_exits_two(model_files, tmp_path):
    source, target = model_files
    out = tmp_path / "o"
    out.mkdir()
    inside = out / "deformed_lam1.00.ply"
    inside.write_bytes(source.read_bytes())
    with pytest.raises(SystemExit) as excinfo:
        main(["deform", "-s", str(inside), "-t", str(target), "-o", str(out),
              "--samples", "300", "--iterations", "5"])
    assert excinfo.value.code == 2
    assert inside.read_bytes() == source.read_bytes()
    assert [p.name for p in out.iterdir()] == [inside.name]


def test_timings_over_an_input_exits_two(model_files, tmp_path):
    source, _ = model_files
    cage = build_template_cage(read_gs_ply(source).centers, resolution=1)
    cages = (tmp_path / "src.obj", tmp_path / "def.obj")
    write_cage_obj(cage, cages[0])
    write_cage_obj(cage.with_vertices(cage.vertices * 1.1), cages[1])
    before = source.read_bytes()
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as excinfo:
        main(["apply-cage", "-s", str(source), "--cage-in", *map(str, cages),
              "-o", str(out), "--sites", "60", "--timings-out", str(source)])
    assert excinfo.value.code == 2
    assert source.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("config_at", ["timings", "artifact"])
def test_an_output_over_the_config_file_exits_two(model_files, tmp_path,
                                                  config_at):
    # The --config file is an input: neither --timings-out nor an
    # artifact may replace it.
    source, target = model_files
    out = tmp_path / "o"
    cfg_path = (tmp_path / "run.json" if config_at == "timings"
                else out / "metrics.json")
    cfg_path.parent.mkdir(exist_ok=True)
    cfg_path.write_text(json.dumps({"sample_count": 300}))
    before = cfg_path.read_bytes()
    timings = ["--timings-out", str(cfg_path)] if config_at == "timings" \
        else []
    with pytest.raises(SystemExit) as excinfo:
        main(["deform", "-s", str(source), "-t", str(target), "-o", str(out),
              "--config", str(cfg_path), "--iterations", "5", *timings])
    assert excinfo.value.code == 2
    assert cfg_path.read_bytes() == before
    assert not (out / "deformed_lam1.00.ply").exists()


def test_no_subcommand_takes_a_removed_setting_flag():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {flag for parser in subparsers.choices.values()
             for action in parser._actions for flag in action.option_strings}
    assert not flags & {"--step-size", "--normal-weight", "--cage-padding"}


def _apply_cage_with_unwritable_timings(model_files, tmp_path, out):
    """Exit status of an apply-cage run into out whose timings file
    cannot be written."""
    source, _ = model_files
    cage = build_template_cage(read_gs_ply(source).centers, resolution=1)
    cages = (tmp_path / "src.obj", tmp_path / "def.obj")
    write_cage_obj(cage, cages[0])
    write_cage_obj(cage.with_vertices(cage.vertices * 1.1), cages[1])
    return main(["apply-cage", "-s", str(source), "--cage-in",
                 *map(str, cages), "-o", str(out), "--sites", "60",
                 "--timings-out", str(tmp_path / "nodir" / "t.json")])


def test_unwritable_timings_file_discards_the_outputs(model_files,
                                                     tmp_path):
    out = tmp_path / "o"
    assert _apply_cage_with_unwritable_timings(model_files, tmp_path,
                                               out) == 1
    assert not out.exists()


def test_a_failed_run_removes_the_directories_it_created(model_files,
                                                        tmp_path):
    out = tmp_path / "a" / "b"
    assert _apply_cage_with_unwritable_timings(model_files, tmp_path,
                                               out) == 1
    assert not (tmp_path / "a").exists()


def test_a_failed_run_keeps_an_existing_out_directory(model_files,
                                                     tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    assert _apply_cage_with_unwritable_timings(model_files, tmp_path,
                                               out) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["deform", "fit-cage"])
def test_cage_padding_at_the_floor_runs(model_files, tmp_path, capsys,
                                        command):
    # Every splat is a Jacobian site, the outermost ones CAGE_PADDING of
    # an axis from the template cage: their stencils must fit.
    source, target = model_files
    sites = ["--sites", "300"] if command == "deform" else []
    assert main([command, "-s", str(source), "-t", str(target),
                 "-o", str(tmp_path / "o"), *sites,
                 *_common(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["fit-cage", "deform", "baseline"])
def test_cage_in_outside_apply_cage_exits_two(model_files, tmp_path,
                                               command):
    source, target = model_files
    cfg_path = tmp_path / "cages.json"
    cfg_path.write_text(json.dumps({"cage_in": ["a.obj", "b.obj"]}))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--source", str(source), "--target", str(target),
              "--out", str(out), "--config", str(cfg_path),
              "--samples", "300", "--iterations", "5"])
    assert excinfo.value.code == 2
    assert not out.exists()


def test_the_cli_freezes_the_collector_at_exit(model_files, tmp_path,
                                               capsys):
    # The child's own hook is registered before cagewarp.cli is imported,
    # so it runs after the CLI's: by then gc.freeze has run, and the
    # outputs, written before exit, match an in-process run's.
    source, _ = model_files
    cage = build_template_cage(read_gs_ply(source).centers, resolution=2)
    cages = (tmp_path / "src.obj", tmp_path / "big.obj")
    write_cage_obj(cage, cages[0])
    write_cage_obj(TriangleMesh(1.1 * cage.vertices, cage.triangles),
                   cages[1])

    def argv(out):
        return ["apply-cage", "-s", str(source), "--cage-in",
                *map(str, cages), "-o", str(out), "--sites", "60",
                "--lambdas", "0.5,1"]

    child = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', "
             "gc.get_freeze_count() > 0))\n"
             "from cagewarp.cli import main\n"
             f"sys.exit(main({argv(tmp_path / 'child')!r}))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(cagewarp.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "frozen True"
    assert main(argv(tmp_path / "here")) == 0
    capsys.readouterr()
    files = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "child").iterdir())
    for name in files:
        assert (tmp_path / "child" / name).read_bytes() \
            == (tmp_path / "here" / name).read_bytes(), name
