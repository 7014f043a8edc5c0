"""End-to-end pipeline tests on small synthetic fixtures."""

import inspect
import json
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cagewarp import pipeline, splats, transport
from cagewarp.cage import (TriangleMesh, bbox_of, build_template_cage,
                           interpolate_cage, read_cage_obj, write_cage_obj)
from cagewarp.cli import main
from cagewarp.errors import PipelineError
from cagewarp.metrics import baseline_bbox_scale, write_point_ply
from cagewarp.pipeline import PipelineConfig, run_pipeline
from cagewarp.splats import (covariances_of, read_gs_ply, verify_gs_ply,
                             write_gs_ply)
from cagewarp.transport import deform_cloud

from conftest import random_cloud, traced


def _affine(points):
    ang = 0.3
    c, s = np.cos(ang), np.sin(ang)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return points @ (rot @ np.diag([1.3, 0.8, 1.1])).T \
        + np.array([0.4, -0.2, 0.1])


@pytest.fixture()
def fixture_paths(tmp_path):
    cloud = random_cloud(400, seed=5)
    source = tmp_path / "source.ply"
    write_gs_ply(cloud, source)
    target = tmp_path / "target.ply"
    write_point_ply(_affine(cloud.centers), target)
    return cloud, source, target


def _config(source, target, out_dir, **kwargs):
    defaults = dict(
        source=str(source), output_dir=str(out_dir),
        target=None if target is None else str(target),
        fit_iterations=50, sample_count=400,
        jacobian_sites=80, lambdas=(1.0,))
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_deform_run_writes_all_artifacts(fixture_paths, tmp_path):
    cloud, source, target = fixture_paths
    out = tmp_path / "out"
    cfg = _config(source, target, out, lambdas=(0.0, 0.5, 1.0))
    summary = run_pipeline(cfg)

    expected = {"deformed_lam0.00.ply", "deformed_lam0.50.ply",
                "deformed_lam1.00.ply", "source_cage.obj",
                "deformed_cage.obj", "fit_trace.csv", "metrics.json"}
    assert {p.name for p in out.iterdir()} == expected
    assert summary["mode"] == "deform"
    assert len(summary["outputs"]) == 3

    # stronger deformation gets closer to the target
    by_lam = {o["lambda"]: o["chamfer_sq_normalized"]
              for o in summary["outputs"]}
    assert by_lam[1.0] < by_lam[0.5] < by_lam[0.0]

    # lambda = 0 leaves the model untouched
    unmoved = read_gs_ply(out / "deformed_lam0.00.ply")
    np.testing.assert_array_equal(
        unmoved.centers, read_gs_ply(source).centers)

    saved_metrics = json.loads((out / "metrics.json").read_text())
    assert saved_metrics == summary


def test_two_runs_are_byte_identical(fixture_paths, tmp_path):
    _, source, target = fixture_paths
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_pipeline(_config(source, target, d, lambdas=(0.5, 1.0)))
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_worker_count_does_not_change_results(fixture_paths, tmp_path,
                                              capsys):
    # --workers is parsed and has no effect.
    _, source, target = fixture_paths
    outs = {}
    for workers in ("1", "3"):
        d = tmp_path / f"w{workers}"
        assert main(["deform", "-s", str(source), "-t", str(target), "-o",
                     str(d), "--iterations", "50", "--samples", "400",
                     "--sites", "80", "--workers", workers, "--center-chunk",
                     "128", "--lambdas", "0.25,0.5,1"]) == 0
        outs[workers] = {p.name: p.read_bytes() for p in d.glob("*.ply")}
    capsys.readouterr()
    assert len(outs["1"]) == 3
    assert outs["1"] == outs["3"]


def test_a_run_starts_no_thread(fixture_paths, cage_files, tmp_path,
                                monkeypatch):
    # Four spans and two blended lambdas: the whole deform stage runs on
    # the calling thread.
    _, source, _ = fixture_paths

    def refused(self):
        raise AssertionError(f"thread {self.name} was started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    summary = run_pipeline(PipelineConfig(
        source=str(source), output_dir=str(tmp_path / "o"),
        cage_in=cage_files, jacobian_sites=80, center_chunk=128,
        lambdas=(0.5, 1.0)), "apply-cage")
    assert [entry["lambda"] for entry in summary["outputs"]] == [0.5, 1.0]


# numpy.linalg's routines that call LAPACK. The first call of one pages its
# code in: eigh's added about 0.8 MB to a run's peak RSS.
LAPACK_ROUTINES = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh",
                   "inv", "lstsq", "matrix_rank", "pinv", "qr", "slogdet",
                   "solve", "svd", "svdvals", "tensorinv", "tensorsolve")


def test_a_run_calls_no_lapack_routine(fixture_paths, tmp_path,
                                       monkeypatch):
    # Dependencies included: scipy's Rotation.from_matrix calls
    # np.linalg.det unless it is told that its input is a rotation.
    _, source, target = fixture_paths

    def lapack(*args, **kwargs):
        raise AssertionError("a numpy.linalg LAPACK routine was called")

    for name in LAPACK_ROUTINES:
        monkeypatch.setattr(np.linalg, name, lapack)
    summary = run_pipeline(_config(source, target, tmp_path / "out",
                                   lambdas=(0.5, 1.0)))
    assert [entry["jacobian_sites"] for entry in summary["outputs"]] \
        == [80, 80]


def test_coarse_to_fine_fit_is_byte_identical_across_runs_and_workers(
        tmp_path, caplog, capsys, monkeypatch):
    # 4000 samples give coarse subsets of 400 rows, above the 260 a res-2
    # cage needs, so the fit runs both stages. The CLI sets the log level
    # from CAGEWARP_LOG, and --workers is parsed and has no effect.
    monkeypatch.setenv("CAGEWARP_LOG", "INFO")
    cloud = random_cloud(4000, seed=8)
    source, target = tmp_path / "source.ply", tmp_path / "target.ply"
    write_gs_ply(cloud, source)
    write_point_ply(_affine(cloud.centers), target)
    runs = {}
    for name, workers in (("w1", "1"), ("w2", "2"), ("w2-again", "2")):
        d = tmp_path / name
        with caplog.at_level("INFO", logger="cagewarp"):
            assert main(["deform", "-s", str(source), "-t", str(target),
                         "-o", str(d), "--iterations", "60", "--samples",
                         "4000", "--sites", "200", "--center-chunk",
                         "1500", "--workers", workers]) == 0
        runs[name] = {p.name: p.read_bytes() for p in d.iterdir()}
    capsys.readouterr()
    assert runs["w1"] == runs["w2"] == runs["w2-again"]
    assert len(runs["w1"]) == 5

    fit = json.loads(runs["w1"]["metrics.json"])["fit"]
    assert fit["coarse_samples"] == fit["coarse_targets"] == 400
    assert 0 < fit["coarse_iterations"] <= 60 - 40
    rows = runs["w1"]["fit_trace.csv"].decode().splitlines()[1:]
    assert len(rows) == fit["iterations"] - fit["coarse_iterations"]
    assert rows[0].startswith(f"{fit['coarse_iterations'] + 1},")
    processed = fit["coarse_iterations"] * 400 + len(rows) * 4000
    assert f"of {processed} sample rows and" in caplog.text
    assert f"of {processed} target rows" in caplog.text


def test_apply_cage_replays_fit_output(fixture_paths, tmp_path):
    _, source, target = fixture_paths
    first = tmp_path / "fit_run"
    run_pipeline(_config(source, target, first))

    second = tmp_path / "replay"
    cfg = _config(source, None, second,
                  cage_in=(str(first / "source_cage.obj"),
                           str(first / "deformed_cage.obj")))
    summary = run_pipeline(cfg, "apply-cage")
    assert summary["mode"] == "apply-cage"
    assert "fit" not in summary
    assert (second / "deformed_lam1.00.ply").read_bytes() \
        == (first / "deformed_lam1.00.ply").read_bytes()


def test_inverted_fitted_cage_passes_verify_and_replays(
        fixture_paths, tmp_path, monkeypatch):
    _, source, target = fixture_paths
    fit = pipeline.fit_deformed_cage

    def fit_then_mirror(*args, **kwargs):
        fitted, report = fit(*args, **kwargs)
        return TriangleMesh(fitted.vertices * [-1.0, 1.0, 1.0],
                            fitted.triangles), report

    monkeypatch.setattr(pipeline, "fit_deformed_cage", fit_then_mirror)
    first = tmp_path / "fit_run"
    entry = run_pipeline(_config(source, target, first))["outputs"][0]
    assert entry["inverted_sites"] == entry["jacobian_sites"] == 80

    second = tmp_path / "replay"
    run_pipeline(_config(source, None, second,
                         cage_in=(str(first / "source_cage.obj"),
                                  str(first / "deformed_cage.obj"))),
                 "apply-cage")
    assert (second / "deformed_lam1.00.ply").read_bytes() \
        == (first / "deformed_lam1.00.ply").read_bytes()


@pytest.mark.parametrize("edit", ["flipped-triangle", "extra-vertex"])
def test_deformed_cage_of_other_topology_fails_at_load_cages(
        fixture_paths, cage_files, tmp_path, edit):
    _, source, _ = fixture_paths
    cage = read_cage_obj(cage_files[1])
    vertices, triangles = cage.vertices, cage.triangles.copy()
    if edit == "flipped-triangle":
        triangles[0] = triangles[0, ::-1]
    else:
        vertices = np.vstack([vertices, vertices.mean(axis=0)])
    other = tmp_path / "other.obj"
    write_cage_obj(TriangleMesh(vertices, triangles), other)
    out = tmp_path / "o"
    with pytest.raises(PipelineError) as excinfo:
        _replay(source, (cage_files[0], str(other)), out)
    assert excinfo.value.stage == "load-cages"
    assert not out.exists()


def test_fit_cage_only_writes_no_models(fixture_paths, tmp_path):
    _, source, target = fixture_paths
    out = tmp_path / "cages"
    summary = run_pipeline(_config(source, target, out), "fit-cage")
    names = {p.name for p in out.iterdir()}
    assert names == {"source_cage.obj", "deformed_cage.obj",
                     "fit_trace.csv", "metrics.json"}
    assert summary["mode"] == "fit-cage"
    assert summary["outputs"] == []
    header, first_row = (out / "fit_trace.csv").read_text() \
        .splitlines()[:2]
    assert header.split(",") == ["iteration", "total", "alignment",
                                 "flip_penalty", "best"]
    assert first_row.startswith("1,")


def test_baseline_mode_matches_library_call(fixture_paths, tmp_path):
    cloud, source, target = fixture_paths
    out = tmp_path / "bl"
    summary = run_pipeline(_config(source, target, out), "baseline")
    assert summary["mode"] == "baseline"
    written = read_gs_ply(out / "baseline.ply")

    # the target file stores float32, so the box must be computed from
    # the values the pipeline actually reads back
    stored = _affine(cloud.centers).astype(np.float32).astype(np.float64)
    lo, hi = bbox_of(stored)
    oracle = baseline_bbox_scale(read_gs_ply(source), lo, hi)
    np.testing.assert_array_equal(written.centers,
                                  oracle.centers.astype(np.float32)
                                  .astype(np.float64))


def test_failed_stage_removes_partial_outputs(fixture_paths, tmp_path):
    _, source, _ = fixture_paths
    out = tmp_path / "broken"
    cfg = _config(source, tmp_path / "missing_target.ply", out)
    with pytest.raises(PipelineError) as excinfo:
        run_pipeline(cfg)
    assert excinfo.value.stage == "load-target"
    assert not out.exists()


def test_fit_settings_default_to_fit_deformed_cages_keywords():
    # The CLI falls back to PipelineConfig's defaults, a library caller
    # to fit_deformed_cage's: each fit_<name> field is keyword <name>.
    settings = {f.name[len("fit_"):]: f.default
                for f in fields(PipelineConfig) if f.name.startswith("fit_")}
    keywords = {name: p.default for name, p in inspect.signature(
        pipeline.fit_deformed_cage).parameters.items()
        if p.default is not p.empty}
    assert settings == keywords == {"iterations": 500,
                                    "convergence_tol": 1e-5}


def test_config_validation_failures(fixture_paths, tmp_path):
    _, source, target = fixture_paths
    out = tmp_path / "cfg"
    for kwargs, fragment in (
            (dict(lambdas=(1.5,)), "lambda"),
            (dict(lambdas=()), "lambda"),
            (dict(lambdas=(0.5, 0.5)), "duplicate"),
            (dict(center_chunk=0), "center_chunk"),
            (dict(center_chunk=-7), "center_chunk"),
            (dict(jacobian_sites=0), "jacobian_sites"),
            (dict(fit_iterations=0), "fit_iterations"),
            (dict(fit_iterations=-3), "fit_iterations"),
            (dict(fit_convergence_tol=-1e-5), "fit_convergence_tol"),
            (dict(fit_iterations=2.5), "fit_iterations must be int"),
            (dict(cage_resolution=0), "cage_resolution"),
            (dict(seed=-1), "seed"),
            (dict(seed=1.5), "seed"),
            # Library callers get the type checks a config file gets.
            (dict(lambdas=0.5), "lambdas must be tuple"),
            (dict(lambdas=(None,)), "lambda values must be numbers"),
            (dict(lambdas=(True,)), "lambda values must be numbers"),
            (dict(lambdas=("0.5",)), "lambda values must be numbers"),
            (dict(cage_in=(1, 2)), "cage_in must be two str paths"),
            (dict(cage_in=5), "cage_in must be tuple"),
    ):
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(_config(source, target, out, **kwargs))
        assert excinfo.value.stage == "config"
        assert fragment in str(excinfo.value)

    with pytest.raises(PipelineError, match="distinct"):
        run_pipeline(_config(source, source, out))

    with pytest.raises(PipelineError, match="target is required"):
        run_pipeline(_config(source, None, out))


@pytest.mark.parametrize("mode, name", [
    ("deform", "deformed_lam1.00.ply"), ("deform", "fit_trace.csv"),
    ("fit-cage", "source_cage.obj"), ("baseline", "baseline.ply"),
    ("baseline", "metrics.json"),
])
def test_run_never_writes_over_its_source(fixture_paths, tmp_path, mode,
                                          name):
    _, source, target = fixture_paths
    out = tmp_path / "out"
    out.mkdir()
    inside = out / name
    inside.write_bytes(source.read_bytes())
    before = inside.read_bytes()
    with pytest.raises(PipelineError, match="overwrite an input") as excinfo:
        run_pipeline(_config(inside, target, out), mode)
    assert excinfo.value.stage == "config"
    assert inside.read_bytes() == before
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("mode, with_cages, with_target, fragment", [
    ("deform", True, True, "takes no cage_in"),
    ("fit-cage", True, True, "takes no cage_in"),
    ("baseline", True, True, "takes no cage_in"),
    ("deform", False, False, "target is required"),
    ("fit-cage", False, False, "target is required"),
    ("baseline", False, False, "target is required"),
    ("apply-cage", False, True, "needs cage_in"),
    ("apply-cage", False, False, "needs cage_in"),
    ("morph", False, True, "mode must be one of"),
])
def test_mode_rejects_settings_it_cannot_use(fixture_paths, tmp_path, mode,
                                             with_cages, with_target,
                                             fragment):
    _, source, target = fixture_paths
    cages = (tmp_path / "src.obj", tmp_path / "def.obj")
    out = tmp_path / "out"
    out.mkdir()
    cfg = _config(source, target if with_target else None, out,
                  cage_in=tuple(map(str, cages)) if with_cages else None)
    with pytest.raises(PipelineError, match=fragment) as excinfo:
        run_pipeline(cfg, mode)
    assert excinfo.value.stage == "config"
    assert not any(out.iterdir())


def test_covariance_ablation_keeps_centers(fixture_paths, tmp_path):
    _, source, target = fixture_paths
    full_dir, abl_dir = tmp_path / "full", tmp_path / "abl"
    run_pipeline(_config(source, target, full_dir, lambdas=(0.5, 1.0)))
    summary = run_pipeline(_config(source, target, abl_dir,
                                   lambdas=(0.5, 1.0),
                                   update_covariance=False))
    assert all("singular_sites" not in o for o in summary["outputs"])
    source_cloud = read_gs_ply(source)
    for name in ("deformed_lam0.50.ply", "deformed_lam1.00.ply"):
        full = read_gs_ply(full_dir / name)
        ablated = read_gs_ply(abl_dir / name)
        np.testing.assert_array_equal(full.centers, ablated.centers)
        np.testing.assert_array_equal(ablated.rotations,
                                      source_cloud.rotations)
        np.testing.assert_array_equal(ablated.log_scales,
                                      source_cloud.log_scales)
        assert not np.array_equal(full.rotations, source_cloud.rotations)


def test_mesh_target_runs(fixture_paths, tmp_path):
    _, source, _ = fixture_paths
    mesh_path = tmp_path / "target.obj"
    mesh_path.write_text(
        "v -1 -1 -0.4\nv 1 -1 -0.4\nv 1 1 -0.4\nv -1 1 -0.4\n"
        "v -1 -1 0.4\nv 1 -1 0.4\nv 1 1 0.4\nv -1 1 0.4\n"
        "f 1 3 2\nf 1 4 3\nf 5 6 7\nf 5 7 8\n"
        "f 1 2 6\nf 1 6 5\nf 2 3 7\nf 2 7 6\n"
        "f 3 4 8\nf 3 8 7\nf 4 1 5\nf 4 5 8\n")
    out = tmp_path / "mesh_out"
    summary = run_pipeline(_config(source, mesh_path, out,
                                   fit_iterations=30))
    assert (out / "deformed_lam1.00.ply").is_file()
    assert summary["outputs"][0]["chamfer_sq_normalized"] >= 0.0


@pytest.mark.parametrize("inside_out", [False, True])
def test_timings_file_never_overwrites_an_input_or_artifact(
        fixture_paths, tmp_path, inside_out):
    _, source, target = fixture_paths
    out = tmp_path / "out"
    out.mkdir()
    # Either the source itself, or a file in --out that the run plans to
    # write.
    timings = out / "metrics.json" if inside_out else source
    timings.write_bytes(source.read_bytes())
    with pytest.raises(PipelineError, match="timings_out") as excinfo:
        run_pipeline(_config(source, target, out), timings_out=timings)
    assert excinfo.value.stage == "config"
    assert timings.read_bytes() == source.read_bytes()
    assert [p.name for p in out.iterdir()] == (
        ["metrics.json"] if inside_out else [])


SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture()
def cage_files(fixture_paths, tmp_path):
    """A box cage around the fixture cloud and a smooth, valid warp of
    it, as the OBJ pair apply-cage replays."""
    cloud = fixture_paths[0]
    source = build_template_cage(cloud.centers, resolution=2)
    wave = np.sin(source.vertices @ np.array([[0.9, -0.4, 0.3],
                                              [0.2, 0.8, -0.6],
                                              [-0.5, 0.1, 0.7]]))
    deformed = source.with_vertices(
        source.vertices + 0.04 * source.bbox_diagonal() * wave)
    paths = (tmp_path / "src.obj", tmp_path / "def.obj")
    write_cage_obj(source, paths[0])
    write_cage_obj(deformed, paths[1])
    return tuple(map(str, paths))


def _replay(source, cage_in, out, **kwargs):
    settings = dict(cage_in=cage_in, lambdas=SWEEP, center_chunk=128)
    settings.update(kwargs)
    return run_pipeline(_config(source, None, out, **settings),
                        "apply-cage")


def test_lambda_sweep_is_served_from_one_deform(fixture_paths, cage_files,
                                                tmp_path, monkeypatch):
    _, source, _ = fixture_paths
    cloud = read_gs_ply(source)
    src, dst = map(read_cage_obj, cage_files)
    written = {}
    write = pipeline.write_gs_ply

    def keep_and_write(moved, path):
        written[path.name] = moved
        write(moved, path)

    mvc_calls = []
    mvc = transport.mvc_weights

    def count_mvc(*args, **kwargs):
        mvc_calls.append(1)
        return mvc(*args, **kwargs)

    monkeypatch.setattr(pipeline, "write_gs_ply", keep_and_write)
    monkeypatch.setattr(transport, "mvc_weights", count_mvc)
    out = tmp_path / "sweep"
    summary = _replay(source, cage_files, out)
    sweep_calls = len(mvc_calls)
    mvc_calls.clear()
    _replay(source, cage_files, tmp_path / "one", lambdas=(1.0,))
    assert sweep_calls == len(mvc_calls) > 0

    def deform(cage):
        return deform_cloud(cloud, src, cage, m=80, seed=0,
                            center_chunk=128)[0]

    assert (out / "deformed_lam0.00.ply").read_bytes() == source.read_bytes()
    write(deform(dst), tmp_path / "library_lam1.ply")
    assert (out / "deformed_lam1.00.ply").read_bytes() \
        == (tmp_path / "library_lam1.ply").read_bytes()
    diag = src.bbox_diagonal()
    for lam in SWEEP[1:-1]:
        got = written[f"deformed_lam{lam:.2f}.ply"]
        ref = deform(interpolate_cage(src, dst, lam))
        assert np.abs(got.centers - ref.centers).max() <= 1e-10 * diag
        cov_got = covariances_of(got.rotations, got.log_scales)
        cov_ref = covariances_of(ref.rotations, ref.log_scales)
        rel = np.linalg.norm(cov_got - cov_ref, axis=(1, 2)) \
            / np.linalg.norm(cov_ref, axis=(1, 2))
        assert rel.max() <= 1e-8, lam

    entries = {o["lambda"]: o for o in summary["outputs"]}
    assert "inverted_sites" not in entries[0.0]
    assert "limited_sites" not in entries[0.0]
    # Blending scales the site gradients, so every lambda keeps the
    # limiter's choice at lambda 1.
    limited = deform_cloud(cloud, src, dst, m=80, seed=0)[1].limited_sites
    for lam in SWEEP[1:]:
        assert entries[lam]["singular_sites"] == 0
        assert entries[lam]["inverted_sites"] == 0
        assert entries[lam]["limited_sites"] == limited


def test_lambda_sweep_of_identical_cages_returns_the_source(
        fixture_paths, cage_files, tmp_path):
    _, source, _ = fixture_paths
    twin = tmp_path / "twin.obj"
    twin.write_bytes(Path(cage_files[0]).read_bytes())
    out = tmp_path / "same"
    _replay(source, (cage_files[0], str(twin)), out)
    for lam in SWEEP:
        assert (out / f"deformed_lam{lam:.2f}.ply").read_bytes() \
            == source.read_bytes()


def test_timings_file_is_optional_diagnostic(fixture_paths, tmp_path):
    _, source, target = fixture_paths
    out = tmp_path / "timed"
    timings = tmp_path / "timings.json"
    run_pipeline(_config(source, target, out), timings_out=timings)
    stages = json.loads(timings.read_text())["stage_seconds"]
    assert "fit-cage" in stages and "verify" in stages
    assert all(v >= 0.0 for v in stages.values())
    assert not (out / "timings.json").exists()


def test_timings_file_records_the_peak_rss_after_each_stage(
        fixture_paths, tmp_path, caplog):
    _, source, target = fixture_paths
    timings = tmp_path / "timings.json"
    with caplog.at_level("INFO", logger="cagewarp"):
        run_pipeline(_config(source, target, tmp_path / "out"),
                     timings_out=timings)
    recorded = json.loads(timings.read_text())
    peaks = recorded["stage_peak_rss_mb"]
    assert list(peaks) == list(recorded["stage_seconds"])
    # A high-water mark: positive, and never lower after a later stage.
    assert 0.0 < min(peaks.values())
    assert list(peaks.values()) == sorted(peaks.values())
    assert "[verify] done in " in caplog.text
    assert f", peak RSS {peaks['verify']:.1f} MB" in caplog.text


def _damaging(fault):
    """A stand-in for pipeline.write_gs_ply that writes the cloud and then
    puts one fault into the file; each value fault goes into its last
    row."""
    write = pipeline.write_gs_ply

    def damaged(cloud, path):
        write(cloud, path)
        raw = Path(path).read_bytes()
        head = raw.index(b"end_header\n") + len(b"end_header\n")
        names = [line.split()[-1] for line in raw[:head].split(b"\n")
                 if line.startswith(b"property")]

        def put(name, value):
            at = head + 4 * ((len(cloud) - 1) * len(names)
                             + names.index(name))
            return raw[:at] + np.float32(value).tobytes() + raw[at + 4:]

        if fault == "truncated-body":
            raw = raw[:-10]
        elif fault == "nan":
            raw = put(b"y", np.nan)
        elif fault == "zero-quaternion":
            for i in range(4):
                raw = put(f"rot_{i}".encode(), 0.0)
        else:
            raw = raw.replace(b"property float f_rest_8\n",
                              b"property float f_rest_x\n")
        Path(path).write_bytes(raw)
    return damaged


@pytest.mark.parametrize("fault, message", [
    ("truncated-body", "truncated body"),
    ("nan", "centers contains non-finite values"),
    ("zero-quaternion", "zero-norm quaternion"),
    ("broken-f_rest-layout", "9 f_rest properties do not form a supported "
                             "layout")])
def test_verify_catches_a_damaged_model(fixture_paths, cage_files, tmp_path,
                                        monkeypatch, fault, message):
    # Small blocks, so that verify reads the damaged last row in a later
    # block than the first.
    monkeypatch.setattr(splats, "BLOCK_BYTES", 1024)
    monkeypatch.setattr(pipeline, "write_gs_ply", _damaging(fault))
    _, source, _ = fixture_paths
    out = tmp_path / "damaged"
    with pytest.raises(PipelineError, match=message) as excinfo:
        _replay(source, cage_files, out, lambdas=(0.5, 1.0))
    assert excinfo.value.stage == "verify"
    assert "deformed_lam0.50.ply failed its readback check" \
        in str(excinfo.value)
    assert not out.exists()


def test_deform_write_verify_holds_one_output_cloud(tmp_path):
    """Past the loaded source, deforming, writing and verifying 20k
    splats at SH width 45 holds the output (float32 pass-through fields,
    float64 computed fields) plus a bounded allowance, not whole-file
    tables or a float64 read-back."""
    n = 20000
    cloud = random_cloud(n, sh_rest_width=45, seed=8)
    source = tmp_path / "source.ply"
    write_gs_ply(cloud, source)
    cage = build_template_cage(cloud.centers, resolution=2)
    lo, hi = cage.bbox()
    deformed = cage.with_vertices(
        cage.vertices + 0.05 * (hi - lo) * np.sin(cage.vertices[:, [1, 2, 0]]))
    loaded = read_gs_ply(source)
    out = tmp_path / "deformed.ply"

    def deform_write_verify():
        moved, _ = deform_cloud(loaded, cage, deformed, m=200,
                                center_chunk=2048)
        write_gs_ply(moved, out)
        verify_gs_ply(out)

    peak, _ = traced(deform_write_verify)
    output = n * (4 * 49 + 8 * 10)
    # The allowance: the output's Jacobian field (8 bytes a splat for
    # its site assignment, plus per-site arrays) and row blocks. The
    # verify stage's blocks make the peak, about 3.3 BLOCK_BYTES: its
    # table, one block's cloud gathered from it and that cloud's checks.
    # The deform pass's span scratch at center_chunk 2048 is less.
    assert peak <= output + 8 * n + 4 * splats.BLOCK_BYTES
