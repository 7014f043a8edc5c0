"""Benchmark of the cagewarp command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An invocation writes the workload's inputs from --seed, then runs the CLI
once untimed in a child process: that run warms the caches and its outputs
are the reference every later run must reproduce byte for byte.

--trace 0 runs the CLI in fresh child processes, one at a time (a closed
loop with one client), for S seconds, and prints the end-to-end metrics.
--trace 1 alternates untraced and traced in-process runs for S seconds and
prints the per-layer metrics (see tracing.py).

Either way a --workers 1 run must reproduce the reference bytes, and a
failed check makes the exit status nonzero. Human-readable lines come
first; the last line of stdout is the JSON result (--workload all runs
every workload in turn, one result line after each). Work files go to
.perfbench_work/ at the root of the checkout.
"""

import os

# BLAS is pinned to one thread in this process and in every child, so the
# only parallelism is the CLI's own --workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Child and in-process runs log alike; INFO lines would flood this
# process's stderr during the traced runs.
os.environ["CAGEWARP_LOG"] = "WARNING"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Thread count the CLI gets: the core count of the 2-core machine the
# workloads were sized on, fixed so the work does not depend on the host.
WORKERS = 2
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # "apply-cage" (cage pair given) or "deform" (fit)
    splats: int
    sh_rest: int            # f_rest coefficients per splat: 0 or 45
    cage_res: int           # box cage with 12 r^2 triangles
    sites: int              # --sites: Jacobian sites
    lambdas: tuple = (1.0,)
    center_chunk: int = 0   # --center-chunk, 0 for the CLI default
    samples: int = 0        # deform: --samples
    iterations: int = 0     # deform: fixed fit budget


WORKLOADS = {w.name: w for w in (
    Workload(
        "replay-2k-r3",
        why="apply-cage at 5 lambdas on a res-3 cage: MVC is recomputed per "
            "lambda and 11 PLY passes run, so bind-once and MVC rewrites "
            "show; no fit runs",
        command="apply-cage", splats=2000, sh_rest=45, cage_res=3,
        sites=200, lambdas=(0.0, 0.25, 0.5, 0.75, 1.0),
        # Two chunks per deform, as 50k splats have at the default chunk
        # size, so the two worker threads overlap.
        center_chunk=1200),
    Workload(
        "fit-4k-r2",
        why="deform with a cage fit to a stretched, bent target: the fit "
            "loop (alignment_loss) dominates and MVC is light; one lambda, "
            "so bind-once predicts no change",
        command="deform", splats=4000, sh_rest=0, cage_res=2, sites=400,
        samples=3000, iterations=100),
    Workload(
        "fine-2k-r6",
        why="apply-cage on a res-6 cage (432 triangles): per-pair MVC cost "
            "and scratch memory dominate; one lambda, one chunk",
        command="apply-cage", splats=2000, sh_rest=45, cage_res=6,
        sites=150),
)}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "cov_err_p95": "ratio", "chamfer": "diag2"}


def tag(lam: float) -> str:
    return f"{lam:.2f}"


@dataclass
class Inputs:
    argv: list              # CLI arguments without --out/--workers/--timings
    source: Path
    reference: np.ndarray   # points the lambda=1 centers should match
    cages: tuple | None     # input cage pair, or None when the run fits one
    expected: list          # artifact names every run must write


def prepare(w: Workload, seed: int, d: Path) -> Inputs:
    """Write the workload's input files into d."""
    d.mkdir(parents=True, exist_ok=True)
    cloud = gen.splat_cloud(w.splats, w.sh_rest, (seed, 0))
    source = d / "source.ply"
    gen.write_splat_ply(source, cloud)
    centers = cloud["centers"].astype(np.float64)
    argv = [w.command, "-s", str(source), "--sites", str(w.sites),
            "--lambdas", ",".join(map(str, w.lambdas))]
    if w.center_chunk:
        argv += ["--center-chunk", str(w.center_chunk)]
    expected = [f"deformed_lam{tag(lam)}.ply" for lam in w.lambdas]
    expected.append("metrics.json")
    if w.command == "apply-cage":
        lo, hi = gen.padded_box(centers)
        verts, tris = gen.box_cage(lo, hi, w.cage_res)
        cages = (d / "source_cage.obj", d / "deformed_cage.obj")
        gen.write_obj(cages[0], verts, tris)
        gen.write_obj(cages[1], gen.warp(verts, lo, hi), tris)
        argv += ["--cage-in", *map(str, cages)]
        reference = gen.warp(centers, lo, hi)
    else:
        reference = gen.fit_target(w.splats, (seed, 1))
        reference = reference.astype(np.float32).astype(np.float64)
        target, config = d / "target.ply", d / "fit.json"
        gen.write_point_ply(target, reference)
        # No early stop: a fixed iteration count keeps the work per run the
        # same across seeds.
        config.write_text(json.dumps({"fit": {"convergence_tol": 0.0}}))
        argv += ["-t", str(target), "--samples", str(w.samples),
                 "--iterations", str(w.iterations), "--config", str(config),
                 "--cage-resolution", str(w.cage_res)]
        cages = None
        expected += ["source_cage.obj", "deformed_cage.obj", "fit_trace.csv"]
    return Inputs(argv, source, reference, cages, sorted(expected))


@dataclass
class Run:
    out: Path
    wall_s: float = 0.0
    rss_mb: float = 0.0
    import_s: float = 0.0
    stages: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.import_s + sum(sec for name, sec in self.stages.items()
                                   if name.startswith("load-"))


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def _cli_args(inputs: Inputs, d: Path, workers: int) -> list:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return [*inputs.argv, "--out", str(d / "out"), "--workers", str(workers),
            "--timings-out", str(d / "timings.json")]


def _stages(d: Path) -> dict:
    path = d / "timings.json"
    return json.loads(path.read_text())["stage_seconds"] if path.is_file() \
        else {}


def run_child(inputs: Inputs, d: Path, workers: int = WORKERS) -> Run:
    """One CLI run in a fresh interpreter; wall time from spawn to reap and
    the child's own peak RSS (from wait4, not RUSAGE_CHILDREN, which is a
    maximum over every child reaped so far)."""
    args = _cli_args(inputs, d, workers)
    argv = [sys.executable, str(HERE / "launch.py"), str(d / "import_s"),
            *args]
    log = d / "child.log"
    started = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, argv, dict(os.environ, PYTHONPATH=str(SRC)),
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(log),
                       os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                      (os.POSIX_SPAWN_DUP2, 1, 2)])
    killer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    run = Run(out=d / "out", wall_s=time.perf_counter() - started,
              rss_mb=usage.ru_maxrss / 1024.0, stages=_stages(d))
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = log.read_text(errors="replace")[-400:]
        run.problems.append(f"exit status {code}: {tail}")
    else:
        run.import_s = float((d / "import_s").read_text())
    return run


def run_inprocess(inputs: Inputs, d: Path, tracer=None) -> Run:
    """One CLI run in this process, optionally under the tracer."""
    from cagewarp import cli

    args = _cli_args(inputs, d, WORKERS)
    hooks = tracer.installed() if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    with hooks, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    run = Run(out=d / "out", wall_s=time.perf_counter() - started,
              stages=_stages(d))
    if code != 0:
        run.problems.append(f"exit status {code}")
    return run


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": openblas, "commit": git_commit(), "workers": WORKERS}


def tail(values: list):
    """(value, percentile) of the highest order statistic with ten samples
    above it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    k = len(values) - 10
    return sorted(values)[k - 1], 100.0 * k / len(values)


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print the human-readable report, return the
    result object."""
    work = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = prepare(w, seed, work / "inputs")

    ref = run_child(inputs, work / "reference")
    reference = {} if ref.problems else checks.digests(ref.out)
    if not ref.problems:
        ref.problems += checks.reread(ref.out, inputs.expected)
        if sorted(reference) != inputs.expected:
            ref.problems.append(f"artifacts {sorted(reference)}, expected "
                                f"{inputs.expected}")
        ref.problems += checks.lambda_checks(
            ref.out, inputs.source, [tag(lam) for lam in w.lambdas])
    runs = [ref]
    timed, traced, untraced = [], [], []
    if not ref.problems:
        def checked(run: Run, label: str) -> Run:
            if not run.problems:
                run.problems += checks.same_bytes(checks.digests(run.out),
                                                  reference, label)
            runs.append(run)
            return run

        deadline = time.perf_counter() + seconds
        while not trace and (not timed or time.perf_counter() < deadline):
            timed.append(checked(run_child(inputs, work / "timed"), "timed"))
        while trace and (not traced or time.perf_counter() < deadline):
            if len(untraced) > len(traced):
                tracer = tracing.Tracer()
                run = checked(run_inprocess(inputs, work / "traced", tracer),
                              "traced")
                traced.append((run, tracer))
            else:
                untraced.append(checked(run_inprocess(
                    inputs, work / "untraced"), "untraced"))
        checked(run_child(inputs, work / "workers1", workers=1),
                "--workers 1")

    problems = [p for run in runs for p in run.problems]
    metrics = {}
    if not problems and not trace:
        lam1 = ref.out / f"deformed_lam{tag(1.0)}.ply"
        cages = inputs.cages or (ref.out / "source_cage.obj",
                                 ref.out / "deformed_cage.obj")
        values = {
            "run_s": statistics.median(r.wall_s for r in timed),
            "setup_s": statistics.median(r.setup_s for r in timed),
            "peak_rss_mb": statistics.median(r.rss_mb for r in timed),
            "cov_err_p95": checks.cov_err_p95(inputs.source, lam1, *cages),
            "chamfer": checks.chamfer(lam1, inputs.reference),
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    if not problems and trace:
        layers = [tracing.layer_metrics(t.spans, r.stages)
                  for r, t in traced]
        values = {k: statistics.median(m[k] for m in layers)
                  for k in layers[0]}
        values["pipeline.trace_overhead_s"] = (
            statistics.median(sum(r.stages.values()) for r, _ in traced)
            - statistics.median(sum(r.stages.values()) for r in untraced))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in tracing.LAYER_UNITS.items()}
        (work / "spans.json").write_text(json.dumps(
            [t.to_json() for _, t in traced]))

    failed = sum(1 for run in runs if run.problems)
    result = {"correct": not problems, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    env = environment()
    (work / "result.json").write_text(json.dumps(
        {"workload": w.name, "why": w.why, "seed": seed, "seconds": seconds,
         "trace": trace, "environment": env, "problems": problems,
         "run_s_samples": [r.wall_s for r in timed], **result}, indent=1))

    print(f"workload {w.name} (seed {seed}): {w.why}")
    print("environment: " + json.dumps(env))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if "run_s" in metrics:
        high = tail([r.wall_s for r in timed])
        print(f"  run_s samples n={len(timed)}; " + (
            f"p{high[1]:.0f} {high[0]:.6g} s" if high else
            "too few samples for a percentile with ten above it"))
    print(f"  failed_frac {failed / len(runs):.6g} "
          f"({failed} of {len(runs)} runs)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cagewarp" / "__init__.py").is_file():
        print(f"no cagewarp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ok = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
