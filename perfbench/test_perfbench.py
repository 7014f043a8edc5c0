"""Self-check of the benchmark harness on ~1k-splat copies of its workloads.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import re
import shutil
import sys

import pytest

import checks
import gen
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(w: run.Workload) -> run.Workload:
    return dataclasses.replace(
        w, splats=1000, sites=min(w.sites, 100),
        center_chunk=w.center_chunk and 600, samples=w.samples and 800,
        iterations=w.iterations and 10)


@pytest.fixture(autouse=True, scope="module")
def cagewarp_importable():
    sys.path.insert(0, str(run.SRC))


def test_benchmark_json_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in run.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_prints_every_metric_with_its_unit(name, trace, capsys):
    result = run.measure(small(run.WORKLOADS[name]), seed=7, seconds=0.5,
                         trace=trace)
    printed = capsys.readouterr().out
    wanted = {m["name"]: m["unit"]
              for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for metric, unit in wanted.items():
        assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$",
                         printed, re.M), metric


def test_a_flipped_byte_fails_the_checks(tmp_path):
    w = small(run.WORKLOADS["replay-2k-r3"])
    inputs = run.prepare(w, 7, tmp_path / "inputs")
    ref = run.run_child(inputs, tmp_path / "reference")
    assert not ref.problems
    reference = checks.digests(ref.out)
    tags = [run.tag(lam) for lam in w.lambdas]
    assert not checks.same_bytes(checks.digests(ref.out), reference, "ref")
    assert not checks.lambda_checks(ref.out, inputs.source, tags)

    for name in ("deformed_lam0.00.ply", "deformed_lam0.50.ply"):
        copy = tmp_path / name
        shutil.copytree(ref.out, copy)
        record = gen.read_ply(copy / name).dtype.itemsize
        data = bytearray((copy / name).read_bytes())
        data[-record + 2] ^= 0x10     # x of the last splat, high mantissa
        (copy / name).write_bytes(bytes(data))
        assert checks.same_bytes(checks.digests(copy), reference, "copy")
        assert checks.lambda_checks(copy, inputs.source, tags)
