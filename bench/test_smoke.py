"""Smoke test of the benchmark.

Every workload runs at a tiny size, untraced and traced, and must report
exactly the metrics named in BENCHMARK.json with their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3",
                  "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, context, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    env = json.loads(context)["env"]
    assert env["seed"] == 3
    assert env["nproc"] >= 1 and env["python"] and env["numpy"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "corpus", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_imported_names_and_partitions_time():
    sys.path.insert(0, str(ROOT / "src"))
    from ckinv import ck, realize
    from spans import Tracer

    original = ck.validate
    tracer = Tracer()
    root = tracer.open(tracer.intern("bench.round"))
    tracer.install()
    try:
        # realize binds validate by ``from .ck import validate``
        assert realize.validate is ck.validate
        assert realize.validate is not original
        realize.realize_k0(realize.RealizationTarget(1, (3,)))
        ck.invariants(ck.gen_cuntz(3))
    finally:
        tracer.uninstall()
        tracer.close(root)
    assert realize.validate is ck.validate is original

    (agg,) = tracer.summary("bench.round", "ck.invariants")
    names = agg["names"]
    assert names["realize.realize_k0"][0] == 1
    assert names["ck.validate"][0] == 2  # once more inside gen_cuntz
    assert names["ck.invariants"][0] == 1
    assert agg["kernels_under"] == 5
    assert all(s >= 0 for _, s in names.values())
    total_self = sum(s for _, s in names.values())
    assert total_self == pytest.approx(agg["duration_s"], rel=1e-9)
