"""Smoke test of the benchmark at tiny sizes (RC l=5, Burgers n=10, short simulations)."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(workload, trace, kind):
    lines = _run(workload, trace)
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    info = {key for line in lines[:-1] for key in line}
    assert {"environment", "fingerprint", "not_measured"} <= info
    if trace:
        assert "trace_check" in info
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_gate_counts_unconverged_reduction():
    w = dataclasses.replace(workloads.tiny(workloads.WORKLOADS["greedy_rc"]), max_iters=1)
    run, _ = workloads.run_workload(w, seed=0, seconds=0.1)
    assert run.gate.attempted >= 1
    assert run.gate.failed >= 1
