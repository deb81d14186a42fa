"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py        # about five minutes

Each workload runs twice with --seconds 1: untraced with one injected
wrong result, which must emit every end-to-end metric with its unit and
count the failure, and traced without faults, which must emit every
per-layer metric and pass every gate.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, lines[:-1]


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert set(WORKLOADS) == set(run.NAMES)
    assert units("end_to_end") == dict(run.END_TO_END)
    assert units("per_layer") == dict(run.per_layer_names())
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert min(bounds.values()) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_with_injected_fault(workload):
    result, lines = bench(workload, 0, "--inject-fault")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] >= 1 and result["correct"] is False
    frac = re.search(r"^failed_frac\s+([0-9.]+)", "\n".join(lines), re.M)
    assert frac and float(frac.group(1)) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_every_layer_and_passes(workload):
    result, lines = bench(workload, 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer")
    assert result["correct"] is True and result["failed"] == 0
    assert any(line.startswith("provenance ") for line in lines)
