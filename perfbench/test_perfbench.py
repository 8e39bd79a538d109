"""The benchmark's own tests: tiny smokes, schema, determinism, sanitizer.

Run from the repository root (each test starts the command in a
subprocess, as a user would)::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Tiny shapes: churn needs a window long enough for a crash and its
# recovery; bcast_ordered keeps its full tree (depth 3) and scales load.
TINY = {
    "req_steady": ["--seconds", "2", "--scale", "0.1"],
    "bcast_ordered": ["--seconds", "2", "--scale", "0.1"],
    "churn_reorg": ["--seconds", "4", "--scale", "0.25"],
}


def bench(workload: str, *extra: str, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), *TINY[workload], *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def spec_units(kind: str):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_and_schema_untraced(workload):
    proc, result = bench(workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == spec_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_and_schema_traced(workload):
    proc, result = bench(workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == spec_units("per_layer")
    shares = [v["value"] for k, v in result["metrics"].items()
              if k.endswith(".self_frac") or k == "trace.shim_frac"]
    # The rest is the benchmark's own delivery tap.
    assert 0.8 < sum(shares) <= 1.0 + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_determinism_gate(workload):
    """One seed repeats exactly (digest, events, messages); a second
    seed passes every check."""
    prints = []
    for _ in range(2):
        proc, result = bench(workload, "--trace", "0", "--fingerprint")
        assert proc.returncode == 0, proc.stderr
        line = next(l for l in proc.stderr.splitlines() if "fingerprint" in l)
        prints.append(json.loads(line.split("fingerprint", 1)[1]))
    assert prints[0] == prints[1]
    assert "digest" in prints[0]
    proc, result = bench(workload, "--trace", "0", seed=11)
    assert proc.returncode == 0 and result["correct"] is True, proc.stderr


@pytest.mark.parametrize("workload", ["bcast_ordered", "churn_reorg"])
def test_sanitized_pass(workload):
    proc, result = bench(workload, "--sanitize")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True


def test_unknown_workload_fails():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
