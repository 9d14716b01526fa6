"""Smoke test of the benchmark itself: 1-point jobs, one pass, no time gate.

Runs every workload untraced and traced through the real command line and
checks the result line against BENCHMARK.json; also checks the known-answer
rules and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_smoke(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--points", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    jobs = workloads.build_jobs(workload, 3, points=1)
    assert result["attempted"] == len(jobs)
    failed_ids = {ln.split()[2] for ln in lines if ln.startswith("failed job ")}
    assert len(failed_ids) == result["failed"]
    kind = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_known_answer_rules():
    jobs = workloads.build_jobs("sweep_closed", 0, points=1)
    degenerate = [j for j in jobs if j.degenerate]
    assert len(degenerate) == 3
    bad = "error: class4 metric is singular at q = -1: det(g) = 0"
    assert workloads._check_cli(degenerate[0], 1, bad, None) is None
    assert workloads._check_cli(degenerate[0], 0, "", None) is not None
    regular = next(j for j in jobs if not j.degenerate)
    assert workloads._check_cli(regular, 2, "verdict mismatch", None)
    assert workloads._check_cli(regular, 1, bad, None)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
