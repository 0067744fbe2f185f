"""Smoke test of the benchmark harness, not of speed.

Every workload runs once at tiny sizes, untraced and traced, passes its
correctness gates and prints exactly the metrics BENCHMARK.json declares.
Run from the repository root with ``python -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_runs_and_passes_gates(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_package(tmp_path):
    # a directory with only the benchmark's own files has no src to import
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "estimation-table", "--seed", "0", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
