"""Smoke runs of run.py: all four workloads, metric names, failure exit."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent
ROOT = E2E.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT, timeout=170):
    """Run ``benchmarks/e2e/run.py`` of the tree at *cwd* from that
    tree's root, with no PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=timeout,
    )


def _names(kind):
    return [metric["name"] for metric in SPEC[kind]]


def test_benchmark_json_names_are_valid():
    names = _names("end_to_end") + _names("per_layer") + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_of_all_workloads(tmp_path, trace):
    began = time.perf_counter()
    proc = _run("--quick", "--seed", "7", "--trace", str(trace), "--out", str(tmp_path))
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stderr[-2000:]
    if not trace:
        assert elapsed < 60.0
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    expected = _names("per_layer" if trace else "end_to_end")
    mode = "traced" if trace else "untraced"
    for workload in (w["name"] for w in SPEC["workloads"]):
        printed = [k.split("/", 1)[1] for k in summary["metrics"] if k.startswith(workload + "/")]
        assert printed == expected
        result = json.loads((tmp_path / f"{workload}.seed7.{mode}.json").read_text())
        metrics = result["per_layer" if trace else "metrics"]
        assert sorted(metrics) == sorted(expected)
        assert result["attempted"] >= 1 and result["correct"]
        if not trace:
            assert all(metric["value"] > 0 for metric in metrics.values())


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files, run.py fails before printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "prio-files", "--seed", "1", "--seconds", "15",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
