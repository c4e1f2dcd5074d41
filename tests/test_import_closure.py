"""Each entry point loads only the code its path runs.

Package ``__init__`` modules re-export lazily, and each CLI subcommand
imports its own dependencies, so a fresh ``prio`` run on a DAGMan file
pays for the importer and the scheduler only.  These tests run fresh
interpreters, because the test process itself has imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.corpus import nipype_tree, write_tree

SRC = Path(__file__).resolve().parent.parent / "src"

#: Never loaded by ``prio`` or ``lint`` on a DAGMan file.
NOT_ON_FILE_PATHS = (
    "repro.analysis", "repro.obs", "repro.serve", "repro.live",
    "repro.perf", "repro.stats", "asyncio", "multiprocessing",
    "concurrent.futures", "scipy",
)

#: Runs ``python -m repro.cli ARGS...``, then prints ``sys.modules`` as
#: JSON on the last line of stderr.
CLI_PROBE = (
    "import json, runpy, sys\n"
    "sys.argv[0] = 'prio'\n"
    "try:\n"
    "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=120,
    )


def cli_modules(*args: str) -> tuple[int, set[str]]:
    """Exit status of ``prio ARGS...`` and every module it loaded."""
    proc = run_python(CLI_PROBE, *args)
    return proc.returncode, set(json.loads(proc.stderr.splitlines()[-1]))


def forbidden(modules: set[str]) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in NOT_ON_FILE_PATHS)
    )


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    return write_tree(nipype_tree(4, 3), tmp_path_factory.mktemp("tree"))


def test_bare_import_runs_no_submodule():
    proc = run_python(
        "import json, sys, repro; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["repro"]


def test_prio_loads_only_the_importer_and_scheduler(tree, tmp_path):
    output = tmp_path / "out.dag"
    status, modules = cli_modules("prio", str(tree), "-o", str(output))
    assert status == 0
    assert forbidden(modules) == []
    assert {"repro.dagman.importer", "repro.core.prio"} <= modules


def test_lint_loads_only_the_dagman_layer(tree):
    status, modules = cli_modules("lint", "-r", str(tree))
    assert status == 0
    assert forbidden(modules) == []
    assert "repro.core.prio" not in modules


def test_registries_are_complete_without_eager_imports():
    """Laziness drops no registration: the policy and workload registries
    read the same in a fresh interpreter as after every module of the
    package has been imported."""
    proc = run_python(
        "import importlib, json, pkgutil, repro\n"
        "from repro.sim.policies import cli_policy_names, policy_names\n"
        "from repro.workloads.registry import workload_names\n"
        "def read():\n"
        "    return [cli_policy_names(), policy_names(), workload_names()]\n"
        "fresh = read()\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "print(json.dumps([fresh, read()]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    fresh, loaded = json.loads(proc.stdout)
    assert fresh == loaded
    assert "prio" in fresh[0] and "airsn" in fresh[2]
