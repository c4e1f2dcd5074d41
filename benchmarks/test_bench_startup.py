"""Cold start: what a fresh ``prio`` process pays before and while it works.

The paper's tool runs once per workflow, before the workflow is
submitted (Sec. 3.6 reports its overhead per workflow), so every run
starts a fresh interpreter and pays the package's import cost first.
This bench times fresh subprocesses of this checkout:

* ``import repro.cli`` — what every subcommand pays before it reads a
  file;
* a whole ``python -m repro.cli prio`` run on a corpus tree
  (``nipype_tree(16, 4)``: 67 jobs over a SPLICE tree), written to a
  separate output file;
* ``prio serve --shards 1``: seconds from spawn to the first ``200``
  from ``/healthz``, and the process tree's summed ``VmHWM`` (peak
  resident set) once one small ``/schedule`` has been answered, so the
  shard worker has finished its imports.

Each figure is the median of its rounds.  The children write bytecode
to a private cache directory, compiled by untimed runs of both paths
first, so no timed run pays for compilation whatever
``PYTHONDONTWRITEBYTECODE`` says.

``REPRO_STARTUP_BASELINE=<other checkout>/src`` times that source tree
too, round by round alternating which side goes first, and records it
under ``baseline`` with the ``prio`` run's median-time ratio: the
before/after row of a change, measured under the same host load.

Writes BENCH_startup.json, then gates: the ``prio`` output matches the
in-process tool (and the baseline's output) byte for byte, its import
closure holds none of the simulator, analysis, service or worker-pool
modules, and ``import repro.cli`` stays under ``IMPORT_GATE_SECONDS``.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import full_fidelity
from repro.core.tool import prioritize_dagman_file
from repro.robust import write_atomic
from repro.workloads.corpus import nipype_tree, write_tree

RESULTS = Path(__file__).parent / "results"
SRC = Path(__file__).resolve().parent.parent / "src"

ROUNDS = 31 if full_fidelity() else 15
SERVE_ROUNDS = 5 if full_fidelity() else 3
TREE = (16, 4)  # nipype_tree(subjects, depth)
#: A fresh ``import repro.cli`` loads only argparse and the DAGMan
#: parser; the eager package imports it replaced took 0.13-0.21 s.
IMPORT_GATE_SECONDS = 0.1
#: Packages the ``prio`` run must not load.
NOT_ON_PRIO_PATH = (
    "repro.analysis", "repro.obs", "repro.serve", "repro.live",
    "repro.perf", "repro.stats", "asyncio", "multiprocessing",
    "concurrent.futures", "scipy",
)
START_TIMEOUT = 60.0


def _host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:  # pragma: no cover - non-Linux
        pass
    return platform.processor()


def _env(src: Path, pycache: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src),
               PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "runs": values}


def _time_import(env: dict) -> float:
    probe = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    )
    return float(out.stdout)


def _prio_cmd(root: Path, output: Path) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "prio", str(root),
            "-o", str(output)]


def _time_prio(env: dict, root: Path, output: Path) -> float:
    began = time.perf_counter()
    subprocess.run(_prio_cmd(root, output), env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - began


#: Runs ``python -m repro.cli ARGS...`` and then lists ``sys.modules``
#: on stderr after a marker line.
LOADED_PROBE = (
    "import runpy, sys\n"
    "sys.argv[0] = 'prio'\n"
    "try:\n"
    "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print('--modules--', *sorted(sys.modules), sep='\\n', file=sys.stderr)\n"
)


def _imported_modules(env: dict, root: Path, output: Path) -> set[str]:
    """Every module loaded by the end of a ``prio`` run."""
    out = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *_prio_cmd(root, output)[3:]],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stderr.split("--modules--\n", 1)[1].split())


def _tree_vmhwm_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over *pid* and its descendants, in MB."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # The command name is parenthesized and may contain spaces.
            ppid = stat[stat.rindex(")") + 2:].split()[1]
            parents[int(entry.name)] = int(ppid)
    tree, frontier = [pid], [pid]
    while frontier:
        current = frontier.pop()
        children = [p for p, parent in parents.items() if parent == current]
        tree += children
        frontier += children
    total_kb = 0
    for member in tree:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _request(port: int, method: str, path: str, body: bytes = b"") -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body or None)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _serve_once(env: dict) -> tuple[float, float]:
    """Seconds from spawn to ``/healthz`` 200, and the tree's VmHWM (MB)
    after one small ``/schedule``."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--shards", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        line = proc.stdout.readline().decode()
        assert "serving on" in line, f"server did not start: {line!r}"
        port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                if _request(port, "GET", "/healthz") == 200:
                    break
            except OSError:
                pass
            assert time.perf_counter() - began < START_TIMEOUT, "no /healthz"
            time.sleep(0.002)
        ready = time.perf_counter() - began
        dag = {"format": "repro-dag-v1", "n": 3, "arcs": [[0, 1], [0, 2]]}
        body = json.dumps({"dag": dag}).encode()
        assert _request(port, "POST", "/schedule", body) == 200
        return ready, _tree_vmhwm_mb(proc.pid)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        proc.stdout.close()


def _measure(sides: dict, root: Path, tmp_path: Path) -> dict:
    """Every side's timings, each round alternating which side runs
    first."""
    times = {side: {"import": [], "prio": [], "serve": []} for side in sides}
    order = list(sides)
    for side, env in sides.items():  # untimed: compiles the bytecode
        subprocess.run(_prio_cmd(root, tmp_path / f"{side}.dag"), env=env,
                       check=True, stdout=subprocess.DEVNULL)
        _serve_once(env)
    for i in range(ROUNDS):
        for side in order if i % 2 == 0 else order[::-1]:
            env = sides[side]
            times[side]["import"].append(_time_import(env))
            times[side]["prio"].append(
                _time_prio(env, root, tmp_path / f"{side}.dag"))
            if i < SERVE_ROUNDS:
                times[side]["serve"].append(_serve_once(env))
    return {
        side: {
            "import_cli_seconds": _summary(t["import"]),
            "prio_cli_seconds": _summary(t["prio"]),
            "serve_healthz_seconds": _summary([r for r, _ in t["serve"]]),
            "serve_tree_vmhwm_mb": _summary([m for _, m in t["serve"]]),
        }
        for side, t in times.items()
    }


def test_cold_start(tmp_path):
    sides = {"this": _env(SRC, tmp_path / "pycache")}
    baseline = os.environ.get("REPRO_STARTUP_BASELINE")
    if baseline:
        sides["baseline"] = _env(Path(baseline), tmp_path / "pycache-baseline")
    root = write_tree(nipype_tree(*TREE), tmp_path / "tree")
    measured = _measure(sides, root, tmp_path)
    output = tmp_path / "this.dag"
    loaded = _imported_modules(sides["this"], root, output)
    forbidden = sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in NOT_ON_PRIO_PATH)
    )
    expected = tmp_path / "expected.dag"
    result = prioritize_dagman_file(root, output=expected)

    this = measured["this"]
    payload = {
        "bench": "startup",
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "host_cpus": _host_cpus(),
        "rounds": ROUNDS,
        "serve_rounds": SERVE_ROUNDS,
        "serve_shards": 1,
        "prio_workflow": {
            "tree": f"nipype_tree{TREE}",
            "jobs": len(result.priorities),
        },
        "prio_repro_modules": sorted(m for m in loaded if m.startswith("repro")),
        "prio_forbidden_modules": forbidden,
        **this,
    }
    if "baseline" in measured:
        before = measured["baseline"]
        payload["baseline"] = before
        payload["prio_cli_time_ratio"] = (
            this["prio_cli_seconds"]["median"]
            / before["prio_cli_seconds"]["median"]
        )
    RESULTS.mkdir(exist_ok=True)
    write_atomic(
        RESULTS / "BENCH_startup.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    for side, row in measured.items():
        print(
            f"\n{side}: import repro.cli "
            f"{row['import_cli_seconds']['median'] * 1e3:.1f} ms; "
            f"prio on nipype_tree{TREE} ({len(result.priorities)} jobs) "
            f"{row['prio_cli_seconds']['median'] * 1e3:.1f} ms; "
            f"serve /healthz {row['serve_healthz_seconds']['median']:.2f} s, "
            f"tree VmHWM {row['serve_tree_vmhwm_mb']['median']:.1f} MB "
            f"(medians, host_cpus={_host_cpus()})"
        )

    assert output.read_bytes() == expected.read_bytes()
    if "baseline" in measured:
        assert (tmp_path / "baseline.dag").read_bytes() == expected.read_bytes()
    assert not forbidden, f"prio loaded {forbidden}"
    assert this["import_cli_seconds"]["median"] < IMPORT_GATE_SECONDS
