"""End-to-end benchmark of the four user paths, with a traced per-layer run.

Run one workload (the last stdout line is a JSON result)::

    python3 benchmarks/e2e/run.py --workload prio-files --seed 1 --seconds 15 --trace 0

or all four, each in its own process::

    python3 benchmarks/e2e/run.py --seed 2006 --out DIR [--trace] [--quick]

The program comes from ``src/`` next to this directory; nothing needs
installing.  The amount of work is a function of ``--seconds`` (frozen
per-workload rates, see README.md), never of the clock, so two versions
of the program do identical work and their output digests compare.
Each run writes ``<out>/<workload>.seed<seed>.<mode>.json`` before any
correctness check, and a traced run also its spans under
``<out>/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = 1
#: Each round sets up afresh, then runs the same work; an item's latency
#: is taken over its rounds.
ROUNDS = 3
WORKLOAD_NAMES = ("prio-files", "sweep-cells", "serve-schedule", "live-advance")

#: End-to-end metrics: (name, unit), reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("slow_tail_ms", "ms"),
    ("work_per_s", "1/s"),
)

#: Layers are the ``repro`` subpackages; on the server workloads,
#: ``transport`` is wire time outside the server's handling and ``queue``
#: is time a request waited in the server for the other connection's.
LAYERS = ("dagman", "dag", "core", "sim", "stats", "perf", "serve", "live",
          "robust", "transport", "queue")

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("trace.op_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "fraction"),
    ("gen.lag_p90_ms", "ms"),
    *((f"{layer}.share", "fraction") for layer in LAYERS),
    ("dagman.files_read", "count"),
    ("dagman.bytes_written", "B"),
    ("dag.shortcuts_removed", "count"),
    ("core.components", "count"),
    ("core.catalog_hit_ratio", "fraction"),
    ("perf.batched_ratio", "fraction"),
    ("perf.cache_hit_ratio", "fraction"),
    ("live.recompute_ratio", "fraction"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
)

#: Functions the traced run times where the program calls them
#: internally: (module[:Class], attribute, span name).
WRAPS = (
    ("repro.dagman.importer", "parse_dagman_text", "dagman.parse"),
    ("repro.core.prio", "_remove_shortcuts", "dag.transitive"),
    ("repro.core.prio", "decompose", "core.decompose"),
    ("repro.core.prio", "schedule_component", "core.component"),
    ("repro.core.prio", "greedy_combine", "core.greedy"),
    ("repro.core.prio", "prio_schedule", "core.prio"),
    ("repro.perf.kernel_batch", "dispatch_batch", "perf.batch"),
    ("repro.perf.kernel_batch", "simulate_fast", "perf.scalar"),
    ("repro.sim.replication", "simulate", "sim.engine"),
    ("repro.perf.cache:ScheduleCache", "schedule", "perf.cache"),
    ("repro.dag.graph:Dag", "fingerprint", "dag.fingerprint"),
    ("repro.serve.protocol", "decode_body", "serve.decode"),
    ("repro.serve.protocol", "parse_schedule_request", "serve.parse"),
    ("repro.serve.protocol", "parse_session_request", "serve.parse"),
    ("repro.serve.protocol", "parse_advance_request", "serve.parse"),
    ("repro.serve.protocol", "dag_from_json", "dag.parse"),
    ("repro.serve.protocol", "validate_events", "live.validate"),
    ("repro.serve.protocol", "schedule_payload", "serve.payload"),
    ("repro.serve.protocol", "session_payload", "serve.payload"),
    ("repro.serve.protocol", "advance_payload", "serve.payload"),
    ("repro.serve.protocol", "encode", "serve.encode"),
    ("repro.live.store", "dag_from_json", "dag.parse"),
    ("repro.live.store:SessionStore", "create", "live.create"),
    ("repro.live.store:SessionStore", "advance", "live.store"),
    ("repro.live.session:LiveSession", "advance", "live.advance"),
    ("repro.live.session", "validate_events", "live.validate"),
    ("repro.live.incremental:IncrementalScheduler", "priorities", "live.recompute"),
    ("repro.robust.checkpoint:Checkpoint", "record", "robust.checkpoint"),
)


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    quick: bool
    workdir: Path
    rounds: int = 1

    def per_round(self, unit_seconds: float) -> int:
        """How many units of *unit_seconds* (on the reference host) one
        round does: the run's work is frozen, not timed."""
        return max(1, round(self.seconds / self.rounds / unit_seconds))

    @property
    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {src}")


def workload_class(name: str):
    if name == "prio-files":
        from prio_files import PrioFiles as cls
    elif name == "sweep-cells":
        from sweep_cells import SweepCells as cls
    elif name == "serve-schedule":
        from serve_schedule import ServeSchedule as cls
    else:
        from live_advance import LiveAdvance as cls
    return cls


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository (the
    ceiling keeps git from finding a repository above *root*)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def envelope(ctx: Context, workload, mode: str) -> dict:
    import numpy

    from measure import host_cpus

    return {
        "schema": SCHEMA,
        "benchmark": "e2e",
        "workload": workload.name,
        "mode": mode,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "quick": ctx.quick,
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ctx.root),
        "work": {"rounds": ctx.rounds, **workload.work()},
    }


def mean_of_rounds(window) -> dict[str, list[tuple[float, float]]]:
    """Per class, one ``(latency, work)`` per work item: every item runs
    once per round, and its latency is the mean of its rounds."""
    runs = defaultdict(list)
    for op in window.ops:
        runs[op.key].append(op)
    items = defaultdict(list)
    for ops in runs.values():
        items[ops[0].cls].append((statistics.fmean(op.seconds for op in ops), ops[0].work))
    return items


def end_to_end(window, setups, peak_rss) -> tuple[dict, dict]:
    """The end-to-end metrics and the series behind them."""
    from measure import summarize

    items = mean_of_rounds(window)
    series = {cls: summarize([t for t, _ in items[cls]]) for cls in ("fast", "slow")}
    series["all"] = summarize([t for cls in ("fast", "slow") for t, _ in items[cls]])
    for cls in ("fast", "slow"):
        series[cls]["per_s"] = sum(w for _, w in items[cls]) / sum(t for t, _ in items[cls])
    everything = items["fast"] + items["slow"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "p50_ms": series["all"]["p50_ms"],
        "slow_tail_ms": series["slow"]["tail_ms"],
        "work_per_s": sum(w for _, w in everything) / sum(t for t, _ in everything),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    series.update(setup_s=setups, window_s=window.wall, ops=len(window.ops))
    return metrics, series


def per_layer(workload, window, base, traced, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of a traced replay, and the per-span table."""
    from measure import nearest_rank
    from spans import HARNESS, layer_of

    self_s = tracer.self_seconds()
    calls = tracer.calls()
    ops = len(traced.ops)
    shares = dict.fromkeys(LAYERS, 0.0)
    detail = {}
    if workload.wire:
        # Wall time is what the wire took, send to reply, per request
        # over all rounds.  Transport (outside the frontend's own timer)
        # and queueing (from the client's timestamps) are measured apart
        # from the replay, so coverage shows how much of the wire time
        # they and the replayed layers together account for.
        totals = workload.server_totals
        per_op = {name: totals[f"{name}_s"] / totals["ops"]
                  for name in ("wire", "handled", "wait")}
        detail = {f"server.{name}_ms_per_op": s * 1e3 for name, s in per_op.items()}
        wall = per_op["wire"] * ops
        shares["transport"] = 1.0 - per_op["handled"] / per_op["wire"]
        shares["queue"] = per_op["wait"] / per_op["wire"]
    else:
        wall = traced.wall
    for name, seconds in self_s.items():
        if name != HARNESS:
            shares[layer_of(name)] += seconds / wall
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update({f"{layer}.share": share for layer, share in shares.items()})
    metrics.update({
        "trace.op_ms": wall * 1e3 / ops,
        "trace.overhead_ratio": traced.wall / base.wall - 1.0,
        "trace.coverage": sum(shares.values()),
        "gen.lag_p90_ms": nearest_rank([op.lag for op in window.ops], 0.9) * 1e3,
    })
    metrics.update(workload.layer_counts(ops, tracer))
    units = dict(PER_LAYER)
    table = {
        name: {"calls": calls[name], "self_ms_per_op": seconds * 1e3 / ops,
               "share": seconds / wall}
        for name, seconds in sorted(self_s.items())
    }
    table.update(detail)
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, table


def write_json(path: Path, payload: dict) -> None:
    from repro.robust import write_atomic

    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def run_workload(name: str, ctx: Context, trace: bool, out: Path) -> dict:
    from measure import Window

    workload = workload_class(name)(ctx)
    mode = "traced" if trace else "untraced"
    result = envelope(ctx, workload, mode)
    try:
        workload.prepare()
        speed = workload.speed
        setups, scaled_setups, windows, peak_rss = [], [], [], 0.0
        for _ in range(ctx.rounds):
            speed.read()
            began = time.perf_counter()
            setups.append(workload.setup())
            ended = time.perf_counter()
            speed.read()
            scaled_setups.append(setups[-1] * speed.scale(began, ended))
            # The harness's own objects (inputs, expected outputs) would
            # make every full collection in the window scan them; a
            # user's process does not hold them.
            gc.collect()
            gc.freeze()
            windows.append(workload.measure())
            peak_rss = max(peak_rss, workload.peak_rss_mb())
        workload.close()
        window = Window([op for w in windows for op in w.ops], sum(w.wall for w in windows))
        # The metrics are times at the reference host's speed; the same
        # metrics as the clock read them are kept beside the series.
        result["metrics"], result["series"] = end_to_end(
            speed.rescale(window), scaled_setups, peak_rss
        )
        unscaled, _ = end_to_end(window, setups, peak_rss)
        result["series"]["unscaled"] = {name: m["value"] for name, m in unscaled.items()}
        result["series"]["reference_loop_ms"] = {
            "median": statistics.median(speed.loop_s) * 1e3,
            "min": min(speed.loop_s) * 1e3,
            "max": max(speed.loop_s) * 1e3,
            "readings": len(speed.loop_s),
        }
        if trace:
            from spans import Tracer

            tracer = Tracer()
            base, traced = workload.replay(tracer, WRAPS)
            result["per_layer"], result["layers"] = per_layer(
                workload, window, base, traced, tracer
            )
            tracer.dump(out / "spans" / f"{name}.seed{ctx.seed}.jsonl")
        result["digest"] = workload.digest()
    finally:
        workload.close()
    result["attempted"] = len(window.ops)
    path = out / f"{name}.seed{ctx.seed}.{mode}.json"
    write_json(path, result)  # the numbers are on disk before any check
    checks = workload.check()
    failed = workload.failed_ops + len(checks)
    result.update(failed=failed, correct=failed == 0,
                  failures=workload.messages + checks)
    write_json(path, result)
    return result


def print_result(result: dict, key: str) -> None:
    for name, metric in result[key].items():
        print(f"{result['workload']:<15} {name:<24} {metric['value']:>14.6g} {metric['unit']}")
    for failure in result.get("failures", []):
        print(f"{result['workload']:<15} FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        child = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and child["correct"]
        totals["attempted"] += child["attempted"]
        totals["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            totals["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(totals))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="sets the work count: about this long on the reference host")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="about a tenth of the work, for smoke runs")
    parser.add_argument("--out", type=Path, default=ROOT / ".e2e-out",
                        help="directory for result files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("run.py: --seconds must be positive")
    load_program()
    if args.workload is None:
        return run_all(args)
    out = args.out.resolve()
    workdir = out / f".work-{args.workload}-{os.getpid()}"
    ctx = Context(ROOT, args.seed, args.seconds, args.quick, workdir, ROUNDS)
    try:
        result = run_workload(args.workload, ctx, bool(args.trace), out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    key = "per_layer" if args.trace else "metrics"
    print_result(result, key)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result[key],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
