"""Live rescheduling — incremental advance vs from-scratch reprioritization.

Drives one deterministic failure-heavy stream (half the jobs fail once
and re-run, every 16th straggles) through each paper workload in DAGMan
poll-cycle shape (``split_ticks``: a cycle reports failures, the next
reports the re-runs' completions), twice:

* through a :class:`~repro.live.LiveSession` — the incremental remnant
  scheduler behind ``POST /advance``, which reuses session-constant
  structure on completion ticks and skips recomputing entirely on
  report-only ticks;
* through the naive stateless server it replaces: no session state, so
  every poll cycle pays a full :func:`~repro.core.rescheduling.\
reprioritize_remnant` over the current executed set.

Both paths produce byte-identical priorities (the property suite pins it
per step; this bench re-checks the final state), so the only question is
advance latency.  One stream's ratio swings with host load (single runs
of the same tree read 4.35x-7.90x on sdss-medium), so each workload is
timed in ``ROUNDS`` rounds (3, or 5 under ``REPRO_BENCH_FULL=1``), each
round one incremental and one stateless pass back to back, which one
goes first alternating by round.  Writes every round's ratio to
BENCH_live.json, then gates: the *median* ratio must be >= 5x at the
largest workload.

Each row also replays the stream through a checkpointing
:class:`~repro.live.SessionStore` (what ``--session-dir`` serves):
``durable_seconds`` is the incremental path plus one durable checkpoint
record per advance, and ``checkpoint_bytes`` is the session file's final
size.  These are reported, not gated.
"""

import json
import statistics
import time
from pathlib import Path

from common import RESULTS_NOTE, full_fidelity
from repro.core.rescheduling import reprioritize_remnant
from repro.dag.io_json import dag_to_json
from repro.live import EventPlan, LiveSession, SessionStore, event_stream
from repro.robust import write_atomic
from repro.workloads.registry import get_workload

RESULTS = Path(__file__).parent / "results"

TARGET_WAVES = 40  # batch size is derived so each stream is ~40 waves
SPEEDUP_GATE = 5.0
ROUNDS = 5 if full_fidelity() else 3


def workload_names():
    names = ["airsn-small", "inspiral-small", "montage-small", "sdss-small"]
    if full_fidelity():
        names[-1] = "sdss-medium"
    return names


def failure_stream(dag):
    """The bench's stream: ~50% of jobs fail once, every 16th straggles."""
    plan = EventPlan(
        failures={u: 1 for u in range(0, dag.n, 2)},
        stragglers=frozenset(range(0, dag.n, 16)),
    )
    batch_jobs = max(1, -(-dag.n // TARGET_WAVES))
    return list(
        event_stream(dag, plan, batch_jobs=batch_jobs, split_ticks=True)
    )


def time_incremental(dag, batches):
    session = LiveSession(dag)
    recomputes = 0
    started = time.perf_counter()
    for seq, events in batches:
        delta = session.advance(events, seq=seq)
        recomputes += delta["recompute"] != "skipped"
    seconds = time.perf_counter() - started
    return seconds, recomputes, session.priorities


def time_durable(dag, batches, directory):
    """The incremental path behind a store that checkpoints every advance."""
    store = SessionStore(directory=directory)
    session_id = store.create(dag_to_json(dag)).session_id
    started = time.perf_counter()
    for seq, events in batches:
        store.advance(session_id, events, seq=seq)
    seconds = time.perf_counter() - started
    (path,) = Path(directory).iterdir()
    return seconds, path.stat().st_size, store.get(session_id).priorities


def time_stateless(dag, batches):
    """What a server without session state pays: full recompute per tick."""
    executed = set()
    priorities = None
    started = time.perf_counter()
    for _, events in batches:
        executed.update(
            e["job"] for e in events if e["kind"] == "complete"
        )
        priorities = reprioritize_remnant(dag, executed).priorities
    return time.perf_counter() - started, priorities


def test_live_advance_speedup(benchmark, tmp_path):
    names = workload_names()

    def measure():
        rows = []
        for name in names:
            dag = get_workload(name)
            batches = failure_stream(dag)
            inc_runs, base_runs = [], []
            for round_no in range(ROUNDS):
                # Odd rounds time the stateless pass first, so a drift in
                # host load does not always land on the same side.
                if round_no % 2:
                    base_runs.append(time_stateless(dag, batches))
                inc_runs.append(time_incremental(dag, batches))
                if not round_no % 2:
                    base_runs.append(time_stateless(dag, batches))
            durable_seconds, checkpoint_bytes, durable_priorities = (
                time_durable(dag, batches, tmp_path / name)
            )
            _, recomputes, inc_priorities = inc_runs[-1]
            # The whole point of the incremental path is that speed never
            # costs correctness: same bytes as the from-scratch oracle.
            assert inc_priorities == base_runs[-1][1], name
            assert durable_priorities == inc_priorities, name
            inc_seconds = [run[0] for run in inc_runs]
            base_seconds = [run[0] for run in base_runs]
            speedups = [
                base / inc for inc, base in zip(inc_seconds, base_seconds)
            ]
            rows.append(
                {
                    "workload": name,
                    "n_jobs": dag.n,
                    "n_advances": len(batches),
                    "n_recomputes": recomputes,
                    "incremental_seconds": statistics.median(inc_seconds),
                    "durable_seconds": durable_seconds,
                    "checkpoint_bytes": checkpoint_bytes,
                    "stateless_seconds": statistics.median(base_seconds),
                    "round_speedups": speedups,
                    "speedup": statistics.median(speedups),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print(
        f"\nlive rescheduling — advance cost, median of {ROUNDS} rounds "
        f"({RESULTS_NOTE})"
    )
    print(
        f"  {'workload':<16} {'jobs':>6} {'advances':>8} {'recomp':>6} "
        f"{'incremental':>12} {'durable':>9} {'ckpt KB':>8} "
        f"{'stateless':>10} {'speedup':>8}"
    )
    for row in rows:
        print(
            f"  {row['workload']:<16} {row['n_jobs']:>6} "
            f"{row['n_advances']:>8} {row['n_recomputes']:>6} "
            f"{row['incremental_seconds']:>11.3f}s "
            f"{row['durable_seconds']:>8.3f}s "
            f"{row['checkpoint_bytes'] / 1024:>8.1f} "
            f"{row['stateless_seconds']:>9.3f}s "
            f"{row['speedup']:>7.2f}x  ("
            + ", ".join(f"{r:.2f}x" for r in row["round_speedups"])
            + ")"
        )

    RESULTS.mkdir(exist_ok=True)
    write_atomic(
        RESULTS / "BENCH_live.json",
        json.dumps(
            {
                "schema": 2,
                "bench": "live",
                "target_waves": TARGET_WAVES,
                "speedup_gate": SPEEDUP_GATE,
                "rounds": ROUNDS,
                "rows": rows,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )

    # Gate *after* the JSON is on disk so a regression still ships numbers.
    largest = max(rows, key=lambda row: row["n_jobs"])
    assert largest["speedup"] >= SPEEDUP_GATE, (
        f"incremental advance only {largest['speedup']:.2f}x faster than "
        f"stateless recompute on {largest['workload']} (median of "
        f"{largest['round_speedups']}; gate: {SPEEDUP_GATE}x)"
    )
