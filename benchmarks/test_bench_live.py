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
advance latency.  Writes BENCH_live.json, then gates: the incremental
path must be >= 5x faster over the whole stream at the largest workload.

Each row also replays the stream through a checkpointing
:class:`~repro.live.SessionStore` (what ``--session-dir`` serves):
``durable_seconds`` is the incremental path plus one durable checkpoint
record per advance, and ``checkpoint_bytes`` is the session file's final
size.  These are reported, not gated.
"""

import json
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
            inc_seconds, recomputes, inc_priorities = time_incremental(
                dag, batches
            )
            durable_seconds, checkpoint_bytes, durable_priorities = (
                time_durable(dag, batches, tmp_path / name)
            )
            base_seconds, base_priorities = time_stateless(dag, batches)
            # The whole point of the incremental path is that speed never
            # costs correctness: same bytes as the from-scratch oracle.
            assert inc_priorities == base_priorities, name
            assert durable_priorities == inc_priorities, name
            rows.append(
                {
                    "workload": name,
                    "n_jobs": dag.n,
                    "n_advances": len(batches),
                    "n_recomputes": recomputes,
                    "incremental_seconds": inc_seconds,
                    "durable_seconds": durable_seconds,
                    "checkpoint_bytes": checkpoint_bytes,
                    "stateless_seconds": base_seconds,
                    "speedup": base_seconds / inc_seconds,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print(f"\nlive rescheduling — advance cost ({RESULTS_NOTE})")
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
            f"{row['speedup']:>7.2f}x"
        )

    RESULTS.mkdir(exist_ok=True)
    write_atomic(
        RESULTS / "BENCH_live.json",
        json.dumps(
            {
                "schema": 1,
                "bench": "live",
                "target_waves": TARGET_WAVES,
                "speedup_gate": SPEEDUP_GATE,
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
        f"stateless recompute on {largest['workload']} "
        f"(gate: {SPEEDUP_GATE}x)"
    )
