"""Sec. 3.6 — running time and memory of the prio pipeline.

Regenerates the overhead table on the four scientific dags.  The paper's
C++ tool on a 3.4 GHz Pentium 4 reported: AIRSN < 1 s / 2 MB, Inspiral
16 s / 21 MB, Montage 8 s / 104 MB, SDSS 845 s / 1.3 GB.  Absolute numbers
differ (Python, modern hardware, and the profile-class caching the paper's
Sec. 3.5 only partially had); the shape — SDSS costliest by far — holds.

SDSS at its full 48,013 jobs runs only under REPRO_BENCH_FULL=1; the laptop
default uses the 1500-field scaled variant.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from common import RESULTS_NOTE, full_fidelity
from repro.analysis.overhead import measure_overhead, render_overhead_table
from repro.robust import RetryPolicy, write_atomic
from repro.sim.engine import SimParams
from repro.sim.replication import policy_factory, run_replications
from repro.workloads import airsn, inspiral, montage, sdss

RESULTS = Path(__file__).parent / "results"

PAPER_NUMBERS = {
    "AIRSN": "paper: <1 s, 2 MB",
    "Inspiral": "paper: 16 s, 21 MB",
    "Montage": "paper: 8 s, 104 MB",
    "SDSS": "paper: 845 s, 1.3 GB (48,013 jobs)",
}

CASES = [
    ("AIRSN", lambda: airsn(250)),
    ("Inspiral", lambda: inspiral()),
    ("Montage", lambda: montage()),
    (
        "SDSS",
        lambda: sdss() if full_fidelity() else sdss(n_fields=1500, n_catalogs=300),
    ),
]


@pytest.mark.parametrize("name,factory", CASES, ids=[c[0] for c in CASES])
def test_overhead_table(benchmark, name, factory):
    dag = factory()

    def measure():
        record, _ = measure_overhead(dag, name)
        return record

    record = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nSec. 3.6 — overhead ({RESULTS_NOTE})")
    print(render_overhead_table([record]))
    print(f"  {PAPER_NUMBERS[name]}")

    assert record.n_jobs == dag.n
    # The prio pipeline must stay laptop-friendly at these scales.
    assert record.seconds < 300


def test_robust_layer_fault_free_overhead(benchmark):
    """The pool loop's error path must be nearly free when nothing fails.

    Runs the same parallel replication batch through the one pool loop
    fail-fast (``retry=None``) and with a :class:`RetryPolicy` (progress
    deadline on, no faults injected) in paired rounds, which side goes
    first alternating by round, and asserts the median per-round ratio
    costs < 2% extra wall-clock — plus that both deliver bit-identical
    metrics, the property every recovery action relies on.  The batch is
    sized so each side runs for over a second on a 2-CPU host, so the
    pool's start-up does not dominate either side.
    """
    rounds = 7 if full_fidelity() else 5
    count = 8192 if full_fidelity() else 4096
    compiled_args = (
        airsn(250),
        policy_factory("fifo"),
        SimParams(mu_bit=1.0, mu_bs=16.0),
        count,
    )

    def run(retry):
        return run_replications(
            *compiled_args, seed=20060427, jobs=2, retry=retry
        )

    def timed(retry):
        started = time.perf_counter()
        arrays = run(retry)
        return time.perf_counter() - started, arrays

    robust_policy = RetryPolicy(timeout=120.0)
    plain_times, robust_times = [], []

    def measure():
        run(None)  # warm-up: import/fork costs land outside the timings
        for round_no in range(rounds):
            # Odd rounds time the robust side first, so a drift in host
            # load does not favour one side.
            if round_no % 2:
                seconds, robust_arrays = timed(robust_policy)
                robust_times.append(seconds)
            seconds, plain_arrays = timed(None)
            plain_times.append(seconds)
            if not round_no % 2:
                seconds, robust_arrays = timed(robust_policy)
                robust_times.append(seconds)
        return plain_arrays, robust_arrays

    plain_arrays, robust_arrays = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Recovery machinery may never perturb results, even when idle.
    for metric in ("execution_time", "stalling_probability", "utilization"):
        assert np.array_equal(
            plain_arrays.metric(metric), robust_arrays.metric(metric)
        )

    ratios = [r / p for p, r in zip(plain_times, robust_times)]
    overhead = statistics.median(ratios) - 1.0
    print(
        f"\nrobust-layer fault-free overhead ({RESULTS_NOTE})\n"
        f"  plain   median of {rounds}: "
        f"{statistics.median(plain_times):.3f} s\n"
        f"  robust  median of {rounds}: "
        f"{statistics.median(robust_times):.3f} s\n"
        f"  rounds: " + ", ".join(f"{r - 1.0:+.2%}" for r in ratios) + "\n"
        f"  overhead (median round): {overhead:+.2%} (budget: <2%)"
    )
    RESULTS.mkdir(exist_ok=True)
    write_atomic(
        RESULTS / "BENCH_robust_overhead.json",
        json.dumps(
            {
                "schema": 2,
                "bench": "robust_overhead",
                "count": count,
                "jobs": 2,
                "rounds": rounds,
                "plain_seconds": plain_times,
                "robust_seconds": robust_times,
                "round_ratios": ratios,
                "overhead_fraction": overhead,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    assert overhead < 0.02
