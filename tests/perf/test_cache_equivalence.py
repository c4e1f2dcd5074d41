"""End-to-end equivalence: cached runs are byte-identical to uncached.

The cache must be pure reuse — same schedules, same compiled dags, same
random streams, and therefore the very same rendered output — whether the
schedule came from the compute path, the in-memory LRU, or the on-disk
store, and whether the replications ran serial or parallel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.league import Entrant, league
from repro.analysis.report import render_sweep
from repro.analysis.sweep import SweepConfig, ratio_sweep
from repro.core.fifo import fifo_schedule
from repro.core.prio import prio_schedule
from repro.dag.graph import Dag
from repro.perf import ScheduleCache, cached_schedule, schedule_algorithms
from repro.sim.compile import CompiledDag
from repro.sim.engine import SimParams
from repro.sim.replication import policy_factory, run_replications
from repro.workloads.registry import get_workload

from .strategies import dags

CONFIG = SweepConfig(mu_bits=(1.0,), mu_bss=(2.0, 16.0), p=4, q=2)


@pytest.fixture(scope="module")
def dag():
    return get_workload("airsn-small")


def test_cached_sweep_renders_byte_identical(dag, tmp_path):
    uncached = ratio_sweep(
        dag, prio_schedule(dag).schedule, CONFIG, "airsn-small"
    )
    cache = ScheduleCache(directory=tmp_path / "store")
    cached = ratio_sweep(
        dag,
        cached_schedule(dag, "prio", cache=cache),
        CONFIG,
        "airsn-small",
        cache=cache,
    )
    assert render_sweep(cached) == render_sweep(uncached)

    # A second process-like consumer reading the disk store back.
    warm_cache = ScheduleCache(directory=tmp_path / "store")
    warm = ratio_sweep(
        dag,
        cached_schedule(dag, "prio", cache=warm_cache),
        CONFIG,
        "airsn-small",
        cache=warm_cache,
    )
    assert warm_cache.disk_hits == 1
    assert render_sweep(warm) == render_sweep(uncached)


def test_cached_parallel_sweep_matches_uncached_serial(dag):
    uncached = ratio_sweep(
        dag, prio_schedule(dag).schedule, CONFIG, "airsn-small"
    )
    cache = ScheduleCache()
    parallel = ratio_sweep(
        dag,
        cached_schedule(dag, "prio", cache=cache),
        CONFIG,
        "airsn-small",
        jobs=2,
        cache=cache,
    )
    assert render_sweep(parallel) == render_sweep(uncached)


def test_cached_replications_are_bit_identical(dag):
    params = SimParams(mu_bit=1.0, mu_bs=8.0)
    factory = policy_factory("oblivious", order=prio_schedule(dag).schedule)
    plain = run_replications(dag, factory, params, 6, seed=42)
    cache = ScheduleCache()
    via_cache = run_replications(dag, factory, params, 6, seed=42, cache=cache)
    assert np.array_equal(plain.execution_time, via_cache.execution_time)
    assert np.array_equal(plain.utilization, via_cache.utilization)
    assert np.array_equal(
        plain.stalling_probability, via_cache.stalling_probability
    )
    # The compiled dag was memoized (one miss, then a hit on reuse).
    again = run_replications(dag, factory, params, 6, seed=42, cache=cache)
    assert cache.hits >= 1
    assert np.array_equal(plain.execution_time, again.execution_time)


def test_cached_league_matches_uncached(dag):
    params = SimParams(mu_bit=1.0, mu_bs=8.0)
    cache = ScheduleCache()
    entrants = [
        Entrant.from_schedule("prio", cached_schedule(dag, "prio", cache=cache)),
        Entrant("fifo", "fifo"),
    ]
    baseline_rows = league(dag, entrants, params, n_runs=6, seed=3)
    cached_rows = league(dag, entrants, params, n_runs=6, seed=3, cache=cache)
    assert cached_rows == baseline_rows


@st.composite
def child_order_twins(draw):
    """A dag and the same arcs inserted in another order, so jobs list
    their children differently while the fingerprint agrees."""
    dag = draw(dags(max_n=10))
    arcs = draw(st.permutations(list(dag.arcs())))
    return dag, Dag(dag.n, arcs)


@settings(max_examples=60, deadline=None)
@given(child_order_twins())
def test_hits_follow_the_dag_child_order(twins):
    """A hit answers for the dag asked about, never for a twin with the
    same arcs in another child order (FIFO, the topological order and
    the compiled CSR read stored child order)."""
    a, b = twins
    assert a.fingerprint() == b.fingerprint()
    cache = ScheduleCache()
    for algorithm in schedule_algorithms():
        cache.schedule(a, algorithm)
    cache.compiled(a)
    for algorithm in schedule_algorithms():
        expected = cached_schedule(b, algorithm)
        assert cache.schedule(b, algorithm) == expected, algorithm
        compiled = CompiledDag.from_dag(b)
        assert cache.schedule(compiled, algorithm) == expected, algorithm
    assert np.array_equal(
        cache.compiled(b).children, CompiledDag.from_dag(b).children
    )


def test_fifo_twins_get_their_own_schedules_and_replications():
    a = Dag(6, [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5)])
    b = Dag(6, [(0, 2), (0, 1), (1, 3), (3, 4), (4, 5)])
    cache = ScheduleCache()
    assert cache.schedule(a, "fifo") == fifo_schedule(a)
    assert cache.schedule(b, "fifo") == fifo_schedule(b) == [0, 2, 1, 3, 4, 5]
    cache.compiled(a)
    params = SimParams(mu_bit=1.0, mu_bs=2.0)
    fifo = policy_factory("fifo")
    plain = run_replications(b, fifo, params, 64, seed=0)
    cached = run_replications(b, fifo, params, 64, seed=0, cache=cache)
    assert np.array_equal(plain.execution_time, cached.execution_time)
