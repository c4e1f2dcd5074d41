"""IncrementalScheduler: byte-identity with the from-scratch oracle.

The scheduler's whole value proposition is that its fast path is
*indistinguishable* from ``reprioritize_remnant`` — same priorities,
same remnant fingerprint — while reusing the transitive reduction and
component schedules across advances.  These tests walk real workloads
through progressively larger executed sets and compare every step.
"""

import pytest

from repro.core.fifo import fifo_schedule
from repro.core.rescheduling import reprioritize_remnant
from repro.live.incremental import IncrementalScheduler
from repro.workloads.registry import get_workload

PAPER_WORKLOADS = ["airsn-small", "inspiral-small", "montage-small",
                   "sdss-small"]


def closed_prefixes(dag, n_steps=8):
    """Precedence-closed executed sets of growing size (FIFO prefixes)."""
    order = fifo_schedule(dag)
    return [set(order[: (k * dag.n) // n_steps]) for k in range(n_steps + 1)]


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_matches_oracle_across_execution(name):
    dag = get_workload(name)
    scheduler = IncrementalScheduler(dag)
    for executed in closed_prefixes(dag):
        oracle = reprioritize_remnant(dag, executed)
        assert scheduler.priorities(executed) == oracle.priorities
        assert (
            scheduler.remnant_fingerprint(executed)
            == oracle.remnant.fingerprint()
        )


def test_inspiral_every_completion_tick_matches_full_recompute():
    """One completion per tick over all of inspiral-small: 96 of its 445
    remnants take the decomposition's general (non-bipartite) step."""
    dag = get_workload("inspiral-small")
    scheduler = IncrementalScheduler(dag)
    executed = set()
    for u in fifo_schedule(dag):
        executed.add(u)
        oracle = reprioritize_remnant(dag, executed)
        assert scheduler.priorities(executed) == oracle.priorities
    assert scheduler.recomputes == dag.n


def test_one_at_a_time_execution_matches_oracle(fig3_dag):
    """The serving-path granularity: one completion per advance."""
    scheduler = IncrementalScheduler(fig3_dag)
    executed = set()
    for u in fifo_schedule(fig3_dag):
        executed.add(u)
        oracle = reprioritize_remnant(fig3_dag, executed)
        assert scheduler.priorities(executed) == oracle.priorities


def test_component_cache_is_reused_across_advances():
    dag = get_workload("airsn-small")
    scheduler = IncrementalScheduler(dag)
    order = fifo_schedule(dag)
    scheduler.priorities(set())
    misses_after_first = scheduler.component_misses
    scheduler.priorities(set(order[:1]))
    scheduler.priorities(set(order[:2]))
    # Completing one job perturbs one corner of the dag: most blocks
    # replay from cache instead of being re-recognized.
    assert scheduler.component_hits > 0
    assert scheduler.component_misses < 3 * misses_after_first


def test_stats_are_json_shaped(fig3_dag):
    import json

    scheduler = IncrementalScheduler(fig3_dag)
    scheduler.priorities(set())
    stats = scheduler.stats()
    assert stats["recomputes"] == 1
    json.dumps(stats)  # must be serializable (it rides in GET /session)


def test_empty_and_fully_executed_extremes(fig3_dag):
    scheduler = IncrementalScheduler(fig3_dag)
    n = fig3_dag.n
    assert sorted(scheduler.priorities(set())) == list(range(1, n + 1))
    assert scheduler.priorities(set(range(n))) == [0] * n
