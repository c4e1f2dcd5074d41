"""Property tests: every scheduling policy emits a lawful order, and the
transitive reduction the pipeline starts from preserves reachability."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.fifo import fifo_schedule
from repro.core.prio import prio_schedule
from repro.dag.transitive import remove_shortcuts
from repro.dag.validate import is_valid_schedule
from repro.perf import ScheduleCache, schedule_algorithms

from ..dag.transitive_reference import transitive_closure_sets
from .strategies import dags


@given(dags(), st.sampled_from(sorted(schedule_algorithms())))
def test_every_algorithm_emits_a_permutation_in_topological_order(dag, algorithm):
    order = ScheduleCache().schedule(dag, algorithm)
    assert sorted(order) == list(range(dag.n))  # a permutation of the jobs
    # DAGPS is a total *priority* order, not a topological one: the
    # simulator's eligibility gating enforces precedence at run time
    # (pinned in tests/sim/test_policy_invariants.py).  Every other
    # algorithm's order must be directly executable.
    if algorithm != "dagps":
        assert is_valid_schedule(dag, order)  # in dependency order


@given(dags())
def test_prio_variants_are_valid_schedules(dag):
    for kwargs in ({}, {"combine": "topological"}):
        order = prio_schedule(dag, **kwargs).schedule
        assert sorted(order) == list(range(dag.n))
        assert is_valid_schedule(dag, order)


@given(dags())
def test_fifo_is_a_valid_schedule(dag):
    order = fifo_schedule(dag)
    assert sorted(order) == list(range(dag.n))
    assert is_valid_schedule(dag, order)


@given(dags())
def test_transitive_reduction_preserves_reachability(dag):
    reduced, removed = remove_shortcuts(dag)
    assert reduced.n == dag.n
    assert transitive_closure_sets(reduced) == transitive_closure_sets(dag)
    # Only arcs of the original dag were removed, and none remain.
    original_arcs = set(dag.arcs())
    assert set(removed) <= original_arcs
    assert set(reduced.arcs()) == original_arcs - set(removed)


@given(dags())
def test_transitive_reduction_is_idempotent(dag):
    reduced, _ = remove_shortcuts(dag)
    again, removed = remove_shortcuts(reduced)
    assert removed == []
    assert set(again.arcs()) == set(reduced.arcs())
