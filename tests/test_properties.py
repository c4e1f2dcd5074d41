"""Property-based tests (hypothesis) over the core invariants.

These are the library's contract statements:

* prio always emits a valid topological order, for any dag;
* eligibility profiles are bounded by the brute-force envelope;
* the decomposition partitions the non-sinks and its superdag is acyclic;
* the priority relation is a well-defined [0, 1] quantity with r = 1 on the
  pour-first split;
* the simulator conserves jobs and is deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decompose import decompose
from repro.core.fifo import fifo_schedule
from repro.core.prio import prio_schedule
from repro.dag.graph import Dag
from repro.dag.transitive import find_shortcuts, remove_shortcuts
from repro.dag.validate import is_valid_schedule
from repro.sim.engine import SimParams, make_policy, simulate
from repro.theory.eligibility import eligibility_profile
from repro.theory.ic_optimal import max_eligibility
from repro.theory.priority import priority_over

from .dag.transitive_reference import transitive_closure_sets

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def dags(draw, max_n: int = 12) -> Dag:
    """Random dags: pick n, then a subset of the upper-triangular arcs."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arcs = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return Dag(n, arcs)


@st.composite
def profiles(draw, max_len: int = 8) -> list[int]:
    """Plausible eligibility profiles: non-negative, E(0) >= 1."""
    length = draw(st.integers(min_value=1, max_value=max_len))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=length,
            max_size=length,
        )
    )
    values[0] = max(values[0], 1)
    return values


COMMON = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

# ---------------------------------------------------------------------------
# Scheduling properties
# ---------------------------------------------------------------------------


@COMMON
@given(dags())
def test_prio_schedule_always_valid(dag):
    assert is_valid_schedule(dag, prio_schedule(dag).schedule)


@COMMON
@given(dags())
def test_fifo_schedule_always_valid(dag):
    assert is_valid_schedule(dag, fifo_schedule(dag))


@COMMON
@given(dags(max_n=9))
def test_profiles_bounded_by_envelope(dag):
    envelope = max_eligibility(dag)
    for schedule in (prio_schedule(dag).schedule, fifo_schedule(dag)):
        profile = eligibility_profile(dag, schedule)
        assert (profile <= envelope).all()
        assert profile[0] == envelope[0]


@COMMON
@given(dags())
def test_priorities_are_a_permutation(dag):
    res = prio_schedule(dag)
    assert sorted(res.priorities) == list(range(1, dag.n + 1))


# ---------------------------------------------------------------------------
# Transitive reduction properties
# ---------------------------------------------------------------------------


@COMMON
@given(dags())
def test_shortcut_removal_is_sound_and_complete(dag):
    reduced, removed = remove_shortcuts(dag)
    assert find_shortcuts(reduced) == []
    assert reduced.narcs + len(removed) == dag.narcs
    assert transitive_closure_sets(reduced) == transitive_closure_sets(dag)


# ---------------------------------------------------------------------------
# Decomposition properties
# ---------------------------------------------------------------------------


@COMMON
@given(dags())
def test_decomposition_partitions_nonsinks(dag):
    reduced, _ = remove_shortcuts(dag)
    dec = decompose(reduced)
    scheduled = [u for c in dec.components for u in c.nonsinks]
    assert sorted(scheduled) == reduced.non_sinks()
    # superdag arcs point forward in detachment order => acyclic
    for i, kids in enumerate(dec.super_children):
        assert all(i < j for j in kids)


# ---------------------------------------------------------------------------
# Priority relation properties
# ---------------------------------------------------------------------------


@COMMON
@given(profiles(), profiles())
def test_priority_in_unit_interval(a, b):
    r = priority_over(a, b)
    assert 0.0 <= r <= 1.0


@COMMON
@given(profiles())
def test_priority_against_trivial_block_is_defined(a):
    # A single-job block ([1]) never constrains the pour-first split badly.
    assert 0.0 <= priority_over(a, [1]) <= 1.0


# ---------------------------------------------------------------------------
# Simulator properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    dags(max_n=10),
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=1.0, max_value=64.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_simulation_invariants(dag, mu_bit, mu_bs, seed):
    params = SimParams(mu_bit=mu_bit, mu_bs=mu_bs)

    def once():
        rng = np.random.default_rng(seed)
        return simulate(dag, make_policy("fifo"), params, rng)

    result = once()
    assert result.n_jobs == dag.n
    if dag.n:
        assert result.execution_time > 0
        assert 0 < result.utilization <= 1.0
        assert 0.0 <= result.stalling_probability <= 1.0
        assert result.requests_until_last_assignment >= dag.n
    assert once() == result  # determinism
