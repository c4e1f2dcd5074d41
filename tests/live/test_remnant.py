"""The carried remnant state and ``decompose(reduced, remnant=state)``.

The live scheduler never builds a remnant dag: it carries one
:class:`~repro.core.decompose.Remnant` over the session's reduced dag and
decomposes a copy of it per tick.  These properties pin that path to the
from-scratch decomposition of the pending-induced subgraph, field by
field under the monotone renumbering, and pin the carried counts to their
definitions after every tick of a random stream.
"""

import random

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.decompose import Remnant, decompose
from repro.core.rescheduling import reprioritize_remnant
from repro.dag.transitive import remove_shortcuts
from repro.live.incremental import IncrementalScheduler
from repro.obs.metrics import MetricsRegistry

from ..perf.strategies import dags


def closed_set(dag, rng):
    """A random precedence-closed executed set: ancestors of a random
    subset (every closed set is its own closure, so all are reachable)."""
    executed = set()
    for u in sorted(u for u in range(dag.n) if rng.random() < 0.4):
        stack = [u]
        while stack:
            v = stack.pop()
            if v not in executed:
                executed.add(v)
                stack.extend(dag.parents(v))
    return executed


def grow(dag, executed, rng):
    """A strict closed superset of *executed*: some of its ready jobs."""
    ready = [
        u for u in range(dag.n)
        if u not in executed and all(p in executed for p in dag.parents(u))
    ]
    return executed | set(rng.sample(ready, rng.randint(1, len(ready))))


def remnant_of(dag, executed):
    """The remnant state of *executed*, built through the death update."""
    state = Remnant.of(dag)
    state.remove(dag.children, sorted(executed))
    return state


def assert_state_matches_definition(dag, state, executed):
    """alive / apc / bpc / sources / n_alive, recomputed from scratch."""
    alive = [u not in executed for u in range(dag.n)]
    assert list(state.alive) == [int(a) for a in alive]
    assert state.n_alive == sum(alive)
    apc = {u: sum(alive[p] for p in dag.parents(u)) for u in range(dag.n)
           if alive[u]}
    for u, count in apc.items():
        assert state.apc[u] == count, u
        assert state.bpc[u] == sum(
            1 for p in dag.parents(u) if alive[p] and apc[p]
        ), u
    assert state.sources == {u for u, count in apc.items() if count == 0}


@given(dag=dags(max_n=14), seed=st.integers(0, 2**32 - 1))
def test_remnant_decompose_equals_induced_subgraph(dag, seed):
    reduced, _ = remove_shortcuts(dag)
    executed = closed_set(reduced, random.Random(seed))
    pending = [u for u in range(dag.n) if u not in executed]
    state = remnant_of(reduced, executed)
    snapshot = (bytes(state.alive), list(state.apc), list(state.bpc),
                set(state.sources), state.n_alive)
    got = decompose(reduced, remnant=state)
    sub, mapping = reduced.induced_subgraph(pending)
    want = decompose(sub)

    # decompose works on a copy: the caller's state is untouched.
    assert (bytes(state.alive), state.apc, state.bpc, state.sources,
            state.n_alive) == snapshot
    assert got.dag is reduced
    assert len(got.components) == len(want.components)
    orig = mapping.__getitem__
    for g, w in zip(got.components, want.components):
        assert g.index == w.index
        assert g.nonsinks == tuple(map(orig, w.nonsinks))
        assert g.shared_sinks == tuple(map(orig, w.shared_sinks))
        assert g.global_sinks == tuple(map(orig, w.global_sinks))
        assert g.is_bipartite == w.is_bipartite
    for local, u in enumerate(mapping):
        assert got.comp_of[u] == want.comp_of[local]
    assert all(got.comp_of[u] == -1 for u in executed)
    assert got.super_children == want.super_children
    assert got.super_parents == want.super_parents


@given(dag=dags(max_n=12, min_n=1), seed=st.integers(0, 2**32 - 1))
def test_carried_state_equals_fresh_state_every_tick(dag, seed):
    rng = random.Random(seed)
    scheduler = IncrementalScheduler(dag)
    reduced = remove_shortcuts(dag)[0]
    executed = set()
    while True:
        assert scheduler.priorities(executed) == (
            reprioritize_remnant(dag, executed).priorities
        )
        assert_state_matches_definition(reduced, scheduler._remnant, executed)
        if len(executed) == dag.n:
            break
        executed = grow(dag, executed, rng)
    assert scheduler.remnant_rebuilds == 0


@given(dag=dags(max_n=12, min_n=1), seed=st.integers(0, 2**32 - 1))
def test_non_superset_executed_set_rebuilds(dag, seed):
    rng = random.Random(seed)
    earlier = closed_set(dag, rng)
    assume(len(earlier) < dag.n)
    later = grow(dag, earlier, rng)
    metrics = MetricsRegistry()
    scheduler = IncrementalScheduler(dag, metrics=metrics)
    scheduler.priorities(later)
    assert scheduler.remnant_rebuilds == 0
    assert scheduler.priorities(earlier) == (
        reprioritize_remnant(dag, earlier).priorities
    )
    assert scheduler.remnant_rebuilds == 1
    assert metrics.counter("live.remnant.rebuilds").value == 1
    assert_state_matches_definition(
        remove_shortcuts(dag)[0], scheduler._remnant, earlier
    )
    # The rebuilt state carries on from there.
    assert scheduler.priorities(later) == (
        reprioritize_remnant(dag, later).priorities
    )
    assert scheduler.remnant_rebuilds == 1
