"""Properties of the canonical dag fingerprint.

The fingerprint keys the schedule cache, so its contract is exactly what
makes caching sound: same node ids + same arcs -> same digest (whatever
the string labels say), different adjacency -> different digest.
"""

from __future__ import annotations

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.sim.compile import CompiledDag

from .strategies import dags


@given(dags())
def test_fingerprint_is_deterministic_across_copies(dag):
    copy = Dag(dag.n, dag.arcs(), dag.labels)
    assert dag.fingerprint() == copy.fingerprint()
    # Memoized: repeated calls return the identical string.
    assert dag.fingerprint() is dag.fingerprint()


@given(dags(min_n=1))
def test_fingerprint_is_label_invariant(dag):
    renamed = Dag(dag.n, dag.arcs(), [f"job-{u:04d}" for u in range(dag.n)])
    assert renamed.labels != dag.labels or dag.n == 0
    assert renamed.fingerprint() == dag.fingerprint()


@given(dags(min_n=1), st.data())
def test_fingerprint_distinguishes_different_arc_sets(dag, data):
    """Adding or removing any single arc changes the digest."""
    arcs = list(dag.arcs())
    missing = [
        (i, j)
        for i in range(dag.n)
        for j in range(i + 1, dag.n)
        if not dag.has_arc(i, j)
    ]
    if arcs and data.draw(st.booleans(), label="drop an arc") or not missing:
        if not arcs:
            return
        victim = data.draw(st.sampled_from(arcs), label="arc to drop")
        other = dag.without_arcs([victim])
    else:
        extra = data.draw(st.sampled_from(missing), label="arc to add")
        other = Dag(dag.n, arcs + [extra])
    assert other.fingerprint() != dag.fingerprint()


def test_fingerprint_distinguishes_node_count():
    assert Dag(2, []).fingerprint() != Dag(3, []).fingerprint()
    assert Dag(0, []).fingerprint() != Dag(1, []).fingerprint()


def test_fingerprint_is_arc_order_independent():
    a = Dag(4, [(0, 1), (0, 2), (1, 3)])
    b = Dag(4, [(1, 3), (0, 2), (0, 1)])
    assert a.fingerprint() == b.fingerprint()


@given(dags())
def test_compiled_dag_carries_and_pickles_the_fingerprint(dag):
    compiled = CompiledDag.from_dag(dag)
    assert compiled.fingerprint == dag.fingerprint()
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone.fingerprint == compiled.fingerprint
    assert clone.n == compiled.n
    assert clone.child_lists() == compiled.child_lists()
    assert clone.initial_frontier() == compiled.initial_frontier()


@given(dags())
def test_compiled_dag_memoizes_adjacency_views(dag):
    compiled = CompiledDag.from_dag(dag)
    assert compiled.child_lists() is compiled.child_lists()
    assert compiled.initial_frontier() is compiled.initial_frontier()
    # The memo never leaks into the pickled payload.
    compiled.child_lists()
    assert b"_child_lists" not in pickle.dumps(compiled)
