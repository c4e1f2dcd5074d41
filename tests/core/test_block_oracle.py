"""The block path against its verbatim predecessor.

``decompose`` closes a one-source bipartite block in one scan of its
source's children and builds a bipartite block's roles from S and T;
``schedule_component`` keys a bipartite block from its non-sinks' child
tuples.  ``decompose_reference`` keeps the path they replaced (the
set-based probe, the sorted membership scan, ``Remnant.remove`` per
block, a local-id map over every member).  Both must agree bit for bit:
every ``Component`` field, ``comp_of``, the superdag, and every
``ScheduledComponent``'s schedule, profile, family and profile key —
under every knob setting, with and without a carried remnant.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.component import schedule_component
from repro.core.decompose import Remnant, decompose
from repro.dag.graph import Dag
from repro.dag.transitive import remove_shortcuts
from repro.workloads.registry import get_workload, workload_names

from . import decompose_reference as reference

KNOBS = [
    dict(use_catalog=c, exact_bipartite_limit=e)
    for c, e in itertools.product((True, False), (0, 4))
]


def _motif(kind: str, rnd: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """One piece of a test dag, in local ids ``0 .. k-1``."""
    if kind == "isolated":
        return 1, []
    if kind == "star":
        k = rnd.randint(1, 5)
        return k + 1, [(0, i) for i in range(1, k + 1)]
    if kind == "chain":
        k = rnd.randint(2, 6)
        return k, [(i, i + 1) for i in range(k - 1)]
    if kind == "shared":
        # Sources over a row of sinks, some of which have children.
        m, k = rnd.randint(1, 3), rnd.randint(1, 4)
        arcs = [(i, m + j) for i in range(m) for j in range(k)
                if j == i % k or rnd.random() < 0.5]
        below = m + k
        arcs += [(m + j, below + j) for j in range(k) if rnd.random() < 0.6]
        return below + k, arcs
    k = rnd.randint(1, 6)
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)
               if rnd.random() < 0.4]


@st.composite
def block_dags(draw) -> Dag:
    """Isolated jobs, stars, single-child chains, sinks shared across
    sources and random motifs, each repeated a few times, joined by a
    few cross arcs, with ids shuffled."""
    rnd = draw(st.randoms(use_true_random=False))
    pieces = draw(st.lists(
        st.sampled_from(["isolated", "star", "chain", "shared", "random"]),
        min_size=1, max_size=5,
    ))
    order: list[tuple[int, int]] = []  # arcs in build order
    n = 0
    for kind in pieces:
        size, arcs = _motif(kind, rnd)
        for _ in range(rnd.randint(1, 3)):
            order += [(n + u, n + v) for u, v in arcs]
            n += size
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        u, v = sorted(rnd.sample(range(n), 2))
        if (u, v) not in order:
            order.append((u, v))
    label = list(range(n))
    rnd.shuffle(label)
    rnd.shuffle(order)
    return Dag(n, [(label[u], label[v]) for u, v in order])


def executed_batches(dag: Dag, rnd: random.Random) -> list[list[int]]:
    """A random precedence-closed executed set, as the successive
    batches a live run would complete it in (each batch closed too)."""
    done: set[int] = set()
    batches: list[list[int]] = []
    for _ in range(rnd.randint(1, 3)):
        batch = [
            u for u in dag.topological_order()
            if u not in done and rnd.random() < 0.5
        ]
        closed: list[int] = []
        taken = set()
        for u in batch:
            if all(p in done or p in taken for p in dag.parents(u)):
                taken.add(u)
                closed.append(u)
        rnd.shuffle(closed)
        done |= taken
        batches.append(closed)
    return batches


def remnants(dag: Dag, batches: list[list[int]]):
    """The same carried state, built by each side's own death update."""
    new, old = Remnant.of(dag), reference.Remnant.of(dag)
    for batch in batches:
        new.remove(dag.children, batch)
        old.remove(dag.children, batch)
    return new, old


def fields(component) -> tuple:
    return (component.index, component.nonsinks, component.shared_sinks,
            component.global_sinks, component.is_bipartite)


def scheduled_fields(sc) -> tuple:
    return (sc.index, sc.schedule, sc.profile.tobytes(), sc.family,
            sc.profile_key)


def assert_matches_reference(dag: Dag, new_state=None, old_state=None,
                             knobs=KNOBS) -> None:
    got = decompose(dag, remnant=new_state)
    want = reference.decompose(dag, remnant=old_state)
    assert [fields(c) for c in got.components] == [
        fields(c) for c in want.components
    ]
    assert got.comp_of == want.comp_of
    assert got.super_children == want.super_children
    assert got.super_parents == want.super_parents
    for knob in knobs:
        new_shapes: dict = {}
        old_shapes: dict = {}
        for mine, theirs in zip(got.components, want.components):
            assert scheduled_fields(
                schedule_component(dag, mine, shapes=new_shapes, **knob)
            ) == scheduled_fields(
                reference.schedule_component(
                    dag, theirs, shapes=old_shapes, **knob
                )
            ), (knob, fields(mine))
        assert new_shapes.keys() == old_shapes.keys()


@given(dag=block_dags(), seed=st.integers(0, 2**16), reduce=st.booleans())
def test_block_path_matches_reference(dag, seed, reduce):
    if reduce:
        dag, _ = remove_shortcuts(dag)
    assert_matches_reference(dag)
    new_state, old_state = remnants(
        dag, executed_batches(dag, random.Random(seed))
    )
    assert_matches_reference(dag, new_state, old_state)


def test_one_source_roles_and_death_update():
    """A source with a shared and a global child, listed out of role
    order: the close sorts roles, and the shared child turns source, no
    longer bad for its own child."""
    dag = Dag(5, [(0, 3), (0, 1), (1, 4), (2, 4)])
    assert_matches_reference(dag)
    block = decompose(dag).components[0]
    assert fields(block) == (0, (0,), (1,), (3,), True)


@pytest.mark.parametrize("name", workload_names())
def test_registry_workloads_match_reference(name):
    dag, _ = remove_shortcuts(get_workload(name))
    knobs = KNOBS if dag.n <= 10_000 else KNOBS[:1]
    assert_matches_reference(dag, knobs=knobs)
    rnd = random.Random(name)
    new_state, old_state = remnants(dag, executed_batches(dag, rnd))
    assert_matches_reference(dag, new_state, old_state, knobs=KNOBS[:1])
