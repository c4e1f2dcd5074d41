"""The shape table of the recurse phase against a per-block reference.

``schedule_component`` solves each block *shape* once and hands the result
to every block of that shape.  The reference below is the direct per-block
reading of Step 3: build the block's induced subgraph, recognize it (or
solve it exactly, or order it by out-degree), then compute its profile.
Both must agree bit for bit on every block, under every knob setting.
"""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.component import (
    ScheduledComponent,
    outdegree_order,
    schedule_component,
)
from repro.core.decompose import decompose
from repro.core.prio import prio_schedule
from repro.dag.graph import Dag
from repro.dag.transitive import remove_shortcuts
from repro.theory.eligibility import partial_profile
from repro.theory.recognize import recognize_bipartite_family
from repro.workloads.registry import get_workload, workload_names

component_module = importlib.import_module("repro.core.component")
prio_module = importlib.import_module("repro.core.prio")

KNOBS = [
    dict(use_catalog=c, exact_bipartite_limit=e)
    for c, e in itertools.product((True, False), (0, 4))
]


def reference_schedule(
    dag,
    component,
    *,
    use_catalog=True,
    exact_bipartite_limit=0,
):
    """One block, scheduled on its own induced subgraph."""
    subdag, mapping = dag.induced_subgraph(component.nodes)
    family = None
    local_order = None
    if use_catalog:
        rec = recognize_bipartite_family(subdag)
        if rec is not None:
            family = rec.family
            local_order = rec.source_order
    if (
        local_order is None
        and exact_bipartite_limit > 0
        and 0 < len(component.nonsinks) <= exact_bipartite_limit
        and subdag.is_bipartite_two_level()
    ):
        from repro.theory.bipartite_exact import exact_bipartite_schedule

        exact = exact_bipartite_schedule(subdag, limit=exact_bipartite_limit)
        if exact is not None:
            family = "<exact-bipartite>"
            local_order = exact
    if local_order is None:
        weight = [dag.out_degree(orig) for orig in mapping]
        local_order = outdegree_order(subdag, weight=weight)
    profile = partial_profile(subdag, local_order)
    schedule = tuple(mapping[u] for u in local_order)
    assert set(schedule) == set(component.nonsinks)
    return ScheduledComponent(
        component=component, schedule=schedule, profile=profile, family=family
    )


def as_tuple(sc):
    return (sc.index, sc.schedule, sc.profile.tobytes(), sc.profile_key, sc.family)


@st.composite
def repetitive_dags(draw, max_copies: int = 4, max_motif: int = 7) -> Dag:
    """Disjoint copies of one random motif, plus a few random cross arcs.

    Copies make blocks of one shape recur; cross arcs and the shuffled
    ids make some copies decompose into blocks of other shapes.
    """
    k = draw(st.integers(min_value=1, max_value=max_motif))
    copies = draw(st.integers(min_value=1, max_value=max_copies))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.8]))
    rnd = draw(st.randoms(use_true_random=False))
    motif = [(i, j) for i in range(k) for j in range(i + 1, k) if rnd.random() < density]
    n = k * copies
    label = list(range(n))
    rnd.shuffle(label)
    arcs = {(label[c * k + i], label[c * k + j]) for c in range(copies) for i, j in motif}
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if n > 1 else 0):
        i, j = sorted(rnd.sample(range(n), 2))
        arcs.add((label[i], label[j]))
    return Dag(n, sorted(arcs))


def shape_of(dag, comp):
    subdag, _ = dag.induced_subgraph(comp.nodes)
    return (len(comp.nonsinks), subdag.n, tuple(subdag.arcs()))


def test_shape_table_matches_reference_on_random_dags():
    seen = {"examples": 0, "reused": 0}

    @given(repetitive_dags())
    def check(dag):
        # One table across both dags and every knob setting: keys must
        # keep them all apart.
        shapes: dict = {}
        for d in (dag, remove_shortcuts(dag)[0]):
            dec = decompose(d)
            for knobs in KNOBS:
                for comp in dec.components:
                    got = schedule_component(d, comp, shapes=shapes, **knobs)
                    want = reference_schedule(d, comp, **knobs)
                    assert as_tuple(got) == as_tuple(want), knobs
        comps = decompose(dag).components
        seen["examples"] += 1
        seen["reused"] += len({shape_of(dag, c) for c in comps}) < len(comps)

    check()
    # The property must exercise table hits (blocks of a repeated shape),
    # not only first solves.
    assert seen["reused"] * 4 >= seen["examples"], seen


def test_global_fallback_keys_on_outdegree_weights():
    # Two fallback blocks of one shape whose jobs have different
    # out-degrees in the full dag, so their local orders differ.
    dag = Dag(12, [
        (0, 1), (0, 6), (0, 9), (1, 2), (1, 5), (1, 7), (1, 8), (1, 9),
        (2, 3), (2, 6), (2, 8), (2, 9), (3, 8), (3, 10), (3, 11), (4, 5),
        (4, 8), (5, 6), (5, 9), (6, 7), (7, 10), (8, 9), (8, 10), (9, 11),
    ])
    reduced, _ = remove_shortcuts(dag)
    shapes: dict = {}
    local_orders: dict = {}
    for comp in decompose(reduced).components:
        got = schedule_component(reduced, comp, shapes=shapes)
        assert as_tuple(got) == as_tuple(reference_schedule(reduced, comp))
        if got.family is None:
            local = tuple(comp.nodes.index(u) for u in got.schedule)
            local_orders.setdefault(shape_of(reduced, comp), set()).add(local)
    assert any(len(orders) > 1 for orders in local_orders.values())


def reference_prio(dag):
    def per_block(reduced, comp, *, shapes=None, **knobs):
        return reference_schedule(reduced, comp, **knobs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prio_module, "schedule_component", per_block)
        return prio_schedule(dag)


def test_prio_matches_reference_on_registry_workloads_up_to_4k_jobs():
    checked = []
    for name in workload_names():
        dag = get_workload(name)
        if dag.n > 4000:
            continue
        got = prio_schedule(dag)
        want = reference_prio(dag)
        assert got.priorities == want.priorities, name
        assert [as_tuple(sc) for sc in got.scheduled_components] == [
            as_tuple(sc) for sc in want.scheduled_components
        ], name
        checked.append(name)
    assert "sdss-small" in checked and "inspiral" in checked


def test_sdss_small_recognizes_each_shape_once(monkeypatch):
    calls = []
    real = component_module.recognize_bipartite_family

    def counting(subdag):
        calls.append(subdag.n)
        return real(subdag)

    monkeypatch.setattr(component_module, "recognize_bipartite_family", counting)
    result = prio_schedule(get_workload("sdss-small"))
    blocks = result.decomposition.components
    reduced = result.decomposition.dag
    shapes = {shape_of(reduced, comp) for comp in blocks}
    assert len(blocks) == 1685
    assert len(calls) == len(shapes)
    assert len(shapes) * 100 < len(blocks)


def test_shared_profiles_are_read_only():
    # Two disjoint copies of K(2,2): one shape, two blocks.
    dag = Dag(8, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 6), (4, 7), (5, 6), (5, 7)])
    shapes: dict = {}
    first, second = (
        schedule_component(dag, comp, shapes=shapes)
        for comp in decompose(dag).components
    )
    assert first.profile is second.profile
    before = second.profile.tolist()
    with pytest.raises(ValueError, match="read-only"):
        first.profile[0] = 99
    assert second.profile.tolist() == before
    assert np.array_equal(first.profile, [2, 1, 2])
