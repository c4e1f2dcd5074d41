"""The combine phase's memo and per-shape class keys against from-scratch
references.

``greedy_combine`` memoizes each ordered class pair's priority and each
round's winning profile classes (by the round signature) in one memo,
whether or not the caller passes one; a memo passed in is only shared
across calls (the incremental rescheduler keeps one for its lifetime).
The reference below scores every round from scratch, block by block, with
no memo.  Both must emit the same blocks in the same order, with a fresh
memo and with one memo shared across examples; and within one call no
ordered class pair reaches ``priority_over`` twice.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.component import ScheduledComponent, schedule_component
from repro.core.decompose import Component, Decomposition, decompose
from repro.core.greedy import greedy_combine
from repro.core.prio import prio_schedule
from repro.dag.graph import Dag
from repro.dag.transitive import remove_shortcuts
from repro.theory.priority import priority_over
from repro.workloads.registry import get_workload, workload_names

from .test_component_shapes import repetitive_dags


def reference_combine(decomposition, scheduled):
    """Emission order by the greedy max-min rule, every round scored anew.

    Candidates are the superdag sources; each profile class scores the
    minimum priority over every other class, and over itself when it
    holds two or more candidates.  Among the best-scoring classes the
    earliest-detached candidate (lowest index) is emitted.
    """
    indeg = [len(ps) for ps in decomposition.super_parents]
    active = {i for i, d in enumerate(indeg) if d == 0}
    order = []
    while active:
        classes: dict[bytes, list[int]] = {}
        for i in sorted(active):
            key = np.asarray(scheduled[i].profile, dtype=np.int64).tobytes()
            classes.setdefault(key, []).append(i)
        scores = {}
        for key, members in classes.items():
            profile = scheduled[members[0]].profile
            scores[key] = min(
                (
                    priority_over(profile, scheduled[others[0]].profile)
                    for other, others in classes.items()
                    if other != key or len(members) >= 2
                ),
                default=1.0,
            )
        best = max(scores.values())
        index = min(
            classes[key][0] for key in classes if scores[key] == best
        )
        order.append(index)
        active.remove(index)
        for child in decomposition.super_children[index]:
            indeg[child] -= 1
            if indeg[child] == 0:
                active.add(child)
    return order


def blocks_of(dag):
    reduced, _ = remove_shortcuts(dag)
    decomposition = decompose(reduced)
    shapes: dict = {}
    scheduled = [
        schedule_component(reduced, comp, shapes=shapes)
        for comp in decomposition.components
    ]
    return decomposition, scheduled


@st.composite
def superdags(draw, max_blocks: int = 12):
    """Blocks with profiles drawn from a small pool over a random superdag.

    Arbitrary profiles reach what small dags rarely do: a class whose
    priority over itself is below 1, so the self-pairing term (and the
    multiplicity flag of the round signature) decides the round.
    """
    pool = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    k = draw(st.integers(min_value=1, max_value=max_blocks))
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=k,
                          max_size=k))
    arcs = draw(
        st.sets(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
                lambda a: a[0] < a[1]
            ),
            max_size=2 * k,
        )
    )
    super_children = [[] for _ in range(k)]
    super_parents = [[] for _ in range(k)]
    for i, j in sorted(arcs):
        super_children[i].append(j)
        super_parents[j].append(i)
    scheduled = [
        ScheduledComponent(
            component=Component(i, (), (), (), True),
            schedule=(),
            profile=np.asarray(pool[p], dtype=np.int64),
            family=None,
        )
        for i, p in enumerate(picks)
    ]
    decomposition = Decomposition(
        dag=Dag(0, []),
        components=[sc.component for sc in scheduled],
        comp_of=[],
        super_children=super_children,
        super_parents=super_parents,
    )
    return decomposition, scheduled


def combine_cases():
    return st.one_of(
        repetitive_dags(max_copies=6).map(blocks_of), superdags()
    )


def test_combine_matches_from_scratch_rounds_with_a_fresh_memo():
    @given(combine_cases())
    def check(case):
        decomposition, scheduled = case
        want = reference_combine(decomposition, scheduled)
        assert greedy_combine(decomposition, scheduled).component_order == want
        memo: dict = {}
        got = greedy_combine(decomposition, scheduled, memo=memo)
        assert got.component_order == want
        # The same memo again: every multi-class round is a hit.
        again = greedy_combine(decomposition, scheduled, memo=memo)
        assert again.component_order == want

    check()


def test_combine_matches_from_scratch_rounds_with_a_shared_memo():
    memo: dict = {}
    seen = {"examples": 0, "memo_grew": 0}

    @given(combine_cases())
    def check(case):
        decomposition, scheduled = case
        size = len(memo)
        got = greedy_combine(decomposition, scheduled, memo=memo)
        assert got.component_order == reference_combine(
            decomposition, scheduled
        )
        seen["examples"] += 1
        seen["memo_grew"] += len(memo) > size

    check()
    # Entries written for one example must have been read for others.
    assert memo and seen["memo_grew"] < seen["examples"], seen


def test_no_ordered_class_pair_is_computed_twice_in_one_call(monkeypatch):
    import repro.core.greedy as greedy

    computed: list[tuple[bytes, bytes]] = []

    def counted(profile_i, profile_j):
        computed.append(
            (
                np.asarray(profile_i, dtype=np.int64).tobytes(),
                np.asarray(profile_j, dtype=np.int64).tobytes(),
            )
        )
        return priority_over(profile_i, profile_j)

    monkeypatch.setattr(greedy, "priority_over", counted)
    seen = {"pairs": 0}

    @given(combine_cases())
    def check(case):
        decomposition, scheduled = case
        computed.clear()
        got = greedy_combine(decomposition, scheduled)
        assert len(set(computed)) == len(computed), computed
        assert got.component_order == reference_combine(
            decomposition, scheduled
        )
        seen["pairs"] += len(computed)

    check()
    assert seen["pairs"], "no example scored two classes"


def test_profile_key_is_the_int64_profile_bytes_on_every_registry_dag():
    for name in workload_names():
        result = prio_schedule(get_workload(name))
        for sc in result.scheduled_components:
            assert sc.profile_key == sc.profile.astype(np.int64).tobytes(), (
                name,
                sc.index,
            )
