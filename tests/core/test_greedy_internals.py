"""Unit tests for the combine phase's internal machinery."""

import numpy as np
import pytest

from repro.core.component import ScheduledComponent, schedule_component
from repro.core.decompose import Component, Decomposition, decompose
from repro.core.greedy import _ClassRegistry, greedy_combine
from repro.dag.graph import Dag
from repro.theory.priority import priority_over


def make_sc(index, profile, schedule=()):
    comp = Component(
        index=index,
        nonsinks=tuple(schedule),
        shared_sinks=(),
        global_sinks=(),
        is_bipartite=True,
    )
    return ScheduledComponent(
        component=comp,
        schedule=tuple(schedule),
        profile=np.asarray(profile, dtype=np.int64),
        family=None,
    )


class TestClassRegistry:
    def test_groups_by_profile(self):
        reg = _ClassRegistry()
        reg.add(make_sc(0, [1, 2]))
        reg.add(make_sc(1, [1, 2]))
        reg.add(make_sc(2, [3, 3]))
        assert sorted(map(len, reg.heaps.values())) == [1, 2]
        assert len(reg.profiles) == 2

    def test_pop_returns_lowest_index(self):
        reg = _ClassRegistry()
        reg.add(make_sc(5, [1, 2]))
        reg.add(make_sc(2, [1, 2]))
        key = next(iter(reg.heaps))
        assert reg.heaps[key][0] == 2
        assert reg.pop(key) == 2
        assert reg.pop(key) == 5
        assert not reg.heaps  # class cleaned up when emptied
        assert not reg.profiles

    def test_multiplicity(self):
        reg = _ClassRegistry()
        reg.add(make_sc(0, [1, 1]))
        reg.add(make_sc(1, [1, 1]))
        key = next(iter(reg.heaps))
        assert len(reg.heaps[key]) == 2


class TestCombineOrderProperties:
    def _decomposed(self, dag):
        dec = decompose(dag)
        scheduled = [schedule_component(dag, c) for c in dec.components]
        return dec, scheduled

    def test_identical_blocks_keep_detachment_order(self):
        # Four identical independent 2-chains.
        d = Dag(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        dec, scheduled = self._decomposed(d)
        result = greedy_combine(dec, scheduled)
        assert result.component_order == [0, 1, 2, 3]

    def test_dominant_block_first_regardless_of_index(self):
        # Block with 3 children declared *after* two plain chains.
        d = Dag(9, [(0, 1), (2, 3), (4, 5), (4, 6), (4, 7), (4, 8)])
        dec, scheduled = self._decomposed(d)
        result = greedy_combine(dec, scheduled)
        wide = next(
            sc.index for sc in scheduled if 4 in sc.component.nonsinks
        )
        assert result.component_order[0] == wide

    def test_cache_shared_across_calls(self, monkeypatch):
        import repro.core.greedy as greedy

        # Two profile classes (single arcs and two-child forks), so the
        # rounds score class pairs and the memo holds their priorities.
        d = Dag(10, [(0, 1), (2, 3), (4, 5), (4, 6), (7, 8), (7, 9)])
        dec, scheduled = self._decomposed(d)
        by_key = {sc.profile_key: sc.profile for sc in scheduled}
        assert len(by_key) == 2
        a, b = sorted(by_key)
        calls = []

        def counted(profile_i, profile_j):
            calls.append(1)
            return priority_over(profile_i, profile_j)

        monkeypatch.setattr(greedy, "priority_over", counted)
        memo: dict = {}
        first = greedy_combine(dec, scheduled, memo=memo)
        assert calls  # the caller's memo fills
        # Both directions are kept, each under its own ordered pair: the
        # priority of one class over another is not symmetric.
        assert memo[(a, b)] == priority_over(by_key[a], by_key[b])
        assert memo[(b, a)] == priority_over(by_key[b], by_key[a])
        assert memo[(a, b)] != memo[(b, a)]
        computed = len(calls)
        again = greedy_combine(dec, scheduled, memo=memo)
        assert len(calls) == computed  # the second call computes nothing
        assert again.component_order == first.component_order

    def test_empty_decomposition(self):
        dec = Decomposition(
            dag=Dag(0, []), components=[], comp_of=[],
            super_children=[], super_parents=[],
        )
        result = greedy_combine(dec, [])
        assert result.component_order == []
        assert result.nonsink_schedule == []
