"""Tests for the greedy combine phase (Step 6)."""

import numpy as np

from repro.core.component import schedule_component
from repro.core.decompose import decompose
from repro.core.greedy import greedy_combine, topological_combine
from repro.dag.builders import chain
from repro.dag.graph import Dag
from repro.dag.transitive import remove_shortcuts
from repro.theory.priority import priority_over


def combine_of(dag, mode="greedy"):
    dec = decompose(dag)
    scheduled = [schedule_component(dag, c) for c in dec.components]
    fn = greedy_combine if mode == "greedy" else topological_combine
    return dec, scheduled, fn(dec, scheduled)


class TestGreedyCombine:
    def test_fig3_prefers_the_two_child_block(self, fig3_dag):
        dec, scheduled, result = combine_of(fig3_dag)
        first = result.component_order[0]
        # The block scheduling job c (two children) must go first.
        assert fig3_dag.id_of("c") in scheduled[first].schedule
        labels = [fig3_dag.label(u) for u in result.nonsink_schedule]
        assert labels == ["c", "a"]

    def test_respects_superdag_precedence(self):
        d = chain(5)
        _, _, result = combine_of(d)
        assert result.component_order == sorted(result.component_order)

    def test_emits_every_component_once(self, rng):
        from tests.conftest import random_small_dag

        for _ in range(15):
            d = random_small_dag(rng, max_n=12)
            reduced, _ = remove_shortcuts(d)
            dec, scheduled, result = combine_of(reduced)
            assert sorted(result.component_order) == list(
                range(dec.n_components)
            )

    def test_nonsink_schedule_is_concatenation(self, fig3_dag):
        dec, scheduled, result = combine_of(fig3_dag)
        expected = []
        for i in result.component_order:
            expected.extend(scheduled[i].schedule)
        assert result.nonsink_schedule == expected

    def test_tie_break_is_detachment_order(self):
        # Two identical independent blocks: emitted in index order.
        d = Dag(4, [(0, 2), (1, 3)])
        _, _, result = combine_of(d)
        assert result.component_order == [0, 1]

    def test_cache_is_exposed(self, fig3_dag):
        # The pairwise priority cache is the caller's memo: after a call
        # it holds every ordered class pair the rounds scored.
        dec = decompose(fig3_dag)
        scheduled = [schedule_component(fig3_dag, c) for c in dec.components]
        memo: dict = {}
        greedy_combine(dec, scheduled, memo=memo)
        pairs = {
            key: value for key, value in memo.items()
            if isinstance(key[0], bytes)
        }
        assert pairs
        profiles = {sc.profile_key: sc.profile for sc in scheduled}
        for (key_i, key_j), value in pairs.items():
            assert value == priority_over(profiles[key_i], profiles[key_j])

    def test_single_component(self):
        d = Dag(3, [(0, 2), (1, 2)])
        _, _, result = combine_of(d)
        assert result.component_order == [0]


class TestTopologicalCombine:
    def test_plain_order(self, fig3_dag):
        _, _, result = combine_of(fig3_dag, mode="topological")
        # Ignores priorities: block 0 (job a) first by detachment order.
        labels = [fig3_dag.label(u) for u in result.nonsink_schedule]
        assert labels == ["a", "c"]

    def test_valid_on_random(self, rng):
        from tests.conftest import random_small_dag

        for _ in range(10):
            d = random_small_dag(rng, max_n=10)
            reduced, _ = remove_shortcuts(d)
            dec, scheduled, result = combine_of(reduced, mode="topological")
            assert sorted(result.component_order) == list(
                range(dec.n_components)
            )
