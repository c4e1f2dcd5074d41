"""Tests for shortcut removal / transitive reduction."""

import numpy as np
import pytest

from repro.dag.builders import chain, complete_bipartite, random_dag
from repro.dag.graph import Dag
from repro.dag.transitive import find_shortcuts, remove_shortcuts

from .transitive_reference import (
    transitive_closure_sets,
    transitive_reduction_reference,
)


class TestFindShortcuts:
    def test_no_shortcuts_in_chain(self):
        assert find_shortcuts(chain(5)) == []

    def test_no_shortcuts_in_bipartite(self):
        assert find_shortcuts(complete_bipartite(3, 3)) == []

    def test_detects_simple_shortcut(self, diamond_with_shortcut):
        assert find_shortcuts(diamond_with_shortcut) == [(0, 3)]

    def test_detects_chain_shortcut(self):
        d = Dag(3, [(0, 1), (1, 2), (0, 2)])
        assert find_shortcuts(d) == [(0, 2)]

    def test_no_false_positive_on_diamond(self, diamond):
        # Both 0->1 and 0->2 are essential.
        assert find_shortcuts(diamond) == []

    def test_long_range_shortcut(self):
        # 0 -> 1 -> 2 -> 3 -> 4 plus 0 -> 4; also 0 -> 2.
        d = Dag(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        assert set(find_shortcuts(d)) == {(0, 4), (0, 2)}

    def test_parallel_paths_not_shortcut(self):
        # Two node-disjoint paths between endpoints: no arc is redundant.
        d = Dag(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)])
        assert find_shortcuts(d) == []


class TestRemoveShortcuts:
    def test_identity_when_clean(self, diamond):
        reduced, removed = remove_shortcuts(diamond)
        assert removed == []
        assert reduced is diamond  # no copy when nothing to remove

    def test_removes_and_reports(self, diamond_with_shortcut):
        reduced, removed = remove_shortcuts(diamond_with_shortcut)
        assert removed == [(0, 3)]
        assert not reduced.has_arc(0, 3)
        assert reduced.n == 4

    def test_preserves_reachability(self, rng):
        for _ in range(20):
            d = random_dag(12, 0.4, rng)
            reduced, _ = remove_shortcuts(d)
            assert transitive_closure_sets(d) == transitive_closure_sets(reduced)

    def test_result_is_shortcut_free(self, rng):
        for _ in range(20):
            d = random_dag(12, 0.5, rng)
            reduced, _ = remove_shortcuts(d)
            assert find_shortcuts(reduced) == []

    def test_matches_networkx_reference(self, rng):
        for _ in range(25):
            d = random_dag(11, 0.4, rng)
            reduced, _ = remove_shortcuts(d)
            reference = transitive_reduction_reference(d)
            assert set(reduced.arcs()) == set(reference.arcs())

    def test_keeps_labels(self):
        d = Dag(3, [(0, 1), (1, 2), (0, 2)], labels=["a", "b", "c"])
        reduced, _ = remove_shortcuts(d)
        assert reduced.labels == ("a", "b", "c")

    def test_sources_and_sinks_unchanged(self, rng):
        for _ in range(10):
            d = random_dag(14, 0.5, rng)
            reduced, _ = remove_shortcuts(d)
            assert reduced.sources() == d.sources()
            assert reduced.sinks() == d.sinks()


class TestClosureSets:
    def test_chain_closure(self):
        closure = transitive_closure_sets(chain(4))
        assert closure[0] == {1, 2, 3}
        assert closure[3] == set()

    def test_matches_descendants(self, rng):
        d = random_dag(10, 0.4, rng)
        closure = transitive_closure_sets(d)
        for u in range(d.n):
            assert closure[u] == d.descendants(u)


class TestScale:
    def test_dense_random_dag(self, rng):
        # A denser dag where nearly every arc is a shortcut.
        d = random_dag(40, 0.9, rng)
        reduced, removed = remove_shortcuts(d)
        assert find_shortcuts(reduced) == []
        assert reduced.narcs + len(removed) == d.narcs

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny(self, n):
        d = Dag(n, [(0, 1)] if n == 2 else [])
        reduced, removed = remove_shortcuts(d)
        assert removed == []
        assert reduced.n == n

    def test_levels_prune_does_not_miss(self):
        # Shortcut spanning exactly two levels (minimum possible).
        d = Dag(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert find_shortcuts(d) == [(0, 2)]
