"""Tests for the core Dag type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dag.graph import CycleError, Dag, DagBuilder


class TestConstruction:
    def test_empty_dag(self):
        d = Dag(0, [])
        assert d.n == 0
        assert d.narcs == 0
        assert list(d.arcs()) == []

    def test_single_node(self):
        d = Dag(1, [])
        assert d.sources() == [0]
        assert d.sinks() == [0]
        assert d.non_sinks() == []

    def test_basic_adjacency(self):
        d = Dag(3, [(0, 1), (0, 2)])
        assert d.children(0) == (1, 2)
        assert d.parents(1) == (0,)
        assert d.parents(2) == (0,)
        assert d.out_degree(0) == 2
        assert d.in_degree(0) == 0

    def test_narcs_counts_arcs(self):
        d = Dag(4, [(0, 1), (1, 2), (2, 3)])
        assert d.narcs == 3

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Dag(-1, [])

    def test_arc_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dag(2, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            Dag(2, [(1, 1)])

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag(2, [(0, 1), (0, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_cycle_error_reports_cycle(self):
        with pytest.raises(CycleError) as exc:
            Dag(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
        cycle = exc.value.cycle
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) <= {1, 2}

    def test_check_acyclic_skippable(self):
        # Constructing from known-acyclic arcs without the check works.
        d = Dag(2, [(0, 1)], check_acyclic=False)
        assert d.has_arc(0, 1)

    def test_labels(self):
        d = Dag(2, [(0, 1)], labels=["first", "second"])
        assert d.label(0) == "first"
        assert d.id_of("second") == 1

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            Dag(2, [(0, 1)], labels=["only"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dag(2, [(0, 1)], labels=["x", "x"])

    def test_unlabelled_label_falls_back_to_id(self):
        d = Dag(1, [])
        assert d.label(0) == "0"
        with pytest.raises(KeyError):
            d.id_of("0")


def arc_by_arc(n, arcs):
    """Reference construction: child and parent lists in arc order, every
    arc checked as it comes (range, then self-loop, then repeat)."""
    children = [[] for _ in range(n)]
    parents = [[] for _ in range(n)]
    seen = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"self-loop on node {u}", [u, u])
        if (u, v) in seen:
            raise ValueError(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        children[u].append(v)
        parents[v].append(u)
    return [tuple(c) for c in children], [tuple(p) for p in parents]


class TestArcValidation:
    """With several faults, the first offending arc in input order names
    the error, whether the arcs come as a list or as a generator."""

    CASES = [
        # A duplicate before an out-of-range arc, and the reverse.
        ([(0, 1), (1, 2), (0, 1), (0, 5)], ValueError, "duplicate arc (0, 1)"),
        ([(0, 1), (3, 0), (1, 2), (0, 1)], ValueError,
         "arc (3, 0) out of range for n=3"),
        # A self-loop after a duplicate, and the reverse.
        ([(1, 2), (0, 1), (1, 2), (2, 2)], ValueError, "duplicate arc (1, 2)"),
        ([(1, 2), (2, 2), (1, 2)], CycleError, "self-loop on node 2"),
        # An out-of-range arc that is also a self-loop.
        ([(0, 1), (-1, -1), (0, 1)], ValueError,
         "arc (-1, -1) out of range for n=3"),
        # A duplicate before an arc that is no pair.
        ([(0, 1), (0, 1), (0, 1, 2)], ValueError, "duplicate arc (0, 1)"),
    ]

    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("arcs,error,message", CASES)
    def test_first_fault_in_input_order(self, arcs, error, message,
                                        as_generator):
        given_arcs = (arc for arc in arcs) if as_generator else list(arcs)
        with pytest.raises(error) as exc:
            Dag(3, given_arcs)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_generator_of_valid_arcs(self, as_generator):
        arcs = [(0, 2), (0, 1), (1, 2)]
        d = Dag(3, (a for a in arcs) if as_generator else arcs)
        assert d.children(0) == (2, 1)
        assert d.parents(2) == (0, 1)
        assert d.narcs == 3

    @given(
        st.integers(min_value=0, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=-1, max_value=n),
                        st.integers(min_value=-1, max_value=n),
                    ),
                    max_size=24,
                ),
            )
        ),
        st.booleans(),
    )
    def test_matches_arc_by_arc_reference(self, n_arcs, as_generator):
        n, arcs = n_arcs
        try:
            want = arc_by_arc(n, arcs)
        except ValueError as err:
            with pytest.raises(type(err)) as exc:
                Dag(n, iter(arcs) if as_generator else arcs,
                    check_acyclic=False)
            assert type(exc.value) is type(err)
            assert str(exc.value) == str(err)
            return
        d = Dag(n, iter(arcs) if as_generator else arcs, check_acyclic=False)
        assert [d.children(u) for u in range(n)] == want[0]
        assert [d.parents(u) for u in range(n)] == want[1]
        assert d.narcs == len(arcs)


class TestSourcesSinks:
    def test_diamond(self, diamond):
        assert diamond.sources() == [0]
        assert diamond.sinks() == [3]
        assert diamond.non_sinks() == [0, 1, 2]

    def test_is_source_is_sink(self, diamond):
        assert diamond.is_source(0) and not diamond.is_source(1)
        assert diamond.is_sink(3) and not diamond.is_sink(0)

    def test_disconnected_nodes_are_both(self):
        d = Dag(2, [])
        assert d.sources() == [0, 1]
        assert d.sinks() == [0, 1]


class TestStructureQueries:
    def test_topological_order_valid(self, diamond):
        order = diamond.topological_order()
        pos = {u: i for i, u in enumerate(order)}
        for u, v in diamond.arcs():
            assert pos[u] < pos[v]

    def test_longest_path_levels(self, diamond):
        assert diamond.longest_path_levels() == [0, 1, 1, 2]

    def test_longest_path_levels_with_shortcut(self, diamond_with_shortcut):
        # The shortcut does not change the longest path to node 3.
        assert diamond_with_shortcut.longest_path_levels() == [0, 1, 1, 2]

    def test_bipartite_two_level_true(self):
        d = Dag(4, [(0, 2), (0, 3), (1, 3)])
        assert d.is_bipartite_two_level()

    def test_bipartite_two_level_false_for_chain(self):
        assert not Dag(3, [(0, 1), (1, 2)]).is_bipartite_two_level()

    def test_bipartite_two_level_false_without_arcs(self):
        # The paper requires both parts non-empty, hence at least one arc.
        assert not Dag(3, []).is_bipartite_two_level()

    def test_connected_undirected(self, diamond):
        assert diamond.is_connected_undirected()
        assert not Dag(3, [(0, 1)]).is_connected_undirected()
        assert Dag(1, []).is_connected_undirected()
        assert Dag(0, []).is_connected_undirected()

    def test_descendants_ancestors(self):
        d = Dag(5, [(0, 1), (1, 2), (3, 2), (2, 4)])
        assert d.descendants(0) == {1, 2, 4}
        assert d.ancestors(4) == {0, 1, 2, 3}
        assert d.descendants(4) == set()


class TestDerivedDags:
    def test_induced_subgraph(self, diamond):
        sub, mapping = diamond.induced_subgraph([0, 1, 3])
        assert sub.n == 3
        assert mapping == [0, 1, 3]
        assert set(sub.arcs()) == {(0, 1), (1, 2)}

    def test_induced_subgraph_rejects_duplicates(self, diamond):
        with pytest.raises(ValueError, match="duplicate"):
            diamond.induced_subgraph([0, 0])

    def test_induced_subgraph_keeps_labels(self, fig3_dag):
        sub, mapping = fig3_dag.induced_subgraph([2, 3, 4])
        assert sub.labels == ("c", "d", "e")

    def test_reversed(self, diamond):
        rev = diamond.reversed()
        assert set(rev.arcs()) == {(1, 0), (2, 0), (3, 1), (3, 2)}
        assert rev.sources() == [3]

    def test_without_arcs(self, diamond_with_shortcut):
        d = diamond_with_shortcut.without_arcs([(0, 3)])
        assert not d.has_arc(0, 3)
        assert d.narcs == 4

    def test_without_arcs_rejects_missing(self, diamond):
        with pytest.raises(ValueError, match="not present"):
            diamond.without_arcs([(3, 0)])


class TestInterop:
    def test_networkx_round_trip(self, diamond):
        g = diamond.to_networkx()
        back = Dag.from_networkx(g)
        assert set(back.arcs()) == set(diamond.arcs())
        assert back.n == diamond.n

    def test_from_edges_orders_by_appearance(self):
        d = Dag.from_edges([("x", "y"), ("x", "z")])
        assert d.labels == ("x", "y", "z")

    def test_from_edges_with_isolated_nodes(self):
        d = Dag.from_edges([("a", "b")], nodes=["isolated", "a"])
        assert d.n == 3
        assert d.label(0) == "isolated"


class TestDunders:
    def test_len(self, diamond):
        assert len(diamond) == 4

    def test_eq_and_hash(self):
        d1 = Dag(2, [(0, 1)])
        d2 = Dag(2, [(0, 1)])
        assert d1 == d2
        assert hash(d1) == hash(d2)
        assert d1 != Dag(2, [])

    def test_eq_other_type(self, diamond):
        assert diamond != "not a dag"

    def test_repr(self, diamond):
        assert "n=4" in repr(diamond)


class TestDagBuilder:
    def test_builds_in_insertion_order(self):
        b = DagBuilder()
        b.add_job("z")
        b.add_dependency("a", "z")
        dag = b.build()
        assert dag.labels == ("z", "a")
        assert dag.has_arc(1, 0)

    def test_duplicate_dependency_ignored(self):
        b = DagBuilder()
        b.add_dependency("a", "b")
        b.add_dependency("a", "b")
        assert b.build().narcs == 1

    def test_contains_and_len(self):
        b = DagBuilder()
        b.add_job("a")
        assert "a" in b and "b" not in b
        assert len(b) == 1

    def test_cycle_detected_at_build(self):
        b = DagBuilder()
        b.add_dependency("a", "b")
        b.add_dependency("b", "a")
        with pytest.raises(CycleError):
            b.build()
