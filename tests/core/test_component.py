"""Tests for per-component scheduling (Step 3)."""

from repro.core.component import outdegree_order, schedule_component
from repro.core.decompose import decompose
from repro.dag.builders import chain, complete_bipartite
from repro.dag.graph import Dag
from repro.theory.families import w_dag


def out_degrees(d):
    return [d.out_degree(u) for u in range(d.n)]


class TestOutdegreeOrder:
    def test_orders_by_descending_outdegree(self):
        # 0 -> 2, 1 -> {2, 3}: source 1 has higher out-degree.
        d = Dag(4, [(0, 2), (1, 2), (1, 3)])
        assert outdegree_order(d, weight=out_degrees(d)) == [1, 0]

    def test_respects_precedence(self):
        # High-out-degree node behind a low-out-degree parent must wait.
        d = Dag(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
        order = outdegree_order(d, weight=out_degrees(d))
        assert order.index(0) < order.index(1)

    def test_excludes_sinks(self, diamond):
        assert 3 not in outdegree_order(diamond, weight=out_degrees(diamond))

    def test_custom_weight(self):
        d = Dag(4, [(0, 2), (1, 2), (1, 3)])
        # Invert the weights: source 0 goes first despite lower out-degree.
        assert outdegree_order(d, weight=[5, 1, 0, 0]) == [0, 1]

    def test_tie_break_by_id(self):
        d = Dag(4, [(0, 2), (1, 3)])
        assert outdegree_order(d, weight=out_degrees(d)) == [0, 1]


class TestScheduleComponent:
    def _single_component(self, dag):
        dec = decompose(dag)
        assert dec.n_components == 1
        return dec.components[0]

    def test_catalog_block_uses_family(self):
        d = w_dag(3, 2).dag
        sc = schedule_component(d, self._single_component(d))
        assert sc.family == "(3,2)-W"
        assert set(sc.schedule) == set(d.sources())

    def test_catalog_disabled_falls_back(self):
        d = w_dag(3, 2).dag
        sc = schedule_component(d, self._single_component(d), use_catalog=False)
        assert sc.family is None
        assert set(sc.schedule) == set(d.sources())

    def test_profile_length_is_nonsinks_plus_one(self):
        d = complete_bipartite(3, 2)
        sc = schedule_component(d, self._single_component(d))
        assert len(sc.profile) == 4
        assert sc.profile[0] == 3

    def test_profile_key_stable(self):
        d = complete_bipartite(2, 2)
        comp = self._single_component(d)
        a = schedule_component(d, comp)
        b = schedule_component(d, comp)
        assert a.profile_key == b.profile_key

    def test_global_vs_local_outdegree(self):
        # Job 2 has one child inside the block {0, 1, 2, 4} but two in the
        # full dag.  The fallback ranks by the full dag, so 2 runs before
        # 0; ranked by the block alone, 0 would run before 2.
        d = Dag(5, [(0, 4), (1, 2), (1, 4), (2, 3), (2, 4)])
        comp = decompose(d).components[0]
        assert comp.nodes == (0, 1, 2, 4)
        assert schedule_component(d, comp).schedule == (1, 2, 0)
        subdag, mapping = d.induced_subgraph(comp.nodes)
        local = outdegree_order(subdag, weight=out_degrees(subdag))
        assert [mapping[u] for u in local] == [1, 0, 2]

    def test_chain_pair_block(self):
        d = chain(2)
        sc = schedule_component(d, self._single_component(d))
        assert sc.schedule == (0,)
        assert sc.profile.tolist() == [1, 1]

    def test_index_property(self, diamond):
        dec = decompose(diamond)
        sc = schedule_component(diamond, dec.components[0])
        assert sc.index == dec.components[0].index
