"""Certification of the Fig. 2 catalog: every family schedule is IC optimal.

These tests play the role of the theory papers' proofs: for each family and
a range of small parameters, the explicit source order must attain the
brute-force eligibility envelope at every step.
"""

import pytest

from repro.theory.families import (
    clique_dag,
    cycle_dag,
    fig2_catalog,
    m_dag,
    n_dag,
    w_dag,
)
from repro.theory.ic_optimal import is_ic_optimal


def certify(instance):
    assert is_ic_optimal(instance.dag, instance.full_schedule()), (
        f"{instance.name}: catalog schedule is not IC optimal"
    )


class TestWDags:
    @pytest.mark.parametrize("s,c", [(1, 2), (2, 2), (3, 2), (1, 5), (2, 3), (3, 3), (4, 2)])
    def test_ic_optimal(self, s, c):
        certify(w_dag(s, c))

    def test_shape(self):
        inst = w_dag(3, 2)
        d = inst.dag
        assert len(d.sources()) == 3
        assert len(d.sinks()) == 3 * 1 + 1
        # Adjacent sources share exactly one sink.
        shared01 = set(d.children(0)) & set(d.children(1))
        shared12 = set(d.children(1)) & set(d.children(2))
        shared02 = set(d.children(0)) & set(d.children(2))
        assert len(shared01) == 1 and len(shared12) == 1 and not shared02

    def test_degenerate_c1_is_join(self):
        inst = w_dag(3, 1)
        assert len(inst.dag.sinks()) == 1
        certify(inst)

    def test_validation(self):
        with pytest.raises(ValueError):
            w_dag(0, 2)


class TestMDags:
    @pytest.mark.parametrize("s,c", [(1, 5), (2, 5), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_ic_optimal(self, s, c):
        certify(m_dag(s, c))

    def test_shape(self):
        inst = m_dag(2, 5)
        d = inst.dag
        assert len(d.sources()) == 2 * 4 + 1 == 9
        assert len(d.sinks()) == 2
        # Consecutive sinks share exactly one parent.
        sinks = d.sinks()
        assert len(set(d.parents(sinks[0])) & set(d.parents(sinks[1]))) == 1

    def test_mirror_of_w(self):
        m = m_dag(3, 2).dag
        w = w_dag(3, 2).dag
        assert sorted(m.reversed().arcs()) != []  # sanity
        assert m.n == w.n and m.narcs == w.narcs

    def test_validation(self):
        with pytest.raises(ValueError):
            m_dag(1, 0)


class TestNDags:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_ic_optimal(self, n):
        certify(n_dag(n))

    def test_fence_keeps_eligibility_flat(self):
        # Executing sources in order frees one sink each step: E stays k.
        from repro.theory.eligibility import partial_profile

        inst = n_dag(8)
        profile = partial_profile(inst.dag, inst.source_order)
        assert profile.tolist() == [4, 4, 4, 4, 4]

    def test_shape(self):
        d = n_dag(4).dag
        assert d.n == 4 and d.narcs == 3

    @pytest.mark.parametrize("bad", [3, 5, 2, 0])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            n_dag(bad)


class TestCycleDags:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_ic_optimal(self, n):
        certify(cycle_dag(n))

    def test_shape(self):
        d = cycle_dag(6).dag
        assert d.n == 6 and d.narcs == 6
        assert all(d.out_degree(u) == 2 for u in d.sources())
        assert all(d.in_degree(u) == 2 for u in d.sinks())

    @pytest.mark.parametrize("bad", [3, 5, 2])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            cycle_dag(bad)


class TestCliqueDags:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_ic_optimal(self, q):
        certify(clique_dag(q))

    def test_complete(self):
        d = clique_dag(3).dag
        assert d.narcs == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            clique_dag(0)


class TestFig2Catalog:
    def test_exactly_the_papers_seven(self):
        names = [inst.name for inst in fig2_catalog()]
        assert names == [
            "(1,2)-W",
            "(2,2)-W",
            "(1,5)-M",
            "(2,5)-M",
            "3-Clique",
            "4-Cycle",
            "4-N",
        ]

    def test_all_certified(self):
        for inst in fig2_catalog():
            certify(inst)

    def test_full_schedule_is_sources_then_sinks(self):
        for inst in fig2_catalog():
            schedule = inst.full_schedule()
            k = len(inst.source_order)
            assert all(not inst.dag.is_sink(u) for u in schedule[:k])
            assert all(inst.dag.is_sink(u) for u in schedule[k:])
