"""The general decomposition step against a brute-force C(s) oracle.

``decompose`` finds the smallest closure C(s) with one bottom-SCC pass over
the remnant's closure graph.  The oracle below is the direct reading of the
definition: compute C(s) for every alive source and take the minimum by
``(size, s)``.  Driving ``decompose`` with the oracle in place of the SCC
pass must give the same decomposition, bit for bit.
"""

from __future__ import annotations

import importlib
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.core.decompose import decompose
from repro.dag.graph import Dag
from repro.dag.transitive import remove_shortcuts


def closure(s, children_of, parents_of, alive, apc):
    """C(s) on the remnant: sources pull their children, jobs their parents."""
    S = {s}
    T: set[int] = set()
    src_stack = [s]
    t_stack: list[int] = []
    while src_stack or t_stack:
        if src_stack:
            for c in children_of(src_stack.pop()):
                if c not in T and c not in S:
                    T.add(c)
                    t_stack.append(c)
        else:
            for p in parents_of(t_stack.pop()):
                if not alive[p] or p in S or p in T:
                    continue
                if apc[p] == 0:
                    S.add(p)
                    src_stack.append(p)
                else:
                    T.add(p)
                    t_stack.append(p)
    return S, T


def oracle_smallest_closure(n, children_of, parents_of, alive, apc, sources):
    """Every source's closure, then the least by ``(size, source id)``."""
    candidates = [
        closure(s, children_of, parents_of, alive, apc) + (s,)
        for s in sorted(sources)
        if alive[s] and apc[s] == 0
    ]
    S, T, _ = min(candidates, key=lambda e: (len(e[0]) + len(e[1]), e[2]))
    return S, T


# ``repro.core`` re-exports the function under the module's own name.
decompose_module = importlib.import_module("repro.core.decompose")


def decompose_by_oracle(dag):
    with mock.patch.object(
        decompose_module, "_smallest_closure", oracle_smallest_closure
    ):
        return decompose(dag)


def as_tuple(dec):
    return (
        [
            (c.index, c.nonsinks, c.shared_sinks, c.global_sinks, c.is_bipartite)
            for c in dec.components
        ],
        dec.comp_of,
        dec.super_children,
        dec.super_parents,
    )


def takes_general_step(dec):
    return any(not c.is_bipartite for c in dec.components)


@st.composite
def relabelled_dags(draw, max_n: int = 20) -> Dag:
    """Random dags with job ids in shuffled (non-topological) order.

    Shuffled ids matter: the general step breaks ties by least source id,
    which a topological labelling would make trivially upstream-first.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5]))
    rnd = draw(st.randoms(use_true_random=False))
    label = list(range(n))
    rnd.shuffle(label)
    arcs = [
        (label[i], label[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rnd.random() < density
    ]
    return Dag(n, arcs)


def test_scc_pass_matches_oracle_on_random_dags():
    seen = {"examples": 0, "general": 0}

    @given(relabelled_dags())
    def check(dag):
        for d in (dag, remove_shortcuts(dag)[0]):
            fast = decompose(d)
            assert as_tuple(fast) == as_tuple(decompose_by_oracle(d))
            seen["examples"] += 1
            seen["general"] += takes_general_step(fast)

    check()
    # The property must exercise the SCC pass, not only the bipartite path.
    assert seen["general"] * 4 >= seen["examples"], seen


def ring_block(a, b, x, w, y, z):
    """A 6-job block with no bipartite closure: a->x->y<-b->w->z<-a."""
    return [(a, x), (x, y), (b, y), (b, w), (w, z), (a, z)]


def test_equal_bottom_blocks_detach_least_source_id_first():
    # P's least source (1) beats Q's (2), though Q holds the least job id
    # (0) and P holds the greatest source id (10).
    p_nodes = (1, 10, 6, 7, 8, 9)
    q_nodes = (2, 3, 0, 4, 5, 11)
    dag = Dag(12, ring_block(*p_nodes) + ring_block(*q_nodes))
    dec = decompose(dag)
    assert [set(c.nodes) for c in dec.components] == [set(p_nodes), set(q_nodes)]
    assert not any(c.is_bipartite for c in dec.components)
    assert as_tuple(dec) == as_tuple(decompose_by_oracle(dag))
