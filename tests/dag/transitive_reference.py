"""Reachability oracles for the shortcut-removal tests.

``repro.dag.transitive`` removes shortcuts with a level-pruned search;
these two slow, obviously-correct computations are what it is checked
against.
"""

from __future__ import annotations

from repro.dag.graph import Dag


def transitive_reduction_reference(dag: Dag) -> Dag:
    """Transitive reduction via networkx (O(V*E))."""
    import networkx as nx

    reduced = nx.transitive_reduction(dag.to_networkx())
    return Dag(dag.n, reduced.edges(), dag.labels, check_acyclic=False)


def transitive_closure_sets(dag: Dag) -> list[set[int]]:
    """``closure[u]`` = all jobs reachable from *u* (excluding *u* itself).

    Computed bottom-up in reverse topological order; quadratic memory in the
    worst case.
    """
    closure: list[set[int]] = [set() for _ in range(dag.n)]
    for u in reversed(dag.topological_order()):
        acc = closure[u]
        for v in dag.children(u):
            acc.add(v)
            acc |= closure[v]
    return closure
