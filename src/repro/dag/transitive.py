"""Shortcut-arc removal (Step 1 of the scheduling algorithm).

An arc ``u -> v`` is a **shortcut** when *v* can be reached from *u* without
using that arc.  Shortcuts do not change when jobs become eligible, but they
obscure the building-block structure the decomposition relies on, so the
algorithm removes them first.  Removing *all* shortcuts yields the transitive
reduction of the dag (unique for dags; Aho–Garey–Ullman 1972, Hsu 1975 —
the two algorithms the paper cites).

The implementation here is engineered for large sparse workflow dags:

* An arc ``u -> v`` can only be a shortcut when ``out_degree(u) >= 2`` and
  ``in_degree(v) >= 2`` — otherwise no alternative path can exist.
* Along any directed path the longest-path level strictly increases, so a
  shortcut needs ``level(v) >= level(u) + 2``.  In workflow dags almost all
  arcs connect adjacent levels and are dismissed in O(1).
* Remaining candidates are settled by a depth-first search from *u*'s other
  children, restricted to nodes with ``level < level(v)``.
"""

from __future__ import annotations

from .graph import Dag

__all__ = ["find_shortcuts", "remove_shortcuts"]


def find_shortcuts(dag: Dag) -> list[tuple[int, int]]:
    """Return every shortcut arc of *dag*, in ``(parent, child)`` order."""
    level = dag.longest_path_levels()
    shortcuts: list[tuple[int, int]] = []
    for u in range(dag.n):
        ch = dag.children(u)
        if len(ch) < 2:
            continue
        for v in ch:
            if dag.in_degree(v) < 2 or level[v] < level[u] + 2:
                continue
            if _reachable_excluding_arc(dag, u, v, level):
                shortcuts.append((u, v))
    return shortcuts


def _reachable_excluding_arc(dag: Dag, u: int, v: int, level: list[int]) -> bool:
    """Is there a path ``u -> ... -> v`` of length >= 2?

    DFS from u's other children, pruned to nodes whose longest-path level is
    below ``level(v)`` (any intermediate node of such a path satisfies this).
    """
    lv = level[v]
    stack = [w for w in dag.children(u) if w != v and level[w] < lv]
    seen: set[int] = set()
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        for x in dag.children(w):
            if x == v:
                return True
            if x not in seen and level[x] < lv:
                stack.append(x)
    return False


def remove_shortcuts(dag: Dag) -> tuple[Dag, list[tuple[int, int]]]:
    """Remove all shortcut arcs; returns ``(reduced_dag, removed_arcs)``.

    The result is the transitive reduction G' of the paper's Step 1: it has
    the same nodes, the same reachability relation, and no shortcuts.
    """
    shortcuts = find_shortcuts(dag)
    if not shortcuts:
        return dag, []
    return dag.without_arcs(shortcuts), shortcuts

