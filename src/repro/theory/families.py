"""The Fig. 2 catalog: bipartite dag families with known IC-optimal schedules.

The theory papers prove explicit IC-optimal schedules for several families of
connected bipartite dags; Fig. 2 of the paper shows representatives of each,
all scheduled by "executing the sources from left to right, then all sinks in
arbitrary order":

* ``(s, c)-W`` dags — *s* sources in a row, each with *c* children, adjacent
  sources sharing exactly one child (the letter W is the (2, 2) member).
* ``(s, c)-M`` dags — the mirror image: *s* sinks in a row, each with *c*
  parents, adjacent sinks sharing exactly one parent.
* ``k-N`` dags — a zigzag fence ``s_i -> t_i``, ``s_i -> t_{i+1}`` (the
  letter N is the 4-node member).
* ``k-Cycle`` dags — sources and sinks alternating around a cycle,
  ``s_i -> t_i`` and ``s_i -> t_{(i+1) mod k}``.
* ``q-Clique`` dags — complete bipartite with q sources and q sinks.

Each generator returns a :class:`FamilyInstance` whose ``source_order`` is
the proven IC-optimal source sequence (the test suite re-certifies every
small instance against the brute-force envelope of
:mod:`repro.theory.ic_optimal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dag.graph import Dag

__all__ = [
    "FamilyInstance",
    "w_dag",
    "m_dag",
    "n_dag",
    "cycle_dag",
    "clique_dag",
    "fig2_catalog",
]


@dataclass(frozen=True)
class FamilyInstance:
    """A catalog dag together with its IC-optimal schedule.

    ``source_order`` lists the dag's sources in IC-optimal execution order;
    the full IC-optimal schedule is that order followed by the sinks in any
    order (theory: IC-optimal schedules may always run all non-sinks first).
    """

    name: str
    dag: Dag
    source_order: list[int] = field(hash=False)

    def full_schedule(self) -> list[int]:
        """Complete IC-optimal schedule: sources in order, then sinks by id."""
        return list(self.source_order) + self.dag.sinks()


def w_dag(s: int, c: int) -> FamilyInstance:
    """The ``(s, c)-W`` dag: expansive bipartite with chained sharing.

    Source *i* (ids ``0..s-1``) has children ``sinks[i*(c-1) .. i*(c-1)+c-1]``
    so consecutive sources share exactly one sink.  ``c = 1`` degenerates to
    an *s*-way join.  Any left-to-right source order is IC optimal.
    """
    if s < 1 or c < 1:
        raise ValueError("W-dag needs s >= 1 and c >= 1")
    n_sinks = s * (c - 1) + 1
    arcs = [
        (i, s + i * (c - 1) + j)
        for i in range(s)
        for j in range(c)
    ]
    dag = Dag(s + n_sinks, arcs, check_acyclic=False)
    return FamilyInstance(f"({s},{c})-W", dag, list(range(s)))


def m_dag(s: int, c: int) -> FamilyInstance:
    """The ``(s, c)-M`` dag: reductive mirror of the ``(s, c)-W``.

    There are *s* sinks; sink *j* has parents
    ``sources[j*(c-1) .. j*(c-1)+c-1]``, so consecutive sinks share exactly
    one parent.  Left-to-right source order completes one sink's parent set
    at a time, which is IC optimal.
    """
    if s < 1 or c < 1:
        raise ValueError("M-dag needs s >= 1 and c >= 1")
    n_sources = s * (c - 1) + 1
    arcs = [
        (j * (c - 1) + i, n_sources + j)
        for j in range(s)
        for i in range(c)
    ]
    dag = Dag(n_sources + s, arcs, check_acyclic=False)
    return FamilyInstance(f"({s},{c})-M", dag, list(range(n_sources)))


def n_dag(n_nodes: int) -> FamilyInstance:
    """The ``n-N`` dag: a zigzag fence on *n_nodes* nodes (even, >= 4).

    With ``k = n_nodes // 2`` sources and sinks: arcs ``s_i -> t_i`` for all
    *i* and ``s_i -> t_{i+1}`` for ``i < k-1``.  Executing sources in
    ascending order frees one sink per step, keeping eligibility pinned at
    its maximum *k*.
    """
    if n_nodes < 4 or n_nodes % 2:
        raise ValueError("N-dag needs an even node count >= 4")
    k = n_nodes // 2
    arcs = [(i, k + i) for i in range(k)]
    arcs += [(i, k + i + 1) for i in range(k - 1)]
    dag = Dag(2 * k, arcs, check_acyclic=False)
    return FamilyInstance(f"{n_nodes}-N", dag, list(range(k)))


def cycle_dag(n_nodes: int) -> FamilyInstance:
    """The ``n-Cycle`` dag: sources and sinks alternating around a cycle.

    With ``k = n_nodes // 2``: arcs ``s_i -> t_i`` and
    ``s_i -> t_{(i+1) mod k}``.  Executing sources in cycle order frees a
    sink at every step after the first.
    """
    if n_nodes < 4 or n_nodes % 2:
        raise ValueError("Cycle-dag needs an even node count >= 4")
    k = n_nodes // 2
    arcs = [(i, k + i) for i in range(k)]
    arcs += [(i, k + (i + 1) % k) for i in range(k)]
    dag = Dag(2 * k, arcs, check_acyclic=False)
    return FamilyInstance(f"{n_nodes}-Cycle", dag, list(range(k)))


def clique_dag(q: int) -> FamilyInstance:
    """The ``q-Clique`` dag: complete bipartite with *q* sources and sinks.

    No sink can be freed before every source has run, so any source order is
    IC optimal.
    """
    if q < 1:
        raise ValueError("Clique-dag needs q >= 1")
    arcs = [(i, q + j) for i in range(q) for j in range(q)]
    dag = Dag(2 * q, arcs, check_acyclic=False)
    return FamilyInstance(f"{q}-Clique", dag, list(range(q)))


def fig2_catalog() -> list[FamilyInstance]:
    """The seven sample dags of the paper's Fig. 2."""
    return [
        w_dag(1, 2),
        w_dag(2, 2),
        m_dag(1, 5),
        m_dag(2, 5),
        clique_dag(3),
        cycle_dag(4),
        n_dag(4),
    ]
