"""Validation helpers for dags and schedules.

A **schedule** in this library is a permutation of all job ids that respects
the precedence constraints (every job appears after all of its parents) —
exactly the total order the `prio` tool encodes as Condor job priorities.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import Dag

__all__ = ["is_valid_schedule", "schedule_violations"]


def is_valid_schedule(dag: Dag, order: Sequence[int]) -> bool:
    """True when *order* is a permutation of ``0..n-1`` honoring all arcs."""
    return not schedule_violations(dag, order, limit=1)


def schedule_violations(
    dag: Dag, order: Sequence[int], *, limit: int | None = None
) -> list[str]:
    """Describe what (if anything) is wrong with *order* as a schedule.

    Returns human-readable findings; empty list means valid.  ``limit`` stops
    the scan early once that many problems were found.
    """
    problems: list[str] = []

    def add(msg: str) -> bool:
        problems.append(msg)
        return limit is not None and len(problems) >= limit

    if len(order) != dag.n:
        add(f"schedule has {len(order)} entries for a dag of {dag.n} jobs")
        return problems
    position = [-1] * dag.n
    for t, u in enumerate(order):
        if not (0 <= u < dag.n):
            if add(f"entry {u} at step {t} is not a job id"):
                return problems
            continue
        if position[u] != -1:
            if add(f"job {dag.label(u)} scheduled twice (steps {position[u]} and {t})"):
                return problems
            continue
        position[u] = t
    if any(p == -1 for p in position):
        missing = [dag.label(u) for u in range(dag.n) if position[u] == -1]
        if add(f"jobs never scheduled: {missing[:5]}"):
            return problems
    for u, v in dag.arcs():
        if position[u] != -1 and position[v] != -1 and position[u] > position[v]:
            if add(
                f"precedence violated: {dag.label(v)} (step {position[v]}) runs "
                f"before its parent {dag.label(u)} (step {position[u]})"
            ):
                return problems
    return problems

