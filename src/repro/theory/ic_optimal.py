"""Exact IC-optimality: the optimum eligibility envelope and checkers.

``max_eligibility(G)[t]`` is the largest number of eligible jobs achievable
after *any* precedence-honoring execution of *t* jobs — the benchmark that
defines IC optimality.  Computing it enumerates the *ideals* (downward-closed
job sets) of the dag, which is exponential in general; these routines exist
to certify the explicit family schedules and the heuristic on small dags in
the test suite, exactly as the theory papers do with proofs.

Some dags admit no IC-optimal schedule at all (no single schedule can attain
the envelope at every step); :func:`find_ic_optimal_schedule` then returns
``None`` — that is the theoretical algorithm's "failure" the prio heuristic
is designed to transcend.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dag.graph import Dag
from .eligibility import eligibility_profile

__all__ = [
    "max_eligibility",
    "is_ic_optimal",
    "find_ic_optimal_schedule",
    "BRUTE_FORCE_LIMIT",
]

#: Soft guard on the exhaustive routines; raise deliberately to go bigger.
BRUTE_FORCE_LIMIT = 22


def _check_size(dag: Dag, limit: int | None) -> None:
    cap = BRUTE_FORCE_LIMIT if limit is None else limit
    if dag.n > cap:
        raise ValueError(
            f"brute-force IC-optimality on {dag.n} jobs exceeds the limit "
            f"({cap}); pass limit= explicitly to override"
        )


def _ideal_layers(dag: Dag) -> list[dict[frozenset[int], int]]:
    """For each size t, the ideals of size t mapped to their eligible count.

    Layer t+1 is generated from layer t by executing one currently eligible
    job, so only reachable (precedence-closed) sets are ever materialized.
    """
    n = dag.n
    parents = [dag.parents(u) for u in range(n)]
    layers: list[dict[frozenset[int], int]] = []
    first = frozenset()
    layers.append({first: sum(1 for u in range(n) if not parents[u])})
    for _t in range(n):
        nxt: dict[frozenset[int], int] = {}
        for ideal in layers[-1]:
            for u in range(n):
                if u in ideal:
                    continue
                if all(p in ideal for p in parents[u]):
                    grown = ideal | {u}
                    if grown not in nxt:
                        nxt[grown] = sum(
                            1
                            for w in range(n)
                            if w not in grown
                            and all(p in grown for p in parents[w])
                        )
        layers.append(nxt)
    return layers


def max_eligibility(dag: Dag, *, limit: int | None = None) -> np.ndarray:
    """The IC-optimality envelope ``maxE[t]`` for ``t = 0 .. n``.

    ``maxE[t]`` maximizes the eligible-job count over all downward-closed
    sets of *t* executed jobs.  Exponential-time; guarded by *limit*.
    """
    _check_size(dag, limit)
    layers = _ideal_layers(dag)
    return np.array([max(layer.values()) for layer in layers], dtype=np.int64)


def is_ic_optimal(
    dag: Dag, schedule: Sequence[int], *, limit: int | None = None
) -> bool:
    """Does *schedule* attain the envelope at every step?"""
    profile = eligibility_profile(dag, schedule)
    return bool(np.array_equal(profile, max_eligibility(dag, limit=limit)))


def find_ic_optimal_schedule(
    dag: Dag, *, limit: int | None = None
) -> list[int] | None:
    """An IC-optimal schedule, or ``None`` when the dag admits none.

    Depth-first search over chains of envelope-attaining ideals, memoizing
    dead ends; ids break ties so the result is deterministic.
    """
    _check_size(dag, limit)
    n = dag.n
    envelope = max_eligibility(dag, limit=limit)
    parents = [dag.parents(u) for u in range(n)]
    children = [dag.children(u) for u in range(n)]
    dead: set[frozenset[int]] = set()

    remaining = [len(parents[u]) for u in range(n)]
    eligible = sorted(u for u in range(n) if remaining[u] == 0)
    schedule: list[int] = []
    executed: set[int] = set()

    def eligible_count_after(u: int) -> int:
        # Eligible count once u additionally executes, given current state.
        gained = sum(
            1 for v in children[u] if remaining[v] == 1
        )
        return len(eligible) - 1 + gained

    def dfs() -> bool:
        t = len(schedule)
        if t == n:
            return True
        key = frozenset(executed)
        if key in dead:
            return False
        target = envelope[t + 1]
        for u in list(eligible):
            if eligible_count_after(u) != target:
                continue
            # Execute u.
            executed.add(u)
            schedule.append(u)
            eligible.remove(u)
            newly = []
            for v in children[u]:
                remaining[v] -= 1
                if remaining[v] == 0:
                    newly.append(v)
                    eligible.append(v)
            if dfs():
                return True
            # Undo.
            for v in children[u]:
                remaining[v] += 1
            for v in newly:
                eligible.remove(v)
            eligible.append(u)
            schedule.pop()
            executed.remove(u)
        eligible.sort()
        dead.add(key)
        return False

    if dfs():
        return schedule
    return None

