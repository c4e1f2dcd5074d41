"""Eligibility profiles E_Sigma(t) — the quantity the theory optimizes.

A job is **eligible** when it is unexecuted and all of its parents have been
executed.  For a schedule Sigma (an order for assigning jobs), ``E_Sigma(t)``
is the number of eligible jobs once exactly the first *t* jobs of Sigma have
executed.  A schedule is *IC optimal* when ``E_Sigma(t)`` equals, at every
*t*, the maximum achievable over all precedence-honoring sets of *t*
executed jobs (see :mod:`repro.theory.ic_optimal` for that maximum).

Two profile flavours are provided:

* :func:`eligibility_profile` — over a full schedule (all *n* jobs);
* :func:`partial_profile` — over a schedule of the dag's *non-sinks* only,
  as used by the heuristic's building-block schedules, where sinks are
  executed last and only their *eligibility* matters during the prefix.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dag.graph import Dag

__all__ = ["eligibility_profile", "partial_profile"]


def eligibility_profile(dag: Dag, schedule: Sequence[int]) -> np.ndarray:
    """``E_Sigma(t)`` for ``t = 0 .. n`` under a full schedule.

    Raises ``ValueError`` if the schedule executes a job before a parent.
    ``E(0)`` is the number of sources and ``E(n) == 0``.
    """
    n = dag.n
    if len(schedule) != n:
        raise ValueError(f"schedule length {len(schedule)} != {n} jobs")
    return _profile(dag, schedule)


def partial_profile(dag: Dag, prefix: Sequence[int]) -> np.ndarray:
    """``E(x)`` for ``x = 0 .. len(prefix)`` executing only *prefix*.

    *prefix* must itself honor precedence (each entry's parents appear
    earlier in *prefix*).  Used with ``prefix`` = the non-sinks of a building
    block in its component schedule: ``E(x)`` then counts remaining eligible
    non-sinks plus sinks whose parents are all executed.
    """
    return _profile(dag, prefix)


def _profile(dag: Dag, order: Sequence[int]) -> np.ndarray:
    # Plain lists beat numpy element access here: the decomposition calls
    # this for tens of thousands of small blocks (SDSS: ~22k), where numpy
    # per-element overhead dominates.
    n = dag.n
    remaining = [dag.in_degree(u) for u in range(n)]
    executed = [False] * n
    eligible_now = remaining.count(0)
    out = [0] * (len(order) + 1)
    out[0] = eligible_now
    for t, u in enumerate(order, start=1):
        if executed[u]:
            raise ValueError(f"job {dag.label(u)} executed twice")
        if remaining[u] != 0:
            raise ValueError(
                f"schedule executes {dag.label(u)} before {remaining[u]} "
                "of its parents"
            )
        executed[u] = True
        eligible_now -= 1
        for v in dag.children(u):
            remaining[v] -= 1
            if remaining[v] == 0:
                eligible_now += 1
        out[t] = eligible_now
    return np.asarray(out, dtype=np.int64)

