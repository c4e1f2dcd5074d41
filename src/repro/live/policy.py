"""PRIO as a *live* scheduling policy: re-prioritize as jobs complete.

The paper's PRIO is oblivious — one schedule computed up front, followed
forever.  Under failure and re-execution the static order can drift from
what the remnant dag actually calls for, and the conclusions of the
paper ask what rescheduling buys.  :class:`LivePrioPolicy` answers that
inside the simulator: it tracks the executed set through the
:meth:`~repro.sim.policies.Policy.on_complete` hook and serves the
eligible job of highest *remnant* priority, recomputed lazily (at most
once per assignment round) by the
:class:`~repro.live.incremental.IncrementalScheduler`.

The policy draws nothing from the simulation's generator, so enabling it
changes only assignment order, never the random stream — FIFO, static
PRIO and live PRIO remain comparable under common random numbers.  It is
deliberately *not* kernel-compiled (its registry entry has no
``batch_kind``, so the batched kernel never takes it), and simulations
using it always run on the reference loop.
"""

from __future__ import annotations

from ..dag.graph import Dag
from ..sim.policies import Policy
from .incremental import IncrementalScheduler

__all__ = ["LivePrioPolicy"]


class LivePrioPolicy(Policy):
    """Serve the eligible job of highest priority in the current remnant.

    ``mode`` selects the scheduler's engine (``"incremental"`` reuses
    structure across recomputes, ``"full"`` is the from-scratch oracle);
    both yield identical priorities, hence identical simulations.
    """

    __slots__ = ("_scheduler", "_executed", "_eligible", "_priorities", "_dirty")

    def __init__(self, dag: Dag, *, mode: str = "incremental"):
        self._scheduler = IncrementalScheduler(dag, mode=mode)
        self._executed: set[int] = set()
        self._eligible: list[int] = []
        self._priorities = self._scheduler.priorities(self._executed)
        self._dirty = False

    def push(self, job: int) -> None:
        self._eligible.append(job)

    def on_complete(self, job: int, t: float) -> None:
        # The simulator only completes jobs whose parents all completed,
        # so the executed set stays precedence-closed — the scheduler's
        # precondition.  Recomputation is deferred to the next pop: a
        # burst of completions between assignments costs one recompute.
        self._executed.add(job)
        self._dirty = True

    def pop(self) -> int:
        if self._dirty:
            self._priorities = self._scheduler.priorities(self._executed)
            self._dirty = False
        prio = self._priorities
        jobs = self._eligible
        best = 0
        best_job = jobs[0]
        for i in range(1, len(jobs)):
            job = jobs[i]
            # Eligible jobs are always pending and pending priorities
            # are distinct, so the id tie-break is defensive only.
            if prio[job] > prio[best_job] or (
                prio[job] == prio[best_job] and job < best_job
            ):
                best = i
                best_job = job
        jobs[best] = jobs[-1]
        jobs.pop()
        return best_job

    def __len__(self) -> int:
        return len(self._eligible)

    def stats(self) -> dict:
        """The underlying scheduler's reuse counters (observability)."""
        return self._scheduler.stats()
