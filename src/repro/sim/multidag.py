"""Multi-user simulation: several dags sharing one worker stream.

The paper evaluates a single dag at a time ("no other dag is executed
together with G") while noting that the real Condor queue "stores jobs of
different users".  This extension simulates that contention: *k* dags,
each with its own scheduling policy, compete for the same batched worker
arrivals.  Per batch, the server round-robins across users that still have
eligible jobs (Condor's user-level fair share, in its simplest form), and
each user's jobs are picked by that user's own policy.

It is a wrapper over the reference engine, not a second event loop: the
users' dags become one disjoint-union :class:`CompiledDag` (ids
user-major), a composite :class:`Policy` does the round-robin one pop at
a time, and :func:`repro.sim.engine.simulate` runs the model.  No job
becomes eligible in the middle of a batch, so serving a batch pop by pop
is the same as serving it rotation by rotation.

The per-user metrics mirror :class:`repro.sim.engine.SimResult`:
completion time of the user's last job, plus the shared totals.  The
interesting question — does prioritizing *my* dag still help when someone
else's FIFO dag competes for the same workers? — is exercised in
``benchmarks/test_bench_multiuser.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dag.graph import Dag
from .compile import CompiledDag, as_compiled
from .engine import SimParams, simulate
from .policies import Policy

__all__ = ["UserResult", "MultiDagResult", "simulate_shared"]


@dataclass(frozen=True)
class UserResult:
    """One user's outcome in a shared run."""

    user: int
    n_jobs: int
    completion_time: float


@dataclass(frozen=True)
class MultiDagResult:
    """Outcome of a shared simulation."""

    users: tuple[UserResult, ...]
    total_batches: int
    total_requests: int
    makespan: float


def simulate_shared(
    dags: list[Dag | CompiledDag],
    policies: list[Policy],
    params: SimParams,
    rng: np.random.Generator,
) -> MultiDagResult:
    """Execute several dags against one worker stream.

    ``policies[k]`` manages user *k*'s eligible pool (fresh instances).
    Unserved workers are lost, as in the single-dag model; churn,
    stragglers and rollover are not supported here.
    """
    if len(dags) != len(policies) or not dags:
        raise ValueError("need one policy per dag and at least one dag")
    if params.failure_prob or params.straggler_prob or params.rollover:
        raise ValueError("shared simulation supports the basic model only")
    compiled = [as_compiled(d) for d in dags]
    offsets = np.cumsum([0] + [c.n for c in compiled])
    arc_offsets = np.cumsum([0] + [len(c.children) for c in compiled])
    union = CompiledDag(
        n=int(offsets[-1]),
        indptr=np.concatenate(
            [c.indptr[:-1] + a for c, a in zip(compiled, arc_offsets)]
            + [arc_offsets[-1:]]
        ),
        children=np.concatenate(
            [c.children + o for c, o in zip(compiled, offsets)]
        ).astype(np.int32),
        indegree=np.concatenate([c.indegree for c in compiled]),
    )
    pool = _RoundRobinPolicy(policies, offsets.tolist())
    result = simulate(union, pool, params, rng)
    users = tuple(
        UserResult(user=u, n_jobs=c.n, completion_time=pool.completion[u])
        for u, c in enumerate(compiled)
    )
    return MultiDagResult(
        users=users,
        total_batches=result.batches_until_last_assignment,
        total_requests=result.requests_until_last_assignment,
        makespan=result.execution_time,
    )


class _RoundRobinPolicy(Policy):
    """The users' policies behind one eligible pool of union ids.

    ``pop`` serves the first user at or after the cursor who has eligible
    jobs and moves the cursor one past that user, so the next batch
    resumes the rotation where this one left off; the cursor is unchanged
    when nobody has eligible work.  ``on_complete`` records each user's
    last completion time and passes the hook on to that user's policy.
    """

    __slots__ = ("_policies", "_offsets", "_owner", "_size", "cursor",
                 "completion")

    def __init__(self, policies: list[Policy], offsets: list[int]):
        self._policies = policies
        self._offsets = offsets
        self._owner = [
            u for u in range(len(policies))
            for _ in range(offsets[u + 1] - offsets[u])
        ]
        self._size = 0
        self.cursor = 0
        self.completion = [0.0] * len(policies)

    def push(self, job: int) -> None:
        user = self._owner[job]
        self._policies[user].push(job - self._offsets[user])
        self._size += 1

    def pop(self) -> int:
        policies = self._policies
        k = len(policies)
        for step in range(k):
            user = (self.cursor + step) % k
            if len(policies[user]):
                self.cursor = (user + 1) % k
                self._size -= 1
                return self._offsets[user] + policies[user].pop()
        raise IndexError("pop from an empty pool")

    def on_complete(self, job: int, t: float) -> None:
        user = self._owner[job]
        self.completion[user] = t  # the engine completes in time order
        self._policies[user].on_complete(job - self._offsets[user], t)

    def __len__(self) -> int:
        return self._size
