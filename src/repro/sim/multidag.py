"""Multi-user simulation: several dags sharing one worker stream.

The paper evaluates a single dag at a time ("no other dag is executed
together with G") while noting that the real Condor queue "stores jobs of
different users".  This extension simulates that contention: *k* dags,
each with its own scheduling policy, compete for the same batched worker
arrivals.  Per batch, the server round-robins across users that still have
eligible jobs (Condor's user-level fair share, in its simplest form), and
each user's jobs are picked by that user's own policy.

The per-user metrics mirror :class:`repro.sim.engine.SimResult`:
completion time of the user's last job, plus the shared totals.  The
interesting question — does prioritizing *my* dag still help when someone
else's FIFO dag competes for the same workers? — is exercised in
``benchmarks/test_bench_multiuser.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..dag.graph import Dag
from .arrivals import BatchArrivals
from .compile import CompiledDag, as_compiled
from .engine import SimParams
from .policies import Policy
from .runtime import RuntimeSampler

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

    def completion_of(self, user: int) -> float:
        return self.users[user].completion_time


def simulate_shared(
    dags: list[Dag | CompiledDag],
    policies: list[Policy],
    params: SimParams,
    rng: np.random.Generator,
) -> MultiDagResult:
    """Execute several dags against one worker stream.

    ``policies[k]`` manages user *k*'s eligible pool (fresh instances).
    Unserved workers are lost, as in the single-dag model; churn/rollover
    are not supported here.
    """
    if len(dags) != len(policies) or not dags:
        raise ValueError("need one policy per dag and at least one dag")
    if params.failure_prob or params.rollover:
        raise ValueError("shared simulation supports the basic model only")
    compiled = [as_compiled(d) for d in dags]
    k = len(compiled)
    children = [c.child_lists() for c in compiled]
    remaining = [c.indegree.copy() for c in compiled]
    for user, c in enumerate(compiled):
        for u in range(c.n):
            if remaining[user][u] == 0:
                policies[user].push(u)

    arrivals = BatchArrivals(
        params.mu_bit, params.mu_bs, rng, size_dist=params.batch_size_dist
    )
    runtimes = RuntimeSampler(
        rng, mean=params.runtime_mean, std=params.runtime_std
    )

    total = sum(c.n for c in compiled)
    executed_total = 0
    assigned = [0] * k
    executed = [0] * k
    completion_time = [0.0] * k
    completions: list[tuple[float, int, int]] = []  # (time, user, job)
    batches = 0
    requests = 0
    makespan = 0.0
    cursor = 0  # round-robin pointer across users

    while executed_total < total:
        all_assigned = all(assigned[u] == compiled[u].n for u in range(k))
        if not all_assigned:
            batch_time = arrivals.peek_time()
            if completions and completions[0][0] <= batch_time:
                executed_total += _complete(
                    completions, children, remaining, policies,
                    executed, completion_time,
                )
                continue
            t, b = arrivals.next_batch()
            batches += 1
            requests += b

            def serve(user: int, job: int) -> None:
                nonlocal makespan
                finish = t + runtimes.draw_one()
                if finish > makespan:
                    makespan = finish
                heapq.heappush(completions, (finish, user, job))
                assigned[user] += 1

            _, cursor = _round_robin_serve(policies, b, cursor, serve)
        else:
            executed_total += _complete(
                completions, children, remaining, policies,
                executed, completion_time,
            )

    users = tuple(
        UserResult(
            user=u, n_jobs=compiled[u].n, completion_time=completion_time[u]
        )
        for u in range(k)
    )
    return MultiDagResult(
        users=users,
        total_batches=batches,
        total_requests=requests,
        makespan=makespan,
    )


def _round_robin_serve(policies, capacity, cursor, serve):
    """Round-robin up to *capacity* jobs across users, starting at *cursor*.

    Each rotation hands at most one job per user with eligible work; *serve*
    is called with ``(user, job)`` for every assignment.  Returns
    ``(served, new_cursor)`` where ``new_cursor`` is one past the last user
    actually served — so the next batch resumes the rotation where this one
    left off instead of drifting back toward low-indexed users (the cursor
    previously advanced by only one per rotation, which systematically
    favoured early users whenever a batch was exhausted mid-rotation).
    ``cursor`` is unchanged when nobody has eligible work.
    """
    k = len(policies)
    served = 0
    while served < capacity:
        progress = False
        start = cursor
        for step in range(k):
            if served >= capacity:
                break
            user = (start + step) % k
            if len(policies[user]) == 0:
                continue
            serve(user, policies[user].pop())
            served += 1
            progress = True
            cursor = (user + 1) % k
        if not progress:
            break  # nobody has eligible jobs; workers lost
    return served, cursor


def _complete(completions, children, remaining, policies, executed, completion_time):
    t, user, job = heapq.heappop(completions)
    executed[user] += 1
    if t > completion_time[user]:
        completion_time[user] = t
    for v in children[user][job]:
        remaining[user][v] -= 1
        if remaining[user][v] == 0:
            policies[user].push(v)
    return 1
