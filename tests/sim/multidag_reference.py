"""The shared-pool event loop that ``simulate_shared`` used to run.

Kept as the oracle of :func:`repro.sim.multidag.simulate_shared`, which
now runs the same model on the reference engine.  The loop below is the
old one verbatim except for the runtime draw, which goes through
*per_batch_draws*:

* ``False`` (the old loop): one sample per assignment, as the deleted
  ``RuntimeSampler.draw_one`` drew it;
* ``True``: one block per batch, ``draw(min(batch, eligible))``, the
  engine's rule.

The two differ only when a block would cross the sampler's 4,096-sample
chunk (the engine discards the unused tail) or when a policy draws from
the simulation's generator between assignments.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sim.arrivals import BatchArrivals
from repro.sim.compile import as_compiled
from repro.sim.multidag import MultiDagResult, UserResult
from repro.sim.runtime import RuntimeSampler


def simulate_shared_reference(
    dags, policies, params, rng: np.random.Generator, *, per_batch_draws=False
) -> MultiDagResult:
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
            draw_one = _batch_draws(runtimes, policies, b, per_batch_draws)

            def serve(user: int, job: int) -> None:
                nonlocal makespan
                finish = t + draw_one()
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


def _batch_draws(runtimes, policies, capacity, per_batch):
    """The runtime source for one batch's assignments."""
    if not per_batch:
        return lambda: float(runtimes.draw(1)[0])
    take = min(capacity, sum(len(p) for p in policies))
    block = iter(runtimes.draw(take).tolist())
    return lambda: next(block)


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
