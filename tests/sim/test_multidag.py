"""Tests for the shared (multi-user) simulation."""

import numpy as np
import pytest

from repro.core.prio import prio_schedule
from repro.dag.builders import chain, fork_join
from repro.sim.engine import SimParams, make_policy
from repro.sim.multidag import simulate_shared
from repro.workloads.airsn import airsn


def params(**kw):
    return SimParams(**{"mu_bit": 1.0, "mu_bs": 8.0, **kw})


def run(dags, kinds_orders, seed=0, **params_kw):
    rng = np.random.default_rng(seed)
    policies = [
        make_policy(kind, order=order, rng=rng) for kind, order in kinds_orders
    ]
    return simulate_shared(dags, policies, params(**params_kw), rng)


class TestBasics:
    def test_all_users_finish(self):
        result = run(
            [fork_join(4), chain(3)],
            [("fifo", None), ("fifo", None)],
        )
        assert result.users[0].n_jobs == 6
        assert result.users[1].n_jobs == 3
        assert all(u.completion_time > 0 for u in result.users)
        assert result.makespan == max(u.completion_time for u in result.users)

    def test_single_user_works(self):
        result = run([chain(4)], [("fifo", None)])
        assert result.users[0].completion_time > 3

    def test_deterministic(self):
        a = run([fork_join(5), chain(4)], [("fifo", None), ("fifo", None)], seed=3)
        b = run([fork_join(5), chain(4)], [("fifo", None), ("fifo", None)], seed=3)
        assert a == b

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one policy per dag"):
            simulate_shared([chain(2)], [], params(), rng)
        with pytest.raises(ValueError, match="basic model"):
            run([chain(2)], [("fifo", None)], failure_prob=0.5)
        with pytest.raises(ValueError, match="basic model"):
            run([chain(2)], [("fifo", None)], straggler_prob=0.5)


class TestContention:
    def test_contention_slows_both(self):
        d1, d2 = fork_join(10), fork_join(10)
        alone = run([d1], [("fifo", None)], seed=5, mu_bs=4.0)
        shared = run(
            [d1, d2], [("fifo", None), ("fifo", None)], seed=5, mu_bs=4.0
        )
        assert (
            shared.users[0].completion_time >= alone.users[0].completion_time
        )

    def test_round_robin_is_roughly_fair(self):
        # Two identical dags with identical policies finish close together.
        d = fork_join(20)
        times = []
        for seed in range(6):
            result = run(
                [d, d], [("fifo", None), ("fifo", None)], seed=seed, mu_bs=4.0
            )
            times.append(
                result.users[0].completion_time
                - result.users[1].completion_time
            )
        assert abs(np.mean(times)) < 3.0

    def test_prio_still_helps_under_contention(self):
        """Prioritizing my dag helps even with a FIFO competitor."""
        mine = airsn(25)
        competitor = fork_join(40)
        order = prio_schedule(mine).schedule
        prio_t, fifo_t = [], []
        for seed in range(12):
            with_prio = run(
                [mine, competitor],
                [("oblivious", order), ("fifo", None)],
                seed=seed,
                mu_bs=6.0,
            )
            with_fifo = run(
                [mine, competitor],
                [("fifo", None), ("fifo", None)],
                seed=seed,
                mu_bs=6.0,
            )
            prio_t.append(with_prio.users[0].completion_time)
            fifo_t.append(with_fifo.users[0].completion_time)
        assert np.mean(prio_t) < np.mean(fifo_t)


class TestRoundRobinCursor:
    """Regression: the round-robin cursor used to advance by only one per
    rotation, so a batch exhausted mid-rotation restarted service near the
    low-indexed users instead of one past the last user served."""

    @staticmethod
    def pool(k, jobs_each):
        from repro.sim.multidag import _RoundRobinPolicy
        from repro.sim.policies import FifoPolicy

        offsets = [user * jobs_each for user in range(k + 1)]
        pool = _RoundRobinPolicy([FifoPolicy() for _ in range(k)], offsets)
        for job in range(k * jobs_each):
            pool.push(job)
        return pool

    @staticmethod
    def serve(pool, capacity, jobs_each):
        """One batch as the engine serves it: ``min(capacity, eligible)``
        pops; returns the user of each assignment."""
        take = min(capacity, len(pool))
        return [pool.pop() // jobs_each for _ in range(take)]

    def test_cursor_resumes_one_past_last_served(self):
        pool = self.pool(3, jobs_each=10)
        assert self.serve(pool, 2, 10) == [0, 1]
        assert pool.cursor == 2  # one past user 1, not cursor+1 == 1
        assert self.serve(pool, 2, 10) == [2, 0]
        assert pool.cursor == 1

    def test_successive_batches_cover_users_evenly(self):
        pool = self.pool(3, jobs_each=30)
        counts = [0, 0, 0]
        for _ in range(15):  # 15 batches of 2 over 3 users
            for user in self.serve(pool, 2, 30):
                counts[user] += 1
        assert counts == [10, 10, 10]

    def test_multi_rotation_batch(self):
        pool = self.pool(3, jobs_each=10)
        assert self.serve(pool, 4, 10) == [0, 1, 2, 0]
        assert pool.cursor == 1

    def test_skips_empty_users_and_stops_when_dry(self):
        pool = self.pool(3, jobs_each=1)
        pool.cursor = 1
        assert self.serve(pool, 10, 1) == [1, 2, 0]
        assert pool.cursor == 1  # one past user 0
        assert self.serve(pool, 5, 1) == []
        assert pool.cursor == 1  # nobody eligible: unchanged
        with pytest.raises(IndexError):
            pool.pop()
        assert pool.cursor == 1
