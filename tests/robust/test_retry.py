"""Tests for the fault-tolerant chunk executor.

Every recovery path — retry after a worker exception, pool rebuild after
a killed worker or a progress-deadline stall, serial degradation when the
pool is unhealthy — must deliver results bit-identical to a clean run:
chunks are pure functions of their arguments.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.robust import FaultPlan, InjectedFault, RetryPolicy
from repro.robust.retry import _invoke
from repro.sim.parallel import ParallelConfig, iter_chunk_results

PAR = ParallelConfig(jobs=2)


def square(x):
    """Module-level so it is picklable for the worker pool."""
    return x * x


def poisoned(x):
    """Fails deterministically for one argument, every attempt."""
    if x == 2:
        raise ValueError("chunk 2 is poisoned")
    return x * x


def collect(fn, tasks, **kwargs):
    return dict(iter_chunk_results(fn, tasks, PAR, **kwargs))


def tasks_for(n):
    return [(i, (i,)) for i in range(n)]


EXPECTED = {i: i * i for i in range(4)}


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"timeout": 0.0},
            {"max_pool_rebuilds": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_spec_lookup(self):
        plan = FaultPlan(
            kills={(0, 0)}, failures={(1, 1)}, delays={(2, 0): 1.5}
        )
        assert plan.spec(0, 0) == ("kill", None)
        assert plan.spec(1, 1) == ("fail", None)
        assert plan.spec(2, 0) == ("delay", 1.5)
        assert plan.spec(0, 1) is None
        assert not plan.empty
        assert FaultPlan().empty

    def test_overlapping_coordinates_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FaultPlan(kills={(0, 0)}, failures={(0, 0)})

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(delays={(0, 0): -1.0})

    def test_kill_outside_worker_raises_not_exits(self):
        # A kill fault during serial degradation must never take the
        # parent process down.
        with pytest.raises(InjectedFault):
            _invoke(square, (3,), ("kill", None), in_worker=False)

    def test_invoke_without_fault(self):
        assert _invoke(square, (3,), None) == 9


class TestRunRobustChunks:
    def test_clean_run(self):
        assert collect(square, tasks_for(4)) == EXPECTED

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            collect(square, [(0, (0,)), (0, (1,))])

    def test_fail_fault_retried(self):
        registry = MetricsRegistry()
        results = collect(
            square,
            tasks_for(4),
            faults=FaultPlan(failures={(1, 0)}),
            retry=RetryPolicy(base_delay=0.0),
            metrics=registry,
        )
        assert results == EXPECTED
        assert registry.counter("robust.retry").value == 1
        assert registry.counter("robust.pool_rebuild").value == 0

    def test_kill_fault_rebuilds_pool(self):
        registry = MetricsRegistry()
        results = collect(
            square,
            tasks_for(4),
            faults=FaultPlan(kills={(0, 0)}),
            retry=RetryPolicy(base_delay=0.0),
            metrics=registry,
        )
        assert results == EXPECTED
        assert registry.counter("robust.pool_rebuild").value == 1
        assert registry.counter("robust.retry").value >= 1

    def test_timeout_stall_rebuilds_pool(self):
        registry = MetricsRegistry()
        results = collect(
            square,
            tasks_for(3),
            faults=FaultPlan(delays={(0, 0): 2.0}),
            retry=RetryPolicy(timeout=0.25, base_delay=0.0),
            metrics=registry,
        )
        assert results == {0: 0, 1: 1, 2: 4}
        assert registry.counter("robust.timeout").value >= 1
        assert registry.counter("robust.pool_rebuild").value >= 1

    def test_exhausted_attempts_degrade_to_serial(self):
        registry = MetricsRegistry()
        results = collect(
            square,
            tasks_for(4),
            faults=FaultPlan(failures={(2, 0), (2, 1)}),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            metrics=registry,
        )
        assert results == EXPECTED
        assert registry.counter("robust.degraded_serial").value == 1

    def test_unhealthy_pool_degrades_everything_to_serial(self):
        registry = MetricsRegistry()
        results = collect(
            square,
            tasks_for(4),
            faults=FaultPlan(kills={(0, 0), (0, 1)}),
            retry=RetryPolicy(
                max_attempts=5, base_delay=0.0, max_pool_rebuilds=1
            ),
            metrics=registry,
        )
        assert results == EXPECTED
        assert registry.counter("robust.pool_rebuild").value == 2
        # Every chunk still unfinished after the second rebuild ran
        # in-process.
        assert registry.counter("robust.degraded_serial").value >= 1

    def test_poisoned_chunk_still_fails_loudly(self):
        with pytest.raises(ValueError, match="poisoned"):
            collect(
                poisoned,
                tasks_for(4),
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            )

    def test_default_policy_when_only_faults_given(self):
        assert collect(square, tasks_for(2), faults=FaultPlan()) == {0: 0, 1: 1}

    def test_abandoned_iterator_cleans_up_pool(self):
        import multiprocessing
        import time

        # Both the fail-fast loop and its retrying error path; one test
        # rather than a parametrization keeps the test id stable.
        for retry in (None, RetryPolicy()):
            gen = iter_chunk_results(square, tasks_for(4), PAR, retry=retry)
            next(gen)
            gen.close()
            deadline = time.monotonic() + 10.0
            while (
                multiprocessing.active_children()
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert not multiprocessing.active_children()
