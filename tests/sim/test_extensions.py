"""Tests for the extended grid model: churn, rollover, traces.

These model features are the ones the paper's Sec. 4.1 scopes out and its
conclusions call for ("a more comprehensive model that explicitly models a
worker temporarily quitting the computation ... is beyond the scope of
this paper").
"""

import numpy as np
import pytest

from repro.core.prio import prio_schedule
from repro.dag.builders import chain, fork_join
from repro.dag.graph import Dag
from repro.sim.engine import SimParams, make_policy, simulate
from repro.sim.trace import ExecutionTrace
from repro.workloads.airsn import airsn


def run(dag, kind="fifo", order=None, seed=0, trace=None, **params_kw):
    rng = np.random.default_rng(seed)
    policy = make_policy(kind, order=order, rng=rng)
    params = SimParams(**{"mu_bit": 1.0, "mu_bs": 4.0, **params_kw})
    return simulate(dag, policy, params, rng, trace=trace)


class TestWorkerChurn:
    def test_all_jobs_still_complete(self):
        result = run(fork_join(8), failure_prob=0.3, seed=1)
        assert result.n_jobs == 10
        assert result.n_failures > 0

    def test_failures_zero_by_default(self, diamond):
        assert run(diamond).n_failures == 0

    def test_churn_slows_execution(self):
        d = fork_join(20)
        clean = np.mean([run(d, seed=s).execution_time for s in range(8)])
        churned = np.mean(
            [
                run(d, failure_prob=0.4, seed=s).execution_time
                for s in range(8)
            ]
        )
        assert churned > clean

    def test_heavy_churn_on_chain(self):
        # Serial chain with 50% churn: every job is retried ~once.
        result = run(chain(10), failure_prob=0.5, seed=3)
        assert result.n_failures >= 3
        assert result.execution_time > 10

    def test_failure_count_deterministic(self):
        a = run(fork_join(10), failure_prob=0.25, seed=9)
        b = run(fork_join(10), failure_prob=0.25, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_prob"):
            SimParams(mu_bit=1.0, mu_bs=1.0, failure_prob=1.0)
        with pytest.raises(ValueError, match="fraction"):
            SimParams(mu_bit=1.0, mu_bs=1.0, failure_time_fraction=0.0)

    def test_requests_still_counted_to_last_assignment(self):
        result = run(fork_join(8), failure_prob=0.3, seed=2)
        # With retries the denominator can only grow.
        assert result.requests_until_last_assignment >= result.n_jobs


class TestStragglers:
    def test_stragglers_zero_by_default(self, diamond):
        assert run(diamond).n_stragglers == 0

    def test_stragglers_counted_and_deterministic(self):
        a = run(fork_join(12), straggler_prob=0.5, seed=5)
        b = run(fork_join(12), straggler_prob=0.5, seed=5)
        assert a == b
        assert a.n_stragglers > 0
        assert a.n_jobs == 14

    def test_stragglers_slow_execution(self):
        d = fork_join(20)
        clean = np.mean([run(d, seed=s).execution_time for s in range(8)])
        slowed = np.mean(
            [
                run(d, straggler_prob=0.3, straggler_factor=20.0,
                    seed=s).execution_time
                for s in range(8)
            ]
        )
        assert slowed > clean

    def test_injection_is_rng_neutral_when_off(self):
        """straggler_prob=0 must not perturb the draw stream: results
        with the feature compiled in but disabled are byte-identical to
        the historical engine (the same contract failure_prob keeps)."""
        explicit = run(fork_join(10), failure_prob=0.2, seed=4,
                       straggler_prob=0.0)
        implicit = run(fork_join(10), failure_prob=0.2, seed=4)
        assert explicit == implicit

    def test_composes_with_churn(self):
        result = run(
            chain(8), failure_prob=0.4, straggler_prob=0.4, seed=6
        )
        assert result.n_failures > 0
        assert result.n_stragglers > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="straggler_prob"):
            SimParams(mu_bit=1.0, mu_bs=1.0, straggler_prob=1.0)
        with pytest.raises(ValueError, match="straggler_factor"):
            SimParams(mu_bit=1.0, mu_bs=1.0, straggler_factor=0.5)


class TestRollover:
    def test_rollover_never_slower(self):
        # Waiting workers can only help relative to losing them.
        d = airsn(15)
        lost = np.mean(
            [run(d, mu_bit=2.0, mu_bs=4.0, seed=s).execution_time for s in range(8)]
        )
        kept = np.mean(
            [
                run(d, mu_bit=2.0, mu_bs=4.0, rollover=True, seed=s).execution_time
                for s in range(8)
            ]
        )
        assert kept <= lost * 1.02

    def test_rollover_serves_at_completions(self):
        # A chain with rare huge batches: rolled-over workers pick each
        # next job up immediately at the previous completion, so the chain
        # needs only ~1 batch.
        result = run(
            chain(6), mu_bit=100.0, mu_bs=64.0, rollover=True, seed=0
        )
        assert result.execution_time < 10.0
        without = run(chain(6), mu_bit=100.0, mu_bs=64.0, seed=0)
        assert without.execution_time > result.execution_time

    def test_rollover_with_churn(self):
        result = run(
            fork_join(10), failure_prob=0.3, rollover=True, seed=4
        )
        assert result.n_jobs == 12
        assert result.n_failures > 0


class TestExecutionTrace:
    def test_records_events(self, diamond):
        trace = ExecutionTrace()
        run(diamond, trace=trace)
        assert len(trace) > 0
        assert trace.times.shape == trace.eligible.shape

    def test_times_non_decreasing(self):
        trace = ExecutionTrace()
        run(airsn(10), trace=trace)
        assert (np.diff(trace.times) >= 0).all()

    def test_executed_monotone_and_complete(self):
        d = airsn(10)
        trace = ExecutionTrace()
        run(d, trace=trace)
        assert (np.diff(trace.executed) >= 0).all()
        assert trace.executed[-1] == d.n

    def test_prio_keeps_bigger_pool_than_fifo(self):
        # The paper's core intuition, observed live in the simulator.  In
        # the theory a job stays *eligible* until its result returns, so
        # the theory's pool is eligible-unassigned + running; PRIO should
        # keep that pool (equivalently, achieved parallelism) higher.
        d = airsn(40)
        order = prio_schedule(d).schedule
        pool = {}
        for name, kind, o in [("prio", "oblivious", order), ("fifo", "fifo", None)]:
            means = []
            for seed in range(10):
                trace = ExecutionTrace()
                run(d, kind, order=o, mu_bit=1.0, mu_bs=4.0, seed=seed, trace=trace)
                means.append(
                    trace.time_average("eligible")
                    + trace.time_average("running")
                )
            pool[name] = np.mean(means)
        assert pool["prio"] > pool["fifo"]

    def test_wasted_counts_unserved(self):
        trace = ExecutionTrace()
        run(chain(3), mu_bs=512.0, trace=trace)
        assert trace.wasted[-1] > 0

    def test_time_average_weighted(self):
        trace = ExecutionTrace()
        trace.record(0.0, 10, 0, 0, 0)
        trace.record(9.0, 0, 0, 0, 0)
        trace.record(10.0, 100, 0, 0, 0)
        assert trace.time_average("eligible") == pytest.approx(9.0)

    def test_peak_and_series_validation(self):
        trace = ExecutionTrace()
        trace.record(0.0, 3, 1, 0, 0)
        assert trace.peak("eligible") == 3
        with pytest.raises(KeyError):
            trace.series("latency")

    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.time_average("eligible") == 0.0
        assert trace.peak("running") == 0

    def test_starts_with_pre_assignment_snapshot(self):
        # Regression: the t=0 pre-assignment state used to be dropped, so
        # a trace never showed the initial eligible pool (all sources) and
        # peak("eligible") missed dags whose source count exceeds the
        # first batch.
        d = fork_join(8)  # 1 source fans out to 8, joined by 1 sink
        trace = ExecutionTrace()
        run(d, trace=trace)
        assert trace.times[0] == 0.0
        assert trace.eligible[0] == 1  # the single source, nothing assigned
        assert trace.running[0] == 0
        assert trace.executed[0] == 0

    def test_initial_snapshot_captures_wide_source_layer(self):
        # 30 sources, one sink: with small batches the first *recorded*
        # post-assignment state already has most sources assigned, so only
        # the pre-assignment snapshot exhibits the full pool.
        d = Dag(31, [(i, 30) for i in range(30)])
        trace = ExecutionTrace()
        run(d, mu_bs=1.0, seed=0, trace=trace)
        assert trace.eligible[0] == 30
        assert trace.peak("eligible") == 30

    def test_time_average_single_instant_uses_last_value(self):
        # Degenerate trace spanning zero time: the state at that single
        # instant is the last recorded value — not an unweighted mean of
        # everything that was ever recorded there.
        trace = ExecutionTrace()
        trace.record(5.0, 10, 0, 0, 0)
        trace.record(5.0, 2, 0, 0, 0)
        assert trace.time_average("eligible") == 2.0

    def test_time_average_single_sample(self):
        trace = ExecutionTrace()
        trace.record(3.0, 7, 0, 0, 0)
        assert trace.time_average("eligible") == 7.0

    def test_final_sample_carries_no_weight(self):
        # values[i] holds on [times[i], times[i+1]); the last sample is an
        # instant at the right edge.
        trace = ExecutionTrace()
        trace.record(0.0, 4, 0, 0, 0)
        trace.record(2.0, 1000, 0, 0, 0)
        assert trace.time_average("eligible") == 4.0


class TestRolloverTraceAndAccounting:
    def test_waiting_series_recorded_in_rollover_mode(self):
        # Regression: rollover mode never exposed the waiting pool, so the
        # trace showed wasted == 0 *and* no waiting workers — the unserved
        # requests simply vanished from observability.
        trace = ExecutionTrace()
        run(chain(6), mu_bit=100.0, mu_bs=64.0, rollover=True, seed=0,
            trace=trace)
        assert trace.waiting.max() > 0
        assert trace.wasted[-1] == 0  # rollover loses nobody

    def test_wasted_zero_only_under_rollover(self):
        kept = ExecutionTrace()
        run(chain(3), mu_bs=512.0, rollover=True, seed=1, trace=kept)
        lost = ExecutionTrace()
        run(chain(3), mu_bs=512.0, seed=1, trace=lost)
        assert kept.wasted[-1] == 0
        assert lost.wasted[-1] > 0

    def test_unserved_workers_surfaced_on_result(self):
        # A chain with huge batches: nearly the whole first batch queues
        # and is still waiting when the last job completes.
        result = run(chain(4), mu_bit=100.0, mu_bs=256.0, rollover=True,
                     seed=2)
        assert result.unserved_workers > 0

    def test_unserved_workers_zero_without_rollover(self, diamond):
        assert run(diamond, mu_bs=512.0).unserved_workers == 0

    def test_rollover_request_audit_closes(self):
        # requests = executed + wasted + still-waiting: with rollover no
        # request is lost, so the audit closes exactly when the final
        # waiting pool is surfaced.
        trace = ExecutionTrace()
        result = run(chain(5), mu_bit=50.0, mu_bs=128.0, rollover=True,
                     seed=3, trace=trace)
        # Requests counted to the last *assignment*; after it no batch is
        # taken (the chain finishes on completions), so the audit holds at
        # the snapshot.
        assert result.requests_until_last_assignment == (
            result.n_jobs + trace.wasted[-1] + result.unserved_workers
        )

    def test_waiting_default_zero_in_plain_model(self, diamond):
        trace = ExecutionTrace()
        run(diamond, trace=trace)
        assert (trace.waiting == 0).all()
