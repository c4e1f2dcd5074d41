"""Tests for the event-driven grid simulator."""

import numpy as np
import pytest

from repro.core.fifo import fifo_schedule
from repro.core.prio import prio_schedule
from repro.dag.builders import chain, fork_join
from repro.dag.graph import Dag
from repro.obs.metrics import MetricsRegistry
from repro.sim.compile import CompiledDag
from repro.sim.engine import SimParams, make_policy, simulate
from repro.sim.runtime import RuntimeSampler
from repro.sim.trace import ExecutionTrace


def run(dag, kind="fifo", order=None, mu_bit=1.0, mu_bs=4.0, seed=0, **kw):
    rng = np.random.default_rng(seed)
    policy = make_policy(kind, order=order, rng=rng)
    return simulate(dag, policy, SimParams(mu_bit=mu_bit, mu_bs=mu_bs, **kw), rng)


class TestBasicExecution:
    def test_all_jobs_complete(self, diamond):
        result = run(diamond)
        assert result.n_jobs == 4
        assert result.execution_time > 0

    def test_empty_dag(self):
        result = run(Dag(0, []))
        assert result.execution_time == 0.0

    def test_empty_dag_epilogue(self):
        """Regression: the zero-job early return used to skip the t=0
        trace snapshot and the run counter, so an empty dag vanished
        from telemetry."""
        trace = ExecutionTrace()
        registry = MetricsRegistry()
        result = simulate(
            Dag(0, []), make_policy("fifo"), SimParams(mu_bit=1.0, mu_bs=4.0),
            np.random.default_rng(0), trace=trace, metrics=registry,
        )
        assert result.n_jobs == 0 and result.execution_time == 0.0
        # The documented pre-assignment t=0 snapshot is still recorded.
        assert len(trace) == 1
        assert trace.times[0] == 0.0
        assert trace.eligible[0] == 0 and trace.running[0] == 0
        assert registry.snapshot()["counters"]["engine.runs"] == 1

    def test_single_job_takes_about_one(self):
        result = run(Dag(1, []))
        assert 0.5 < result.execution_time < 1.5

    def test_chain_time_scales_with_length(self):
        short = run(chain(3), mu_bit=0.01, mu_bs=4.0)
        long = run(chain(12), mu_bit=0.01, mu_bs=4.0)
        # A chain is inherently serial: ~1 unit per job.
        assert long.execution_time > short.execution_time + 5

    def test_deterministic_under_seed(self, diamond):
        a = run(diamond, seed=42)
        b = run(diamond, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        d = fork_join(6)
        a = run(d, seed=1)
        b = run(d, seed=2)
        assert a.execution_time != b.execution_time

    def test_accepts_compiled_dag(self, diamond):
        compiled = CompiledDag.from_dag(diamond)
        result = run(compiled)
        assert result.n_jobs == 4

    def test_zero_runtime_std(self, diamond):
        result = run(diamond, runtime_std=0.0, mu_bit=0.01)
        # Deterministic runtimes: diamond depth 3, so ~3 time units.
        assert result.execution_time == pytest.approx(3.0, abs=0.2)


class TestMetrics:
    def test_utilization_at_most_one(self, diamond):
        for seed in range(5):
            result = run(diamond, seed=seed)
            assert 0 < result.utilization <= 1.0

    def test_stalling_probability_in_unit_interval(self, diamond):
        for seed in range(5):
            result = run(diamond, seed=seed)
            assert 0.0 <= result.stalling_probability <= 1.0

    def test_chain_with_huge_batches_wastes_workers(self):
        # Batch of ~256 workers for a 6-job chain: utilization tiny.
        result = run(chain(6), mu_bs=256.0)
        assert result.utilization < 0.2

    def test_rare_batches_rarely_stall_on_chain(self):
        # Batches ~10 time units apart vs ~1-unit jobs: a batch stalls only
        # when its exponential gap lands under the running job's remainder
        # (probability ~ 1 - e^(-1/10) ~= 0.1).
        result = run(chain(30), mu_bit=10.0, mu_bs=1.0)
        assert result.stalling_probability < 0.4

    def test_frequent_batches_stall_on_chain(self):
        # Batches every 0.01 time units but each job takes ~1: most batches
        # find the single eligible job already assigned.
        result = run(chain(5), mu_bit=0.01, mu_bs=1.0)
        assert result.stalling_probability > 0.8

    def test_requests_counted_until_last_assignment(self, diamond):
        result = run(diamond)
        assert result.requests_until_last_assignment >= result.n_jobs
        assert result.batches_until_last_assignment >= 1

    def test_zero_metrics_properties(self):
        from repro.sim.engine import SimResult

        r = SimResult(0.0, 0, 0, 0, 0)
        assert r.stalling_probability == 0.0
        assert r.utilization == 0.0


class TestPolicyEffects:
    def test_prio_beats_fifo_on_airsn_like(self):
        from repro.workloads.airsn import airsn

        d = airsn(width=30)
        order = prio_schedule(d).schedule
        prio_times = []
        fifo_times = []
        for seed in range(12):
            prio_times.append(
                run(d, "oblivious", order=order, mu_bit=1.0, mu_bs=8.0, seed=seed).execution_time
            )
            fifo_times.append(
                run(d, "fifo", mu_bit=1.0, mu_bs=8.0, seed=seed).execution_time
            )
        assert np.mean(prio_times) < np.mean(fifo_times)

    def test_oblivious_with_fifo_order_equals_fifo_on_chain(self):
        # On a chain every policy is forced into the same order.
        d = chain(5)
        a = run(d, "oblivious", order=fifo_schedule(d), seed=3)
        b = run(d, "fifo", seed=3)
        assert a.execution_time == b.execution_time

    def test_random_policy_runs(self, diamond):
        result = run(diamond, "random")
        assert result.n_jobs == 4

    def test_make_policy_validation(self):
        with pytest.raises(ValueError, match="order"):
            make_policy("oblivious")
        with pytest.raises(ValueError, match="rng"):
            make_policy("random")
        with pytest.raises(ValueError, match="unknown"):
            make_policy("lifo")


class TestRuntimeSampler:
    def test_mean_and_std(self):
        rng = np.random.default_rng(0)
        s = RuntimeSampler(rng)
        draws = s.draw(20000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.std() == pytest.approx(0.1, abs=0.01)

    def test_all_positive(self):
        rng = np.random.default_rng(0)
        s = RuntimeSampler(rng, mean=0.01, std=1.0)
        assert (s.draw(10000) >= RuntimeSampler.FLOOR).all()

    def test_draw_one(self):
        s = RuntimeSampler(np.random.default_rng(0))
        assert isinstance(s.draw_one(), float)

    def test_zero_std_constant(self):
        s = RuntimeSampler(np.random.default_rng(0), std=0.0)
        assert (s.draw(10) == 1.0).all()

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RuntimeSampler(rng, mean=0.0)
        with pytest.raises(ValueError):
            RuntimeSampler(rng, std=-1.0)

    def test_large_draw_spans_chunks(self):
        s = RuntimeSampler(np.random.default_rng(0), chunk=16)
        assert s.draw(100).shape == (100,)


class TestCompiledDag:
    def test_adjacency_matches(self, fig3_dag):
        c = CompiledDag.from_dag(fig3_dag)
        lists = c.child_lists()
        for u in range(fig3_dag.n):
            assert lists[u] == list(fig3_dag.children(u))
        assert c.indegree.tolist() == [
            fig3_dag.in_degree(u) for u in range(fig3_dag.n)
        ]


class TestSimParamsValidation:
    """Regression: invalid runtime/arrival parameters used to be accepted
    at construction and only blow up (or silently misbehave) deep inside a
    run — or inside a worker process under ``jobs=N``."""

    def test_valid_defaults_accepted(self):
        SimParams(mu_bit=1.0, mu_bs=1.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(mu_bit=0.0, mu_bs=4.0), "mu_bit"),
            (dict(mu_bit=-1.0, mu_bs=4.0), "mu_bit"),
            (dict(mu_bit=1.0, mu_bs=0.5), "mu_bs"),
            (dict(mu_bit=1.0, mu_bs=4.0, runtime_mean=0.0), "runtime_mean"),
            (dict(mu_bit=1.0, mu_bs=4.0, runtime_mean=-2.0), "runtime_mean"),
            (dict(mu_bit=1.0, mu_bs=4.0, runtime_std=-0.1), "runtime_std"),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SimParams(**kwargs)

    def test_zero_runtime_std_still_allowed(self):
        SimParams(mu_bit=1.0, mu_bs=4.0, runtime_std=0.0)
