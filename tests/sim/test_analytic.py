"""Cross-validation of the simulator against closed-form regimes."""

import numpy as np
import pytest

from repro.dag.builders import chain, fork_join
from repro.sim.engine import SimParams, make_policy, simulate
from repro.workloads.airsn import airsn

from .analytic import (
    chain_stall_probability,
    saturated_execution_time,
    saturated_utilization,
    sequential_execution_time,
)


def mean_over_seeds(dag, n_seeds=12, **params_kw):
    params = SimParams(**params_kw)
    times, stalls, utils = [], [], []
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        r = simulate(dag, make_policy("fifo"), params, rng)
        times.append(r.execution_time)
        stalls.append(r.stalling_probability)
        utils.append(r.utilization)
    return np.mean(times), np.mean(stalls), np.mean(utils)


class TestSequentialRegime:
    def test_chain_rare_unit_batches(self):
        d = chain(12)
        predicted = sequential_execution_time(d, mu_bit=20.0)
        measured, _, _ = mean_over_seeds(d, mu_bit=20.0, mu_bs=1.0)
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_prediction_scales_with_n(self):
        assert sequential_execution_time(chain(20), 10.0) > (
            sequential_execution_time(chain(10), 10.0) * 1.8
        )

    def test_empty(self):
        from repro.dag.graph import Dag

        assert sequential_execution_time(Dag(0, []), 5.0) == 0.0


class TestSaturatedRegime:
    def test_fork_join_bfs_depth(self):
        d = fork_join(16)
        predicted = saturated_execution_time(d)  # 3 levels
        measured, _, _ = mean_over_seeds(d, mu_bit=0.01, mu_bs=64.0)
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_airsn_depth(self):
        d = airsn(20)
        predicted = saturated_execution_time(d)  # 25 levels
        measured, _, _ = mean_over_seeds(
            d, n_seeds=6, mu_bit=0.01, mu_bs=256.0
        )
        assert measured == pytest.approx(predicted, rel=0.15)


class TestStallingRegime:
    @pytest.mark.parametrize("mu_bit", [0.1, 0.5, 1.0])
    def test_chain_stalls(self, mu_bit):
        predicted = chain_stall_probability(mu_bit)
        _, measured, _ = mean_over_seeds(
            chain(40), n_seeds=8, mu_bit=mu_bit, mu_bs=1.0
        )
        assert measured == pytest.approx(predicted, abs=0.08)

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_stall_probability(0.0)


class TestSaturatedUtilization:
    def test_fork_join(self):
        d = fork_join(16)
        predicted = saturated_utilization(d, 256.0)
        _, _, measured = mean_over_seeds(
            d, n_seeds=10, mu_bit=10.0, mu_bs=256.0
        )
        # Geometric batch sizes vary a lot; generous tolerance.
        assert measured == pytest.approx(predicted, rel=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            saturated_utilization(fork_join(2), 0.5)
