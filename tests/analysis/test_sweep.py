"""Tests for the ratio sweep harness."""

import numpy as np
import pytest

from repro.analysis.report import render_sweep
from repro.analysis.sweep import (
    METRICS,
    SweepConfig,
    paper_grid,
    quick_grid,
    ratio_sweep,
)
from repro.core.prio import prio_schedule
from repro.workloads.airsn import airsn


@pytest.fixture(scope="module")
def tiny_sweep():
    dag = airsn(12)
    order = prio_schedule(dag).schedule
    config = SweepConfig(mu_bits=(1.0,), mu_bss=(2.0, 8.0), p=6, q=2, seed=1)
    return ratio_sweep(dag, order, config, "airsn-12")


class TestGrids:
    def test_paper_grid_dimensions(self):
        mu_bits, mu_bss = paper_grid()
        assert len(mu_bits) == 7 and len(mu_bss) == 17
        assert mu_bits[0] == 1e-3 and mu_bits[-1] == 1e3
        assert mu_bss[0] == 1 and mu_bss[-1] == 65536

    def test_quick_grid_subset_of_regimes(self):
        mu_bits, mu_bss = quick_grid()
        assert min(mu_bits) < 1 < max(mu_bits)
        assert min(mu_bss) == 1

    def test_paper_config(self):
        cfg = SweepConfig.paper()
        assert cfg.p == 300 and cfg.q == 300
        assert len(cfg.mu_bits) == 7

    def test_paper_config_overrides(self):
        cfg = SweepConfig.paper(p=5)
        assert cfg.p == 5 and cfg.q == 300


class TestRatioSweep:
    def test_cell_count(self, tiny_sweep):
        assert len(tiny_sweep.cells) == 2

    def test_all_metrics_present(self, tiny_sweep):
        for cell in tiny_sweep.cells:
            assert set(cell.ratios) == set(METRICS)

    def test_cell_lookup(self, tiny_sweep):
        cell = tiny_sweep.cell(1.0, 8.0)
        assert cell.mu_bs == 8.0
        with pytest.raises(KeyError):
            tiny_sweep.cell(2.0, 8.0)

    def test_execution_ratio_is_positive(self, tiny_sweep):
        for cell in tiny_sweep.cells:
            stats = cell.ratios["execution_time"]
            assert stats is not None and stats.median > 0

    def test_best_cell(self, tiny_sweep):
        best = tiny_sweep.best_cell()
        medians = [
            c.ratios["execution_time"].median for c in tiny_sweep.cells
        ]
        assert best.ratios["execution_time"].median == min(medians)

    def test_reproducible(self):
        dag = airsn(8)
        order = prio_schedule(dag).schedule
        cfg = SweepConfig(mu_bits=(1.0,), mu_bss=(4.0,), p=4, q=2, seed=9)
        a = ratio_sweep(dag, order, cfg, "x")
        b = ratio_sweep(dag, order, cfg, "x")
        sa = a.cells[0].ratios["execution_time"]
        sb = b.cells[0].ratios["execution_time"]
        assert sa.median == sb.median and sa.ci_low == sb.ci_low

    def test_paired_streams_reduce_variance(self):
        dag = airsn(20)
        order = prio_schedule(dag).schedule
        base = dict(mu_bits=(1.0,), mu_bss=(8.0,), p=10, q=2, seed=4)
        independent = ratio_sweep(
            dag, order, SweepConfig(**base), "x"
        ).cells[0].ratios["execution_time"]
        paired = ratio_sweep(
            dag, order, SweepConfig(**base, paired=True), "x"
        ).cells[0].ratios["execution_time"]
        width_ind = independent.ci_high - independent.ci_low
        width_pair = paired.ci_high - paired.ci_low
        assert width_pair < width_ind

    def test_progress_callback(self):
        dag = airsn(6)
        order = prio_schedule(dag).schedule
        cfg = SweepConfig(mu_bits=(1.0,), mu_bss=(2.0,), p=2, q=1)
        calls = []
        ratio_sweep(
            dag, order, cfg, "x", progress=lambda d, t: calls.append((d, t))
        )
        assert calls == [(1, 1)]


class TestFailureAndLiveSweeps:
    def test_failure_params_reach_the_cells(self):
        dag = airsn(8)
        order = prio_schedule(dag).schedule
        base = dict(mu_bits=(1.0,), mu_bss=(4.0,), p=6, q=2, seed=7)
        clean = ratio_sweep(dag, order, SweepConfig(**base), "x")
        churned = ratio_sweep(
            dag, order, SweepConfig(**base, failure_prob=0.4), "x"
        )
        r_clean = clean.cells[0].ratios["execution_time"]
        r_churned = churned.cells[0].ratios["execution_time"]
        # Same seeds, different model: churn must actually change the
        # sampled ratios, or the knob never reached the cells.
        assert r_clean.mean != r_churned.mean

    def test_live_sweep_matches_static_without_failures(self):
        """With no failures, a PRIO-live session completes jobs in an
        order whose every remnant re-prioritization is consistent with
        the static PRIO schedule — the sweep runs and produces finite
        ratios under common random numbers."""
        dag = airsn(8)
        order = prio_schedule(dag).schedule
        base = dict(mu_bits=(1.0,), mu_bss=(4.0,), p=6, q=2, seed=7)
        live = ratio_sweep(
            dag, order, SweepConfig(**base, policy="prio-live"), "x"
        )
        ratio = live.cells[0].ratios["execution_time"]
        assert np.isfinite(ratio.median) and ratio.median > 0

    def test_live_sweep_with_failures_runs(self):
        dag = airsn(8)
        order = prio_schedule(dag).schedule
        cfg = SweepConfig(
            mu_bits=(1.0,), mu_bss=(4.0,), p=6, q=2, seed=7,
            policy="prio-live", failure_prob=0.3, straggler_prob=0.2,
        )
        result = ratio_sweep(dag, order, cfg, "x")
        ratio = result.cells[0].ratios["execution_time"]
        assert np.isfinite(ratio.median) and ratio.median > 0

    def test_live_sweep_runs_on_compiled_dag(self):
        from repro.sim.compile import CompiledDag

        dag = airsn(8)
        order = prio_schedule(dag).schedule
        cfg = SweepConfig(mu_bits=(1.0,), mu_bss=(4.0,), p=2, q=2,
                          policy="prio-live")
        compiled = ratio_sweep(CompiledDag.from_dag(dag), order, cfg, "x")
        assert render_sweep(compiled) == render_sweep(
            ratio_sweep(dag, order, cfg, "x")
        )
