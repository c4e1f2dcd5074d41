"""Tests for the text reporting."""

import pytest

from repro.analysis.eligibility_curves import eligibility_curves
from repro.analysis.report import (
    format_ratio,
    render_curves_table,
    render_sweep,
    render_sweep_series,
)
from repro.analysis.sweep import SweepConfig, ratio_sweep
from repro.core.prio import prio_schedule
from repro.dag.builders import chain
from repro.stats.ratio import RatioStatistics
from repro.workloads.airsn import airsn


@pytest.fixture(scope="module")
def sweep_result():
    dag = airsn(8)
    order = prio_schedule(dag).schedule
    cfg = SweepConfig(mu_bits=(0.1, 1.0), mu_bss=(2.0, 8.0), p=3, q=1, seed=0)
    return ratio_sweep(dag, order, cfg, "airsn-8")


class TestFormatRatio:
    def test_none_is_dashed(self):
        assert "---" in format_ratio(None)

    def test_contains_median_and_interval(self):
        stats = RatioStatistics(0.9, 0.01, 0.88, 0.85, 0.95)
        text = format_ratio(stats)
        assert "0.880" in text and "0.850" in text and "0.950" in text


class TestRenderSweep:
    def test_sections_per_mu_bit(self, sweep_result):
        text = render_sweep(sweep_result)
        assert text.count("mu_BIT =") == 2
        assert "airsn-8" in text

    def test_rows_per_mu_bs(self, sweep_result):
        text = render_sweep(sweep_result)
        lines = [l for l in text.splitlines() if l.strip().startswith(("2 ", "8 "))]
        assert len(lines) == 4

    def test_series_rendering(self, sweep_result):
        text = render_sweep_series(sweep_result, "execution_time")
        assert "a. Ratio of expected execution time" in text
        assert text.count("mu_BIT=") == 2

    def test_series_unknown_metric(self, sweep_result):
        with pytest.raises(KeyError):
            render_sweep_series(sweep_result, "throughput")

    def test_metric_titles_match_figures(self, sweep_result):
        panels = ("execution_time", "stalling_probability", "utilization")
        for letter, metric in zip("abc", panels):
            title = render_sweep_series(sweep_result, metric).splitlines()[0]
            assert title.startswith(f"{letter}. Ratio of")


class TestRenderCurves:
    def test_one_row_per_dag(self):
        curves = [
            eligibility_curves(chain(3), "c3"),
            eligibility_curves(airsn(6), "a6"),
        ]
        text = render_curves_table(curves)
        assert "c3" in text and "a6" in text
        assert len(text.splitlines()) == 3
