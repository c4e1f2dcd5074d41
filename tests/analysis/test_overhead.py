"""Tests for the Sec. 3.6 overhead measurement."""

from repro.analysis.overhead import (
    measure_overhead,
    render_overhead_table,
)
from repro.core.prio import prio_schedule
from repro.workloads.airsn import airsn


class TestMeasureOverhead:
    def test_record_fields(self):
        record, result = measure_overhead(airsn(10), "airsn-10")
        assert record.workload == "airsn-10"
        assert record.n_jobs == airsn(10).n
        assert record.seconds > 0
        assert record.peak_mb > 0
        assert record.n_components == result.decomposition.n_components

    def test_result_matches_prio_schedule(self):
        _, result = measure_overhead(airsn(10), "airsn-10")
        assert result.priorities == prio_schedule(airsn(10)).priorities

    def test_table_rendering(self):
        r1, _ = measure_overhead(airsn(5), "tiny")
        text = render_overhead_table([r1])
        assert "Sec. 3.6" in text
        assert "tiny" in text and "jobs" in text
