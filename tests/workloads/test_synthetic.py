"""Tests for the workload registry."""

import pytest

from repro.workloads.registry import PAPER_ORDER, get_workload, workload_names


class TestRegistry:
    def test_paper_order(self):
        assert PAPER_ORDER == ("airsn", "inspiral", "montage", "sdss")

    def test_all_names_resolve_small(self):
        for name in workload_names():
            if name.endswith("-small"):
                d = get_workload(name)
                assert d.n > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("seti")

    def test_small_variants_preserve_shape(self):
        a = get_workload("airsn-small")
        assert [a.label(u) for u in a.sinks()] == ["collect2"]
        m = get_workload("montage-small")
        assert "jpeg_final" in {m.label(u) for u in m.sinks()}

    @pytest.mark.slow
    def test_paper_workloads_counts(self):
        sizes = {name: get_workload(name).n for name in PAPER_ORDER}
        assert sizes == {
            "airsn": 773,
            "inspiral": 2988,
            "montage": 7881,
            "sdss": 48013,
        }
