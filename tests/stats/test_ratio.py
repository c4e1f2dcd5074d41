"""Tests for ratio confidence intervals."""

import numpy as np
import pytest

from repro.stats.ratio import RatioStatistics, ratio_statistics, trimmed_interval


class TestTrimmedInterval:
    def test_drops_tails(self):
        values = np.arange(100.0)
        lo, hi = trimmed_interval(values, confidence=0.95)
        assert lo == 2.0 and hi == 97.0

    def test_full_range_at_confidence_one_minus_eps(self):
        values = np.array([1.0, 2.0, 3.0])
        lo, hi = trimmed_interval(values, confidence=0.999)
        assert lo == 1.0 and hi == 3.0

    def test_single_value(self):
        assert trimmed_interval(np.array([5.0])) == (5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimmed_interval(np.array([]))


class TestRatioStatistics:
    def test_identical_samples_give_unit_ratio(self):
        s = np.full(10, 3.0)
        stats = ratio_statistics(s, s)
        assert stats.median == 1.0
        assert stats.ci_low == 1.0 and stats.ci_high == 1.0

    def test_scaling(self):
        num = np.full(10, 2.0)
        den = np.full(10, 4.0)
        stats = ratio_statistics(num, den)
        assert stats.mean == pytest.approx(0.5)

    def test_all_pairs_used(self):
        num = np.array([1.0, 2.0])
        den = np.array([1.0, 2.0])
        stats = ratio_statistics(num, den, confidence=0.999)
        # ratios: 1, .5, 2, 1
        assert stats.ci_low == 0.5 and stats.ci_high == 2.0
        assert stats.mean == pytest.approx(1.125)

    def test_zero_denominator_gives_none(self):
        num = np.ones(5)
        den = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        assert ratio_statistics(num, den) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ratio_statistics(np.array([]), np.ones(3))
        with pytest.raises(ValueError):
            ratio_statistics(np.ones(3), np.ones(3), confidence=1.5)

    def test_interval_predicates(self):
        stats = RatioStatistics(
            mean=0.8, std=0.05, median=0.8, ci_low=0.7, ci_high=0.85
        )
        assert stats.interval_below(0.87)  # the paper's 13% claim shape
        assert not stats.interval_below(0.8)

    def test_str(self):
        stats = RatioStatistics(0.8, 0.05, 0.79, 0.7, 0.9)
        text = str(stats)
        assert "median=0.79" in text and "95%" in text

    def test_interval_matches_percentiles(self):
        # The paper's trimming is a percentile interval of the empirical
        # ratio distribution; check against numpy percentiles directly.
        rng = np.random.default_rng(0)
        num = rng.normal(10, 1, size=80)
        den = rng.normal(10, 1, size=80)
        stats = ratio_statistics(num, den)
        ratios = np.divide.outer(num, den).ravel()
        assert stats.ci_low == pytest.approx(
            np.percentile(ratios, 2.5), rel=0.01
        )
        assert stats.ci_high == pytest.approx(
            np.percentile(ratios, 97.5), rel=0.01
        )
