"""Tests for empirical sampling distributions."""

import numpy as np
import pytest

from repro.stats.sampling import sampling_distribution_from_values


class TestFromValues:
    def test_folds_means(self):
        values = np.array([1.0, 3.0, 5.0, 7.0])
        out = sampling_distribution_from_values(values, p=2, q=2)
        assert out.tolist() == [2.0, 6.0]

    def test_q_one_is_identity(self):
        values = np.arange(5.0)
        out = sampling_distribution_from_values(values, p=5, q=1)
        assert np.array_equal(out, values)

    def test_p_one_is_grand_mean(self):
        values = np.arange(6.0)
        out = sampling_distribution_from_values(values, p=1, q=6)
        assert out.tolist() == [2.5]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="measurements"):
            sampling_distribution_from_values(np.arange(5.0), p=2, q=2)

    def test_nonpositive_pq_rejected(self):
        with pytest.raises(ValueError):
            sampling_distribution_from_values(np.array([]), p=0, q=1)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            sampling_distribution_from_values(np.ones((2, 2)), p=2, q=2)

    def test_variance_shrinks_with_q(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(0, 1, size=400)
        narrow = sampling_distribution_from_values(raw, p=10, q=40)
        wide = sampling_distribution_from_values(raw[:10], p=10, q=1)
        assert narrow.std() < wide.std()
