"""Tests for the paired sign test."""

import numpy as np
import pytest

from repro.stats.tests import sign_test


class TestSignTest:
    def test_clear_winner(self):
        first = np.arange(10.0)
        second = first + 1.0
        result = sign_test(first, second)
        assert result.n_wins == 10 and result.n_ties == 0
        assert result.p_value == pytest.approx(2.0 ** -10)
        assert result.p_value < 0.05

    def test_no_effect(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        result = sign_test(a, b)
        assert result.p_value > 0.01

    def test_ties_discarded(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 3.0, 4.0])
        result = sign_test(a, b)
        assert result.n_ties == 1
        assert result.n_wins == 2
        # 2 wins of 2 effective pairs: p = 1/4
        assert result.p_value == pytest.approx(0.25)

    def test_all_ties(self):
        a = np.ones(5)
        result = sign_test(a, a)
        assert result.p_value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sign_test(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            sign_test(np.array([]), np.array([]))

    def test_exact_binomial(self):
        # 7 wins of 10: tail = sum_{k>=7} C(10,k)/2^10 = 176/1024
        a = np.zeros(10)
        b = np.array([1.0] * 7 + [-1.0] * 3)
        assert sign_test(a, b).p_value == pytest.approx(176 / 1024)

