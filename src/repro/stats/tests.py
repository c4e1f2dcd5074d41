"""Significance test for paired PRIO-vs-FIFO comparisons (extension).

The paper reports trimmed ratio CIs; :func:`sign_test` adds a standard
distribution-free check, the exact binomial sign test on paired
measurements, used when claiming "PRIO is faster with confidence".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = ["SignTestResult", "sign_test"]


@dataclass(frozen=True)
class SignTestResult:
    """Outcome of the paired sign test."""

    n_pairs: int
    n_wins: int  # pairs where the first sample is strictly smaller
    n_ties: int
    p_value: float  # one-sided: P[wins >= observed | p = 1/2]


def sign_test(first: np.ndarray, second: np.ndarray) -> SignTestResult:
    """One-sided sign test that *first* tends to be smaller than *second*.

    Ties are discarded (the standard treatment).  Exact binomial tail, no
    normal approximation — fine at the sample sizes used here.
    """
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need two equal-length non-empty 1-D samples")
    wins = int((a < b).sum())
    ties = int((a == b).sum())
    m = a.size - ties
    if m == 0:
        return SignTestResult(a.size, wins, ties, 1.0)
    tail = sum(comb(m, k) for k in range(wins, m + 1)) / 2.0 ** m
    return SignTestResult(a.size, wins, ties, float(tail))

