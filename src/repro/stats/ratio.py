"""Confidence intervals for PRIO/FIFO metric ratios (Sec. 4.2).

Given empirical sampling distributions ``s_PRIO`` (p samples) and
``s_FIFO`` (p samples) of a metric's mean, the paper forms all ``p**2``
pairwise ratios ``x / y``, removes the 2.5% smallest and 2.5% largest
values, and reports the surviving range as a 95% confidence interval, plus
the mean, standard deviation and median of the ratio distribution.

When any denominator sample is zero the paper reports no interval (the
stalling probability is often exactly zero in easy regimes);
:func:`ratio_statistics` returns ``None`` in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RatioStatistics", "ratio_statistics", "trimmed_interval"]


@dataclass(frozen=True)
class RatioStatistics:
    """Summary of the empirical ratio distribution num/den."""

    mean: float
    std: float
    median: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95

    def interval_below(self, threshold: float) -> bool:
        """True when the whole CI lies strictly below *threshold* — e.g.
        'PRIO at least 13% faster with 95% confidence' is
        ``interval_below(0.87)`` for the execution-time ratio."""
        return self.ci_high < threshold

    def __str__(self) -> str:
        return (
            f"median={self.median:.4f} mean={self.mean:.4f} "
            f"[{self.ci_low:.4f}, {self.ci_high:.4f}]@{self.confidence:.0%}"
        )


def trimmed_interval(
    values: np.ndarray, confidence: float = 0.95
) -> tuple[float, float]:
    """The paper's trimming rule: drop ``(1-confidence)/2`` from each tail
    and return the surviving range."""
    values = np.sort(np.asarray(values, dtype=np.float64).ravel())
    m = values.size
    if m == 0:
        raise ValueError("no values to trim")
    cut = int(np.floor(m * (1.0 - confidence) / 2.0))
    kept = values[cut: m - cut] if m - 2 * cut > 0 else values[m // 2: m // 2 + 1]
    return float(kept[0]), float(kept[-1])


def ratio_statistics(
    numerator_samples: np.ndarray,
    denominator_samples: np.ndarray,
    confidence: float = 0.95,
) -> RatioStatistics | None:
    """Statistics of the empirical ratio distribution.

    Returns ``None`` when a denominator sample is zero (no interval is
    reported, matching the paper's figures' missing segments).
    """
    num = np.asarray(numerator_samples, dtype=np.float64)
    den = np.asarray(denominator_samples, dtype=np.float64)
    if num.ndim != 1 or den.ndim != 1 or num.size == 0 or den.size == 0:
        raise ValueError("sample vectors must be non-empty and 1-D")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if np.any(den == 0.0):
        return None
    ratios = np.divide.outer(num, den).ravel()
    lo, hi = trimmed_interval(ratios, confidence)
    return RatioStatistics(
        mean=float(ratios.mean()),
        std=float(ratios.std(ddof=0)),
        median=float(np.median(ratios)),
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )
