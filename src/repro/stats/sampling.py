"""Empirical sampling distributions (Sec. 4.2 methodology).

A *sampling distribution* of a mean is built by taking ``p`` samples, each
the average of ``q`` independent measurements.  The paper follows Cohen's
recommendation of p ~ 300 and q ~ 50 (raised to q = 300 to narrow the
intervals); those are expensive, so the functions take p and q explicitly
and the callers default to laptop-scale values (see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

__all__ = ["sampling_distribution_from_values"]


def sampling_distribution_from_values(
    values: np.ndarray, p: int, q: int
) -> np.ndarray:
    """Fold ``p*q`` raw measurements into ``p`` means of ``q`` each.

    ``values`` must have exactly ``p*q`` entries, laid out replication-major
    (the first q entries form sample 0, and so on).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size != p * q:
        raise ValueError(
            f"expected {p * q} measurements for p={p}, q={q}; got {values.size}"
        )
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    return values.reshape(p, q).mean(axis=1)

