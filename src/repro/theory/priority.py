"""The priority relations between building blocks (Steps 4-5).

For blocks ``C_i`` and ``C_j`` with schedules that run all non-sinks before
any sink, let ``E_i(x)`` be the eligibility profile of ``C_i`` after *x* of
its ``s_i`` non-sinks executed (:func:`repro.theory.eligibility.partial_profile`).

**Exact relation** (eq. 1): ``C_i >= C_j`` ("C_i has priority over C_j")
when for every split ``x + y`` of executed non-sinks between the two blocks::

    E_i(x) + E_j(y)  <=  E_i(min(s_i, x+y)) + E_j((x+y) - min(s_i, x+y))

i.e. pouring all execution into ``C_i`` first is never worse.

**Quantitative relation**: ``C_i >=_r C_j`` relaxes the inequality by a
factor ``r`` on the left; the *priority of C_i over C_j* is the largest such
``r`` — equivalently the minimum over all (x, y) of RHS/LHS.  It always lies
in [0, 1] because the split ``(min(s_i, x+y), rest)`` itself achieves ratio 1.

The computation is vectorized: ``RHS`` depends only on the total ``x+y``,
and ``max LHS`` per total is an anti-diagonal maximum of the outer sum of
the two profiles.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "priority_over",
    "has_priority",
]


def _as_profile(profile: Sequence[int]) -> np.ndarray:
    arr = np.asarray(profile, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("profile must be a 1-D sequence with E(0)")
    if (arr < 0).any():
        raise ValueError("eligibility counts cannot be negative")
    return arr


def priority_over(profile_i: Sequence[int], profile_j: Sequence[int]) -> float:
    """The priority of block *i* over block *j*: the largest r with
    ``C_i >=_r C_j``.

    ``profile_k[x]`` is the eligible count in block *k* after *x* of its
    non-sinks executed (length ``s_k + 1``).
    """
    a = _as_profile(profile_i)
    b = _as_profile(profile_j)
    sa = a.size - 1
    # RHS(total): all execution goes to block i first, overflow to block j.
    totals = np.arange(a.size + b.size - 1)
    into_i = np.minimum(totals, sa)
    rhs = a[into_i] + b[totals - into_i]
    # max LHS(total): anti-diagonal maxima of the outer sum a[x] + b[y].
    lhs = _antidiagonal_max(a, b)
    # LHS >= RHS > 0 is not guaranteed pointwise in degenerate cases (empty
    # blocks); treat zero LHS as imposing no constraint.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs > 0, rhs / lhs, np.inf)
    r = float(ratios.min(initial=np.inf))
    if not np.isfinite(r):
        return 1.0
    return min(r, 1.0)


def _antidiagonal_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[s] = max over x+y == s of a[x] + b[y]``.

    Row *x* of a skewed ``(la, la + lb - 1)`` buffer holds ``a[x] + b``
    shifted right by *x*, written through one strided view whose row
    stride is one element longer than the buffer's; every other cell is
    ``-inf``, so the column maxima are the anti-diagonal maxima.  The sum
    is symmetric, so the shorter operand gives the rows.
    """
    if a.size > b.size:
        a, b = b, a
    la, lb = a.size, b.size
    skewed = np.full((la, la + lb - 1), -np.inf)
    row, item = skewed.strides
    rows = np.lib.stride_tricks.as_strided(
        skewed, shape=(la, lb), strides=(row + item, item)
    )
    np.add(a[:, None], b, out=rows)
    return skewed.max(axis=0)


def has_priority(profile_i: Sequence[int], profile_j: Sequence[int]) -> bool:
    """The exact relation ``C_i >= C_j`` of eq. (1) (r = 1 exactly)."""
    return priority_over(profile_i, profile_j) >= 1.0 - 1e-12
