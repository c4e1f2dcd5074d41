"""Statistics substrate: sampling distributions and ratio confidence intervals."""

from .ratio import RatioStatistics, ratio_statistics, trimmed_interval
from .sampling import sampling_distribution_from_values
from .tests import SignTestResult, sign_test

__all__ = [
    "RatioStatistics",
    "SignTestResult",
    "sign_test",
    "ratio_statistics",
    "sampling_distribution_from_values",
    "trimmed_interval",
]
