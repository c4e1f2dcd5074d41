"""Statistics substrate: sampling distributions and ratio confidence intervals."""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".ratio": ("RatioStatistics", "ratio_statistics", "trimmed_interval"),
    ".sampling": ("sampling_distribution_from_values",),
    ".tests": ("SignTestResult", "sign_test"),
})

__all__ = [
    "RatioStatistics",
    "SignTestResult",
    "sign_test",
    "ratio_statistics",
    "sampling_distribution_from_values",
    "trimmed_interval",
]
