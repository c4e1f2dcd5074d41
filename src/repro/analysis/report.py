"""Text rendering of the experiment outputs.

The benches and the CLI print the same rows/series the paper's figures
plot: per ``mu_BIT`` section, one row per ``mu_BS`` with the median and 95%
CI of each metric ratio — the textual form of Figs. 6-9 — plus compact
summaries of the Fig. 4 curves and the Sec. 3.6 overhead table.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..stats.ratio import RatioStatistics
from .eligibility_curves import EligibilityCurves
from .sweep import METRICS, SweepResult

__all__ = [
    "format_ratio",
    "render_sweep",
    "render_sweep_series",
    "render_curves_table",
]

#: Panel titles as the figures label them.
_METRIC_TITLES = {
    "execution_time": "a. Ratio of expected execution time",
    "stalling_probability": "b. Ratio of probability of stalling",
    "utilization": "c. Ratio of expected utilization",
}


def format_ratio(stats: RatioStatistics | None) -> str:
    """One cell: ``median [lo, hi]`` or the paper's missing-segment dash."""
    if stats is None:
        return "      --- (den. zero)"
    return f"{stats.median:6.3f} [{stats.ci_low:6.3f},{stats.ci_high:6.3f}]"


def _format_mu(value: float) -> str:
    if value >= 1 and float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def render_sweep(result: SweepResult) -> str:
    """Figure-style rendering: one section per mu_BIT, one row per mu_BS."""
    config = result.config
    lines = [
        f"{config.policy.upper()}/FIFO performance ratios for {result.workload} "
        f"(p={config.p}, q={config.q}, 95% CI)",
    ]
    header = (
        f"{'mu_BS':>8s} | "
        + " | ".join(f"{m:^28s}" for m in ("exec time", "stalling", "utilization"))
    )
    for mu_bit in result.config.mu_bits:
        lines.append("")
        lines.append(f"-- mu_BIT = {_format_mu(mu_bit)} " + "-" * 60)
        lines.append(header)
        for mu_bs in result.config.mu_bss:
            cell = result.cell(mu_bit, mu_bs)
            row = f"{_format_mu(mu_bs):>8s} | " + " | ".join(
                f"{format_ratio(cell.ratios[m]):^28s}" for m in METRICS
            )
            lines.append(row)
    return "\n".join(lines)


def render_sweep_series(result: SweepResult, metric: str) -> str:
    """One metric as the paper plots it: sections by mu_BIT, medians by
    mu_BS left to right."""
    if metric not in METRICS:
        raise KeyError(f"unknown metric {metric!r}")
    lines = [f"{_METRIC_TITLES[metric]} — {result.workload}"]
    for mu_bit in result.config.mu_bits:
        medians = []
        for mu_bs in result.config.mu_bss:
            stats = result.cell(mu_bit, mu_bs).ratios[metric]
            medians.append("  ---" if stats is None else f"{stats.median:5.2f}")
        lines.append(f"mu_BIT={_format_mu(mu_bit):>5s}: " + " ".join(medians))
    return "\n".join(lines)


def render_curves_table(curves: Iterable[EligibilityCurves]) -> str:
    """Fig. 4 summary: one row per dag."""
    lines = ["Eligible jobs: PRIO vs FIFO (Fig. 4 summary)"]
    lines.extend(c.summary_row() for c in curves)
    return "\n".join(lines)
