"""Running time and memory of the prio pipeline (the Sec. 3.6 table).

The paper reports, for its C++ tool on a 3.4 GHz Pentium 4: AIRSN < 1 s /
2 MB, Inspiral 16 s / 21 MB, Montage 8 s / 104 MB, SDSS 845 s / 1.3 GB.
This module measures the same quantities for this implementation
(wall-clock via ``perf_counter``, peak traced allocations via
``tracemalloc``).  Absolute numbers differ across language and 20 years of
hardware; the table's shape — small dags are instant, SDSS is dominated by
decomposition + priorities and costs the most — carries over.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

from ..core.prio import PrioResult, prio_schedule
from ..dag.graph import Dag

__all__ = ["OverheadRecord", "measure_overhead", "render_overhead_table"]


@dataclass(frozen=True)
class OverheadRecord:
    """One row of the overhead table."""

    workload: str
    n_jobs: int
    n_arcs: int
    seconds: float
    peak_mb: float
    n_components: int
    phase_seconds: dict[str, float] | None = None

    def row(self) -> str:
        phases = ""
        if self.phase_seconds:
            phases = "  (" + ", ".join(
                f"{name} {t:.2f}s" for name, t in self.phase_seconds.items()
            ) + ")"
        return (
            f"{self.workload:<10s} {self.n_jobs:>7d} jobs "
            f"{self.seconds:9.2f} s  {self.peak_mb:8.1f} MB peak  "
            f"{self.n_components:>6d} components{phases}"
        )


def measure_overhead(
    dag: Dag, workload: str = "dag"
) -> tuple[OverheadRecord, PrioResult]:
    """Run the prio pipeline on *dag* under time/memory measurement.

    Returns the record and the schedule result (so callers can reuse it).
    Note: ``tracemalloc`` slows the run somewhat; the timing is still the
    honest end-to-end cost a user would see with tracing enabled.
    """
    tracemalloc.start()
    started = time.perf_counter()
    result = prio_schedule(dag)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    record = OverheadRecord(
        workload=workload,
        n_jobs=dag.n,
        n_arcs=dag.narcs,
        seconds=elapsed,
        peak_mb=peak / 1e6,
        n_components=result.decomposition.n_components,
        phase_seconds=dict(result.phase_seconds),
    )
    return record, result


def render_overhead_table(records: list[OverheadRecord]) -> str:
    """The Sec. 3.6 table for this implementation."""
    lines = ["prio pipeline overhead (cf. paper Sec. 3.6)"]
    lines.extend(r.row() for r in records)
    return "\n".join(lines)
