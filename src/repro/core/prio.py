"""End-to-end prio scheduling: divide, recurse, combine.

:func:`prio_schedule` runs the full heuristic of Section 3.1 on any dag and
returns the PRIO schedule together with per-job Condor priorities and
diagnostics about each phase.  The pipeline is:

1. **Divide** — remove shortcut arcs, then decompose into building blocks
   (:mod:`repro.core.decompose`).
2. **Recurse** — schedule each block shape once: catalog family schedule
   when recognized, descending-out-degree otherwise
   (:mod:`repro.core.component`); blocks of one shape share the result.
3. **Combine** — greedy max-min-priority emission over the superdag
   (:mod:`repro.core.greedy`), then all dag sinks in id order.

The resulting schedule is always a valid topological order, and it is
IC optimal whenever the theoretical algorithm would have succeeded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..dag.graph import Dag
from ..dag.transitive import remove_shortcuts as _remove_shortcuts
from .component import ScheduledComponent, schedule_component
from .decompose import Decomposition, decompose
from .greedy import CombineResult, greedy_combine, topological_combine

__all__ = ["PrioResult", "prio_schedule", "priorities_from_schedule"]


@dataclass
class PrioResult:
    """Everything the prio pipeline produced for one dag.

    ``schedule`` is the PRIO total order (job ids); ``priorities[u]`` is the
    Condor priority of job *u* (``n`` for the first job down to ``1`` for
    the last, matching Fig. 3 where the highest-priority job gets value
    ``n``).  The intermediate artifacts are retained for inspection and for
    the figure-generating analyses.
    """

    dag: Dag
    schedule: list[int]
    priorities: list[int]
    shortcuts_removed: list[tuple[int, int]]
    decomposition: Decomposition
    scheduled_components: list[ScheduledComponent] = field(repr=False)
    combine: CombineResult = field(repr=False)
    elapsed_seconds: float = 0.0
    #: wall-clock per phase: "transitive_reduction" (shortcut removal),
    #: "decompose" (building blocks), "recurse" (per-block schedules),
    #: "combine" (superdag emission)
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def families_used(self) -> dict[str, int]:
        """How many blocks matched each catalog family (None = fallback)."""
        counts: dict[str, int] = {}
        for sc in self.scheduled_components:
            name = sc.family or "<out-degree fallback>"
            counts[name] = counts.get(name, 0) + 1
        return counts

    def priority_of(self, label: str) -> int:
        """Priority of the job named *label* (labelled dags only)."""
        return self.priorities[self.dag.id_of(label)]


def priorities_from_schedule(n: int, schedule: list[int]) -> list[int]:
    """Condor priorities from a schedule: first job gets *n*, last gets 1."""
    priorities = [0] * n
    for position, u in enumerate(schedule):
        priorities[u] = n - position
    return priorities


def prio_schedule(
    dag: Dag,
    *,
    remove_shortcuts: bool = True,
    use_catalog: bool = True,
    outdegree_scope: str = "global",
    combine: str = "greedy",
    exact_bipartite_limit: int = 0,
    metrics=None,
) -> PrioResult:
    """Run the prio heuristic on *dag*.

    Parameters
    ----------
    remove_shortcuts:
        Step 1 on/off (ablation knob; the schedule stays valid without it
        but the block structure degrades).
    use_catalog:
        Step 3 family recognition on/off (ablation knob).
    outdegree_scope:
        ``"global"`` or ``"local"`` out-degree for the fallback schedule.
    combine:
        ``"greedy"`` (the paper's Step 6) or ``"topological"`` (ablation:
        ignore priorities).
    exact_bipartite_limit:
        When positive, unrecognized bipartite blocks up to this many
        sources are scheduled exactly (IC-optimally) instead of by
        out-degree — an extension beyond the paper's catalog.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; each
        pipeline phase's wall-clock is folded into the
        ``prio.<phase>`` timers (purely observational).
    """
    if combine not in ("greedy", "topological"):
        raise ValueError(f"unknown combine mode: {combine!r}")
    started = time.perf_counter()
    if remove_shortcuts:
        reduced, shortcuts = _remove_shortcuts(dag)
    else:
        reduced, shortcuts = dag, []
    after_reduction = time.perf_counter()
    decomposition = decompose(reduced)
    after_divide = time.perf_counter()
    shapes: dict = {}
    scheduled = [
        schedule_component(
            reduced,
            comp,
            use_catalog=use_catalog,
            outdegree_scope=outdegree_scope,
            exact_bipartite_limit=exact_bipartite_limit,
            shapes=shapes,
        )
        for comp in decomposition.components
    ]
    after_recurse = time.perf_counter()
    if combine == "greedy":
        combined = greedy_combine(decomposition, scheduled)
    else:
        combined = topological_combine(decomposition, scheduled)
    schedule = list(combined.nonsink_schedule)
    schedule.extend(dag.sinks())
    finished = time.perf_counter()
    elapsed = finished - started
    phase_seconds = {
        "transitive_reduction": after_reduction - started,
        "decompose": after_divide - after_reduction,
        "recurse": after_recurse - after_divide,
        "combine": finished - after_recurse,
    }
    if metrics is not None:
        for phase, seconds in phase_seconds.items():
            metrics.timer(f"prio.{phase}").add(seconds)
        metrics.timer("prio.total").add(elapsed)
    return PrioResult(
        dag=dag,
        schedule=schedule,
        priorities=priorities_from_schedule(dag.n, schedule),
        shortcuts_removed=shortcuts,
        decomposition=decomposition,
        scheduled_components=scheduled,
        combine=combined,
        elapsed_seconds=elapsed,
        phase_seconds=phase_seconds,
    )
