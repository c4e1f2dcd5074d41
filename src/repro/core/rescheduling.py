"""Re-prioritizing a partially executed workflow.

DAGMan supports *rescue dags*: when a run dies partway, the remaining jobs
are resubmitted.  The original prio tool prioritizes a whole file; this
extension re-runs the heuristic on the **remnant** — the unexecuted jobs
and the arcs among them — so the rescue submission gets priorities tuned
to what is actually left (the paper's Step-by-step eligibility argument
applies verbatim to the remnant dag).

The executed set must be *precedence-closed* (every ancestor of an
executed job is executed); that is exactly the state a crashed DAGMan run
leaves behind.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..dag.graph import Dag
from .prio import PrioResult, prio_schedule

__all__ = ["RemnantError", "RemnantResult", "reprioritize_remnant"]


class RemnantError(ValueError):
    """An invalid executed set: out-of-range job or a closure violation.

    A subclass of ``ValueError`` (the historical contract), carrying the
    offending jobs as structured fields so callers — the live-session
    layer, the serve error mapping — can name them without parsing the
    message.  ``job`` is the executed job at fault; for a closure
    violation ``ancestor`` is the parent that did *not* run.
    """

    def __init__(self, message: str, *, job: int, ancestor: int | None = None):
        super().__init__(message)
        self.job = job
        self.ancestor = ancestor


@dataclass
class RemnantResult:
    """Priorities for the unexecuted part of a workflow.

    ``schedule`` and ``priorities`` are expressed in the *original* dag's
    job ids; executed jobs carry priority 0 (DAGMan will not resubmit
    them).  ``remnant`` holds the sub-dag actually scheduled.
    """

    dag: Dag
    executed: frozenset[int]
    remnant: Dag
    schedule: list[int]
    priorities: list[int]
    prio: PrioResult

    def priority_of(self, label: str) -> int:
        return self.priorities[self.dag.id_of(label)]


def reprioritize_remnant(dag: Dag, executed: Iterable[int]) -> RemnantResult:
    """Run the prio heuristic on the unexecuted remainder of *dag*.

    Raises :class:`RemnantError` (a ``ValueError``) when *executed* is
    not precedence-closed or references unknown jobs; the error names
    the executed job and, for a closure violation, the ancestor that
    did not run.
    """
    executed_set = frozenset(executed)
    for u in executed_set:
        if not 0 <= u < dag.n:
            raise RemnantError(
                f"executed job id {u} out of range", job=u
            )
        for p in dag.parents(u):
            if p not in executed_set:
                raise RemnantError(
                    f"executed set is not precedence-closed: "
                    f"{dag.label(u)} ran but its parent {dag.label(p)} "
                    f"did not",
                    job=u,
                    ancestor=p,
                )
    pending = [u for u in range(dag.n) if u not in executed_set]
    remnant, mapping = dag.induced_subgraph(pending)
    result = prio_schedule(remnant)
    schedule = [mapping[u] for u in result.schedule]
    priorities = [0] * dag.n
    for local, orig in enumerate(mapping):
        priorities[orig] = result.priorities[local]
    return RemnantResult(
        dag=dag,
        executed=executed_set,
        remnant=remnant,
        schedule=schedule,
        priorities=priorities,
        prio=result,
    )
