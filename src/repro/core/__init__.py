"""The paper's contribution: the prio scheduling heuristic and baselines."""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".component": (
        "ScheduledComponent",
        "outdegree_order",
        "schedule_component",
    ),
    ".decompose": ("Component", "Decomposition", "decompose"),
    ".fifo": ("fifo_schedule",),
    ".greedy": ("CombineResult", "greedy_combine", "topological_combine"),
    ".prio": ("PrioResult", "prio_schedule", "priorities_from_schedule"),
    ".rescheduling": ("RemnantError", "RemnantResult", "reprioritize_remnant"),
    ".tool": ("PrioToolResult", "prioritize_dagman", "prioritize_dagman_file"),
})

__all__ = [
    "RemnantError",
    "RemnantResult",
    "reprioritize_remnant",
    "PrioToolResult",
    "prioritize_dagman",
    "prioritize_dagman_file",
    "CombineResult",
    "Component",
    "Decomposition",
    "PrioResult",
    "ScheduledComponent",
    "decompose",
    "fifo_schedule",
    "greedy_combine",
    "outdegree_order",
    "prio_schedule",
    "priorities_from_schedule",
    "schedule_component",
    "topological_combine",
]
