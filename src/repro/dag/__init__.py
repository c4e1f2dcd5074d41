"""DAG substrate: graph type, construction, transitive reduction, validation."""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".builders": (
        "chain",
        "complete_bipartite",
        "compose_identified",
        "compose_series",
        "disjoint_union",
        "fork",
        "fork_join",
        "join",
        "layered_random",
        "random_dag",
    ),
    ".graph": ("CycleError", "Dag", "DagBuilder"),
    ".io_dot": ("to_dot",),
    ".io_json": ("dag_from_json", "dag_to_json"),
    ".metrics": ("DagShape", "dag_shape"),
    ".transitive": ("find_shortcuts", "remove_shortcuts"),
    ".validate": ("is_valid_schedule", "schedule_violations"),
})

__all__ = [
    "CycleError",
    "Dag",
    "DagBuilder",
    "DagShape",
    "dag_from_json",
    "dag_shape",
    "dag_to_json",
    "chain",
    "complete_bipartite",
    "compose_identified",
    "compose_series",
    "disjoint_union",
    "find_shortcuts",
    "fork",
    "fork_join",
    "is_valid_schedule",
    "join",
    "layered_random",
    "random_dag",
    "remove_shortcuts",
    "schedule_violations",
    "to_dot",
]
