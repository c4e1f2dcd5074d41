"""DAG substrate: graph type, construction, transitive reduction, validation."""

from .builders import (
    chain,
    complete_bipartite,
    compose_identified,
    compose_series,
    disjoint_union,
    fork,
    fork_join,
    join,
    layered_random,
    random_dag,
)
from .graph import CycleError, Dag, DagBuilder
from .io_dot import to_dot
from .io_json import dag_from_json, dag_to_json
from .metrics import DagShape, dag_shape
from .transitive import find_shortcuts, remove_shortcuts
from .validate import is_valid_schedule, schedule_violations

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
