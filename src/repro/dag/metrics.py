"""Shape statistics of workflow dags.

Quantities the paper reasons with informally — width, depth, level
profiles, degree distributions — as one inspectable summary.  Used by the
workload gallery, the reports, and anyone sizing a sweep (e.g. the batch
size at which the PRIO advantage fades tracks the dag's width profile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dag

__all__ = ["DagShape", "dag_shape"]


@dataclass(frozen=True)
class DagShape:
    """Structural summary of one dag."""

    n_jobs: int
    n_arcs: int
    n_sources: int
    n_sinks: int
    depth: int                 # longest path, in arcs
    max_level_width: int       # widest longest-path level
    mean_level_width: float
    max_out_degree: int
    max_in_degree: int
    mean_degree: float         # arcs per job
    n_isolated: int

    def row(self, name: str = "dag") -> str:
        return (
            f"{name:<12s} jobs={self.n_jobs:<7d} arcs={self.n_arcs:<7d} "
            f"depth={self.depth:<4d} width={self.max_level_width:<6d} "
            f"sources={self.n_sources:<6d} sinks={self.n_sinks:<6d} "
            f"max deg out/in={self.max_out_degree}/{self.max_in_degree}"
        )


def dag_shape(dag: Dag) -> DagShape:
    """Compute the :class:`DagShape` of *dag*."""
    n = dag.n
    if n == 0:
        return DagShape(0, 0, 0, 0, 0, 0, 0.0, 0, 0, 0.0, 0)
    levels = dag.longest_path_levels()
    widths = np.bincount(np.asarray(levels))
    out_degrees = np.fromiter(
        (dag.out_degree(u) for u in range(n)), dtype=np.int64, count=n
    )
    in_degrees = np.fromiter(
        (dag.in_degree(u) for u in range(n)), dtype=np.int64, count=n
    )
    return DagShape(
        n_jobs=n,
        n_arcs=dag.narcs,
        n_sources=len(dag.sources()),
        n_sinks=len(dag.sinks()),
        depth=int(max(levels)),
        max_level_width=int(widths.max()),
        mean_level_width=float(widths.mean()),
        max_out_degree=int(out_degrees.max()),
        max_in_degree=int(in_degrees.max()),
        mean_degree=float(dag.narcs / n),
        n_isolated=int(((out_degrees == 0) & (in_degrees == 0)).sum()),
    )
