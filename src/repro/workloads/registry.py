"""Named workload registry: the paper's four dags plus scaled variants.

The registry gives the CLI, the analyses and the benches one place to
resolve a workload name to a dag.  Scaled variants (``*-small``) keep each
dag's shape but shrink its parallel width so the full sweep runs in minutes
on a laptop; EXPERIMENTS.md records which variant each bench used.

The ``nipype-*`` and ``cax-*`` entries are *ingested* workloads: a
generator in :mod:`repro.workloads.corpus` emits a real multi-file DAGMan
tree (flat nipype study / nested cax production with ``SUBDAG EXTERNAL``
nodes) and the importer flattens it — so every sweep, league and serve
bench also exercises the file-ingestion path end to end.
"""

from __future__ import annotations

from collections.abc import Callable

from ..dag.graph import Dag
from .airsn import airsn
from .corpus import cax_workflow, nipype_workflow
from .inspiral import inspiral
from .montage import montage
from .sdss import sdss

__all__ = ["WORKLOADS", "get_workload", "workload_names"]

WORKLOADS: dict[str, Callable[[], Dag]] = {
    # The paper's four scientific dags at full size.
    "airsn": lambda: airsn(250),
    "inspiral": lambda: inspiral(),
    "montage": lambda: montage(),
    "sdss": lambda: sdss(),
    # Scaled variants preserving shape (for quick sweeps and CI).
    "airsn-small": lambda: airsn(40),
    "inspiral-small": lambda: inspiral(n_segments=48, n_groups=12),
    "montage-small": lambda: montage(rows=10, cols=10, n_tiles=8),
    "sdss-small": lambda: sdss(n_fields=400, n_catalogs=80),
    "sdss-medium": lambda: sdss(n_fields=1500, n_catalogs=300),
    # Ingested corpora: generated DAGMan trees run through the importer.
    "nipype-small": lambda: nipype_workflow(subjects=6, depth=4),
    "nipype-medium": lambda: nipype_workflow(subjects=24, depth=6),
    "cax-small": lambda: cax_workflow(runs=5, chunks=4),
    "cax-medium": lambda: cax_workflow(runs=20, chunks=8),
}

#: Order in which the paper presents its four applications.
PAPER_ORDER = ("airsn", "inspiral", "montage", "sdss")


def workload_names() -> list[str]:
    """All registered workload names, sorted."""
    return sorted(WORKLOADS)


def get_workload(name: str) -> Dag:
    """Build the named workload dag (raises ``KeyError`` for unknown names)."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from None
    return factory()

