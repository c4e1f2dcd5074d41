"""Workload dags: the paper's four applications and synthetic generators."""

from .airsn import AIRSN_HANDLE_LENGTH, airsn
from .inspiral import inspiral
from .montage import montage
from .registry import PAPER_ORDER, WORKLOADS, get_workload, workload_names
from .export import export_workflow, stage_of
from .repertoire import StageSpec, WorkflowSpec, build_workflow, sample_spec
from .runtimes import (
    AIRSN_STAGE_WEIGHTS,
    stage_runtime_scale,
    workload_runtime_scale,
)
from .sdss import sdss

__all__ = [
    "AIRSN_STAGE_WEIGHTS",
    "StageSpec",
    "WorkflowSpec",
    "build_workflow",
    "export_workflow",
    "sample_spec",
    "stage_of",
    "stage_runtime_scale",
    "workload_runtime_scale",
    "AIRSN_HANDLE_LENGTH",
    "PAPER_ORDER",
    "WORKLOADS",
    "airsn",
    "get_workload",
    "inspiral",
    "montage",
    "sdss",
    "workload_names",
]
