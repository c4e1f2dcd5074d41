"""Workload dags: the paper's four applications and synthetic generators."""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".airsn": ("AIRSN_HANDLE_LENGTH", "airsn"),
    ".export": ("export_workflow", "stage_of"),
    ".inspiral": ("inspiral",),
    ".montage": ("montage",),
    ".registry": (
        "PAPER_ORDER",
        "WORKLOADS",
        "get_workload",
        "workload_names",
    ),
    ".repertoire": (
        "StageSpec",
        "WorkflowSpec",
        "build_workflow",
        "sample_spec",
    ),
    ".runtimes": (
        "AIRSN_STAGE_WEIGHTS",
        "stage_runtime_scale",
        "workload_runtime_scale",
    ),
    ".sdss": ("sdss",),
})

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
