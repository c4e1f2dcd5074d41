"""DAGMan/Condor file-format substrate: parse, write, instrument."""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".importer": (
        "DagmanImportError",
        "ImportedWorkflow",
        "JobMeta",
        "import_dagman_file",
        "import_dagman_tree",
        "load_dagman_file",
    ),
    ".jsdf": ("PRIORITY_LINE", "instrument_jsdf_text", "parse_jsdf"),
    ".lint": ("Finding", "lint_dagman", "lint_dagman_tree"),
    ".model": ("DagmanFile", "JOBPRIORITY_MACRO", "JobDecl", "SpliceDecl"),
    ".parser": ("DagmanParseError", "parse_dagman_file", "parse_dagman_text"),
    ".runner": (
        "JobOutcome",
        "JobState",
        "SubprocessExecutor",
        "WorkflowRun",
        "expand_macros",
        "run_workflow",
    ),
    ".writer": ("dag_to_dagman", "write_dagman_file"),
})

__all__ = [
    "DagmanFile",
    "DagmanImportError",
    "DagmanParseError",
    "Finding",
    "ImportedWorkflow",
    "JobMeta",
    "import_dagman_file",
    "import_dagman_tree",
    "load_dagman_file",
    "lint_dagman_tree",
    "JOBPRIORITY_MACRO",
    "JobDecl",
    "JobOutcome",
    "lint_dagman",
    "JobState",
    "SpliceDecl",
    "SubprocessExecutor",
    "WorkflowRun",
    "expand_macros",
    "run_workflow",
    "PRIORITY_LINE",
    "dag_to_dagman",
    "instrument_jsdf_text",
    "parse_dagman_file",
    "parse_dagman_text",
    "parse_jsdf",
    "write_dagman_file",
]
