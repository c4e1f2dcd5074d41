"""DAGMan/Condor file-format substrate: parse, write, instrument."""

from .importer import (
    DagmanImportError,
    ImportedWorkflow,
    JobMeta,
    import_dagman_file,
    import_dagman_tree,
    load_dagman_file,
)
from .jsdf import (
    PRIORITY_LINE,
    instrument_jsdf_text,
    parse_jsdf,
)
from .lint import Finding, lint_dagman, lint_dagman_tree
from .model import JOBPRIORITY_MACRO, DagmanFile, JobDecl, SpliceDecl
from .parser import DagmanParseError, parse_dagman_file, parse_dagman_text
from .runner import (
    JobOutcome,
    JobState,
    SubprocessExecutor,
    WorkflowRun,
    expand_macros,
    run_workflow,
)
from .writer import dag_to_dagman, write_dagman_file

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
