"""Workflow linting: catch the mistakes DAGMan reports at submit time.

``prio lint workflow.dag`` (and :func:`lint_dagman`) checks a parsed
workflow for the problems that otherwise surface only when
``condor_submit_dag`` rejects the file or the run wedges:

* dependencies referencing undeclared jobs;
* dependency cycles (with the cycle spelled out);
* duplicate PARENT/CHILD statements (harmless but usually a generator bug);
* ``DONE`` markers that are not precedence-closed (a hand-edited rescue
  file that would deadlock the remnant);
* missing job-submit description files, when a root directory is given;
* jobs with no path to a sink/source — disconnected islands worth a look
  in a workflow that is supposed to be one computation.

:func:`lint_dagman_tree` extends the same checks across a *nested*
workflow (``SPLICE``/``SUBDAG EXTERNAL`` trees) without raising.  It
walks the tree with the importer's flattener, recording each defect the
import would raise on (unreadable, malformed or recursively-included
files, undefined macros in include references, name clashes after
namespacing, undeclared names, a cycle in the flattened dag) as an
``error`` finding, so lint and import cannot disagree.  ``DIR`` targets
that do not exist on disk and ``$(macro)`` references that no ``VARS``
statement (own or inherited) defines in a flattened job come back as
warnings.

Findings carry a severity: ``error`` (DAGMan would refuse or wedge) or
``warning`` (legal but suspicious).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from ..dag.graph import CycleError, Dag, DagBuilder
from .importer import (
    _MACRO_RE,
    MAX_IMPORT_DEPTH,
    _DiskTree,
    _MemoryTree,
    _Resolver,
)
from .model import DagmanFile

__all__ = ["Finding", "lint_dagman", "lint_dagman_tree"]


@dataclass(frozen=True)
class Finding:
    """One lint finding; ``where`` names the file for tree-wide lints."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    where: str | None = None

    def __str__(self) -> str:
        base = f"{self.severity}: [{self.code}] {self.message}"
        return f"{base} (in {self.where})" if self.where else base


def lint_dagman(
    dagman: DagmanFile, *, root: str | Path | None = None
) -> list[Finding]:
    """Lint a parsed workflow; returns findings, empty when clean."""
    findings: list[Finding] = []
    declared = set(dagman.jobs) | set(dagman.splices)

    # Undeclared endpoints.
    for p, c in dagman.arcs:
        for endpoint in (p, c):
            if endpoint not in declared:
                findings.append(
                    Finding(
                        "error",
                        "undeclared-job",
                        f"dependency references undeclared job {endpoint!r}",
                    )
                )

    # Duplicate arcs.
    seen: set[tuple[str, str]] = set()
    for arc in dagman.arcs:
        if arc in seen:
            findings.append(
                Finding(
                    "warning",
                    "duplicate-dependency",
                    f"dependency {arc[0]} -> {arc[1]} stated more than once",
                )
            )
        seen.add(arc)

    # Cycles (splice endpoints treated as opaque single nodes for this
    # check — a cycle through a splice is still a cycle).
    builder = DagBuilder()
    for name in declared:
        builder.add_job(name)
    try:
        for p, c in seen:
            if p in declared and c in declared:
                builder.add_dependency(p, c)
        dag = builder.build()
    except CycleError as exc:
        findings.append(
            Finding("error", "cycle", f"dependency cycle: {exc}")
        )
        return findings  # downstream checks assume acyclicity

    # DONE closure.
    done = {name for name, decl in dagman.jobs.items() if decl.done}
    for name in done:
        u = dag.id_of(name)
        for p in dag.parents(u):
            parent = dag.label(p)
            if parent in dagman.jobs and parent not in done:
                findings.append(
                    Finding(
                        "error",
                        "done-not-closed",
                        f"{name!r} is DONE but its parent {parent!r} is not "
                        "— the rescue run would deadlock",
                    )
                )

    # Missing JSDFs.
    if root is not None:
        root = Path(root)
        missing: set[Path] = set()
        for decl in dagman.jobs.values():
            base = root / decl.directory if decl.directory else root
            jsdf = base / decl.submit_file
            if not jsdf.is_file() and jsdf not in missing:
                missing.add(jsdf)
                findings.append(
                    Finding(
                        "warning",
                        "missing-jsdf",
                        f"submit description file not found: {jsdf}",
                    )
                )

    # Disconnected islands (only when there is more than one job).
    if dag.n > 1 and not dag.is_connected_undirected():
        findings.append(
            Finding(
                "warning",
                "disconnected",
                "the workflow is not connected — it contains independent "
                "islands; intended?",
            )
        )

    return findings


class _LintWalk(_Resolver):
    """The importer's walk, recording each tree defect as a finding
    instead of raising, and linting each file as it is parsed."""

    def __init__(self, tree, *, max_depth: int):
        super().__init__(tree, max_depth=max_depth)
        self.findings: dict[Finding, None] = {}

    def _defect(self, code: str, message: str, where: str | None) -> None:
        if code != "undeclared-job":  # lint_dagman reports it per file
            self.findings[Finding("error", code, message, where)] = None

    def _parse(self, key: str, includer: str | None) -> DagmanFile:
        # Linted before flattening rewrites the declarations.  A cycle is
        # checked on the flattened dag instead, as the import checks it.
        parsed = super()._parse(key, includer)
        where = self._display(key)
        for finding in lint_dagman(parsed):
            if finding.code != "cycle":
                self.findings[
                    Finding(finding.severity, finding.code, finding.message, where)
                ] = None
        return parsed


def lint_dagman_tree(
    source: str | Path | Mapping[str, str],
    root: str = "workflow.dag",
    *,
    max_depth: int = MAX_IMPORT_DEPTH,
) -> list[Finding]:
    """Lint a nested workflow tree; never raises on tree defects.

    *source* is either the path of the root ``.dag`` file on disk or an
    in-memory mapping of relative paths to file text (then *root* names
    the entry file, as in :func:`~repro.dagman.importer.import_dagman_tree`).

    The tree is walked by the importer's own flattener, so every
    condition the import raises on comes back as an ``error`` finding,
    and ``$(JOB)``, ``VARS`` inheritance and ``DIR`` resolve as they do
    there.  On top of the per-file :func:`lint_dagman` checks (reported
    with ``where`` set to the file), the walk reports:

    * ``missing-include`` — a file that cannot be read;
    * ``parse-error`` — a file that does not parse, or is not UTF-8;
    * ``include-cycle`` — self- or mutual file inclusion, with the chain;
    * ``include-depth`` — nesting beyond *max_depth*;
    * ``undefined-macro`` — a ``$(name)`` reference no ``VARS`` ever
      defines (an *error* in include-file references, which then cannot
      resolve; a *warning* in a flattened job's submit file or ``DIR``,
      which condor would expand to the empty string);
    * ``name-clash`` — two jobs with one name after namespacing;
    * ``cycle`` — a dependency cycle in the flattened dag;
    * ``missing-dir`` — a flattened job's ``DIR`` that does not exist on
      disk (skipped for in-memory trees).
    """
    tree = (
        _MemoryTree(source, root)
        if isinstance(source, Mapping)
        else _DiskTree(source)
    )
    walk = _LintWalk(tree, max_depth=max_depth)
    walk.run(tree.root)
    findings = walk.findings
    labels = list(walk.flat.jobs)
    try:
        Dag(len(labels), walk.arcs, labels)
    except ValueError as exc:
        findings[
            Finding("error", "cycle", f"flattened workflow: {exc}")
        ] = None
    checked_dirs: set[str] = set()
    for (name, decl), (where, _) in zip(walk.flat.jobs.items(), walk.origin):
        for what, value in (
            ("submit file", decl.submit_file),
            ("DIR", decl.directory),
        ):
            missing = sorted(set(_MACRO_RE.findall(value))) if value else ()
            if missing:
                findings[Finding(
                    "warning",
                    "undefined-macro",
                    f"job {name!r} {what} references undefined macro(s) "
                    f"{missing} in {value!r}",
                    where,
                )] = None
        directory = decl.directory
        if (
            tree.root_dir is None
            or not directory
            or directory in checked_dirs
            or _MACRO_RE.search(directory)  # reported above
        ):
            continue
        checked_dirs.add(directory)
        if not (tree.root_dir / directory).is_dir():
            findings[Finding(
                "warning",
                "missing-dir",
                f"job {name!r}: DIR target {directory!r} does not exist",
            )] = None
    return list(findings)
