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
workflow (``SPLICE``/``SUBDAG EXTERNAL`` trees) without raising:
unreadable or recursively-included files, ``DIR`` targets that do not
exist on disk, and ``$(macro)`` references that no ``VARS`` statement
(own or inherited) ever defines all come back as structured findings
instead of crashing the importer.

Findings carry a severity: ``error`` (DAGMan would refuse or wedge) or
``warning`` (legal but suspicious).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from ..dag.graph import CycleError, DagBuilder
from .importer import (
    _MACRO_RE,
    MAX_IMPORT_DEPTH,
    _DiskTree,
    _expand,
    _join_dir,
    _MemoryTree,
)
from .model import DagmanFile
from .parser import DagmanParseError, parse_dagman_text

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

    On top of the per-file :func:`lint_dagman` checks (reported with
    ``where`` set to the file), the tree walk reports:

    * ``missing-include`` — a ``SPLICE``/``SUBDAG EXTERNAL`` reference
      that cannot be read;
    * ``include-cycle`` — self- or mutual file inclusion, with the chain;
    * ``include-depth`` — nesting beyond *max_depth*;
    * ``parse-error`` — an included file that does not parse;
    * ``undefined-macro`` — a ``$(name)`` reference no ``VARS`` ever
      defines (an *error* in include-file references, which then cannot
      resolve; a *warning* in submit-file/DIR strings, which condor
      would expand to the empty string);
    * ``missing-dir`` — a ``DIR`` whose directory does not exist on disk
      (skipped for in-memory trees).
    """
    findings: list[Finding] = []
    seen_findings: set[tuple[str, str, str, str | None]] = set()

    def add(severity: str, code: str, message: str, where: str | None) -> None:
        key = (severity, code, message, where)
        if key not in seen_findings:
            seen_findings.add(key)
            findings.append(Finding(severity, code, message, where))

    tree = (
        _MemoryTree(source, root)
        if isinstance(source, Mapping)
        else _DiskTree(source)
    )
    root_dir, display = tree.root_dir, tree.display

    def leftover_macros(text: str) -> list[str]:
        return sorted(set(_MACRO_RE.findall(text)))

    def check_dir(directory: str | None, scope: str | None, who: str) -> None:
        if root_dir is None or not directory:
            return
        if _MACRO_RE.search(directory):
            return  # unresolved macros reported separately
        composed = _join_dir(scope, directory)
        if composed and not (root_dir / composed).is_dir():
            add(
                "warning",
                "missing-dir",
                f"{who}: DIR target {composed!r} does not exist",
                None,
            )

    def descend(
        key: str,
        who: str,
        ref: str,
        directory: str | None,
        macros: dict[str, str],
        inherited: dict[str, str],
        scope: str | None,
        chain: tuple[str, ...],
        depth: int,
    ) -> None:
        expanded_ref = _expand(ref, macros)
        missing = leftover_macros(expanded_ref)
        if missing:
            add(
                "error",
                "undefined-macro",
                f"{who} references undefined macro(s) "
                f"{missing} in {ref!r}",
                display(key),
            )
            return
        sub_dir = _expand(directory, macros) if directory else None
        check_dir(sub_dir, scope, who)
        target = tree.resolve(key, expanded_ref)
        if target in chain:
            loop = [display(k) for k in chain] + [display(target)]
            add(
                "error",
                "include-cycle",
                "recursive include: " + " -> ".join(loop),
                display(key),
            )
            return
        if depth + 1 > max_depth:
            add(
                "error",
                "include-depth",
                f"include nesting deeper than {max_depth}",
                display(key),
            )
            return
        walk(
            target,
            scope=_join_dir(scope, sub_dir),
            inherited=inherited,
            chain=chain + (target,),
            depth=depth + 1,
            includer=display(key),
        )

    def walk(
        key: str,
        *,
        scope: str | None,
        inherited: dict[str, str],
        chain: tuple[str, ...],
        depth: int,
        includer: str | None,
    ) -> None:
        text = tree.read(key)
        if text is None:
            add(
                "error",
                "missing-include",
                f"cannot read workflow file {display(key)!r}",
                includer,
            )
            return
        try:
            dagman = parse_dagman_text(text)
        except DagmanParseError as exc:
            add("error", "parse-error", str(exc), display(key))
            return
        for finding in lint_dagman(dagman):
            add(
                finding.severity,
                finding.code,
                finding.message,
                display(key),
            )
        for name, decl in dagman.jobs.items():
            node_vars = {**inherited, **dagman.vars_.get(name, {})}
            macros = {**node_vars, "JOB": name}
            if decl.is_subdag:
                descend(
                    key,
                    f"SUBDAG {name!r}",
                    decl.submit_file,
                    decl.directory,
                    macros,
                    node_vars,
                    scope,
                    chain,
                    depth,
                )
                continue
            for what, value in (
                ("submit file", decl.submit_file),
                ("DIR", decl.directory),
            ):
                if not value:
                    continue
                missing = leftover_macros(_expand(value, macros))
                if missing:
                    add(
                        "warning",
                        "undefined-macro",
                        f"job {name!r} {what} references undefined "
                        f"macro(s) {missing} in {value!r}",
                        display(key),
                    )
            check_dir(
                _expand(decl.directory, macros) if decl.directory else None,
                scope,
                f"job {name!r}",
            )
        for name, spl in dagman.splices.items():
            node_vars = {**inherited, **dagman.vars_.get(name, {})}
            descend(
                key,
                f"SPLICE {name!r}",
                spl.file,
                spl.directory,
                {**node_vars, "JOB": name},
                node_vars,
                scope,
                chain,
                depth,
            )

    walk(
        tree.root,
        scope=None,
        inherited={},
        chain=(tree.root,),
        depth=0,
        includer=None,
    )
    return findings
