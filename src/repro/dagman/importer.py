"""Importer: resolve a DAGMan file *tree* into one flat workload dag.

Real generated workflows are rarely a single file.  nipype's
``CondorDAGManPlugin`` writes one ``.dag`` plus a submit file per node;
XENON1T/cax writes an *outer* production dag whose nodes are ``SUBDAG
EXTERNAL`` references to per-run *inner* dags living in per-run
directories, parameterized through ``VARS`` macros.  To prioritize such a
workflow as one computation, the whole tree must be flattened into a
single :class:`repro.dag.graph.Dag`.

:func:`import_dagman_file` (and the loader-injectable
:func:`import_dagman_tree` for in-memory trees) does exactly that:

* **Nested includes** — ``SPLICE`` and ``SUBDAG EXTERNAL`` declarations
  are resolved recursively.  Inner job names are namespaced with the
  include node's name (``run_0001+merge``, composing as
  ``outer+inner+job`` across levels), arcs *to* an include attach to the
  inner dag's sources and arcs *from* it leave from the inner dag's
  sinks — DAGMan's splice semantics, applied uniformly.  Self- and
  mutual file inclusion is detected and reported with the offending
  chain; ``expand_subdags=False`` keeps ``SUBDAG EXTERNAL`` nodes opaque
  (one job each, how the outer DAGMan schedules them at runtime).
* **DIR scoping** — an include node's ``DIR`` prefixes every inner job's
  working directory, composing across levels, so submit files keep
  resolving from the root file's directory.
* **VARS macro substitution** — ``$(name)`` references in submit-file
  and ``DIR`` strings are expanded from the node's ``VARS`` (include
  nodes pass their macros down as defaults; inner definitions win).
  Undefined references are left verbatim for ``lint`` to flag — except
  in include-file references, where an unresolved macro is a hard
  import error (there is no file to read).
* **Rescue awareness** — with ``rescue=True`` each file's newest rescue
  companion (``<file>.rescue``, ``<file>.rescue001``...) is applied:
  jobs it marks ``DONE`` (either format: full dag with ``DONE`` flags,
  or standalone ``DONE name`` lines) come out flagged done, and a done
  include node marks its whole flattened subtree done.
* **Metadata carried through** — per flat job: merged ``VARS``, the
  effective ``RETRY`` budget (an include node's retry count applies to
  each flattened inner job), ``SCRIPT`` hooks, NOOP/DONE flags and the
  declaring source file, so ``prio`` instrumentation and the runner see
  the same information a per-file DAGMan stack would.

The result is deterministic: flat job ids follow statement order
(includes expanded depth-first at their declaration point), so two
imports of the same tree — whatever the on-disk path order or root
naming — produce byte-identical flattened renders and the same
:meth:`ImportedWorkflow.fingerprint`.  The import is one pass: each
file is parsed once, each job gets its id as it is emitted, and the dag
is built once from integer arcs (docs/FORMAT.md, "One pass").
"""

from __future__ import annotations

import os
import posixpath
import re
import stat
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from ..dag.graph import Dag
from .model import JOBPRIORITY_MACRO, DagmanFile
from .parser import DagmanParseError, _decode, parse_dagman_text

__all__ = [
    "DagmanImportError",
    "JobMeta",
    "ImportedWorkflow",
    "MAX_IMPORT_DEPTH",
    "import_dagman_file",
    "import_dagman_tree",
    "load_dagman_file",
]

#: Include-nesting ceiling; beyond this the tree is assumed degenerate.
MAX_IMPORT_DEPTH = 64

_MACRO_RE = re.compile(r"\$\((\w[\w.\-+]*)\)")
_RESCUE_SUFFIX_RE = re.compile(r"\.rescue(\d*)$")


class DagmanImportError(ValueError):
    """An unresolvable workflow tree: an unreadable or malformed file,
    missing or cyclic includes, macro references without a definition in
    an include path, name clashes after namespacing, a dependency on an
    undeclared name, or a dependency cycle in the flattened dag."""


@dataclass
class JobMeta:
    """Resolved per-job metadata of one flattened job."""

    name: str
    submit_file: str
    directory: str | None
    vars: dict[str, str]
    retries: int
    done: bool
    noop: bool
    is_data: bool
    is_subdag: bool
    source: str
    depth: int


@dataclass
class ImportedWorkflow:
    """A DAGMan tree flattened into one dag plus its job metadata."""

    dag: Dag
    flat: DagmanFile
    sources: tuple[str, ...]
    root: str
    #: per flat id: the job's import-time macros and its (source, depth)
    _vars: list[dict[str, str]] = field(repr=False, compare=False)
    _origin: list[tuple[str, int]] = field(repr=False, compare=False)
    _meta: dict[str, JobMeta] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_jobs(self) -> int:
        return self.dag.n

    @property
    def n_arcs(self) -> int:
        return self.dag.narcs

    @property
    def meta(self) -> dict[str, JobMeta]:
        """Per-job metadata by flat name, built on first read.  ``vars``
        are the macros as imported: instrumenting ``flat`` afterwards
        (``set_priorities``) does not show through."""
        if self._meta is None:
            jobs, retries = self.flat.jobs, self.flat.retries
            self._meta = {}
            for name, macros, (source, depth) in zip(
                self.dag.labels, self._vars, self._origin
            ):
                decl = jobs[name]
                self._meta[name] = JobMeta(
                    name=name,
                    submit_file=decl.submit_file,
                    directory=decl.directory,
                    vars=dict(macros),
                    retries=retries.get(name, 0),
                    done=decl.done,
                    noop=decl.noop,
                    is_data=decl.is_data,
                    is_subdag=decl.is_subdag,
                    source=source,
                    depth=depth,
                )
        return self._meta

    def fingerprint(self) -> str:
        """Canonical content hash of the flattened dag (label-invariant,
        id-sensitive — see :meth:`repro.dag.graph.Dag.fingerprint`)."""
        return self.dag.fingerprint()

    def render(self) -> str:
        """The flattened workflow as DAGMan input text (reparseable)."""
        return self.flat.render()

    def to_json(self) -> dict:
        """JSON-ready payload: the dag, per-job metadata, provenance."""
        from ..dag.io_json import dag_to_json

        return {
            "format": "repro-import-v1",
            "fingerprint": self.fingerprint(),
            "root": self.root,
            "sources": list(self.sources),
            "dag": dag_to_json(self.dag),
            "jobs": {
                name: {
                    "submit_file": m.submit_file,
                    "directory": m.directory,
                    "vars": dict(m.vars),
                    "retries": m.retries,
                    "done": m.done,
                    "noop": m.noop,
                    "subdag": m.is_subdag,
                    "source": m.source,
                    "depth": m.depth,
                }
                for name, m in self.meta.items()
            },
        }


def _expand(
    text: str, macros: Mapping[str, str], job: str | None = None
) -> str:
    """Expand ``$(name)`` from *macros* (``$(JOB)`` from *job* when
    given); undefined references stay verbatim (lint reports them;
    condor would expand them empty)."""
    if "$(" not in text:
        return text

    def repl(match: re.Match) -> str:
        name = match.group(1)
        if job is not None and name == "JOB":
            return job
        return macros.get(name, match.group(0))

    return _MACRO_RE.sub(repl, text)


def _join_dir(scope: str | None, directory: str | None) -> str | None:
    if not directory:
        return scope
    if not scope:
        return directory
    return posixpath.join(scope, directory)


def _quote_vars(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


class _MemoryTree:
    """An in-memory file tree: POSIX-style relative paths to file text.

    Every tree offers ``read(key)`` (file text, or None when missing;
    :class:`DagmanParseError` when it is not UTF-8),
    ``resolve(base, ref)`` (an include reference canonicalized against
    the directory of the including file's *key*), ``display(key)`` (the
    name used in errors and metadata), ``find_rescue(key)`` (the key of
    the newest rescue companion, or None) and ``root_dir`` (the directory
    ``DIR`` targets live in, None when there is no disk to check).
    """

    root_dir: Path | None = None

    def __init__(self, files: Mapping[str, str], root: str):
        self.files = dict(files)
        self.root = root

    def read(self, key: str) -> str | None:
        return self.files.get(key)

    def resolve(self, base: str, ref: str) -> str:
        return posixpath.normpath(posixpath.join(posixpath.dirname(base), ref))

    def display(self, key: str) -> str:
        return key

    def find_rescue(self, key: str) -> str | None:
        return _newest_rescue(
            [k for k in self.files if k.startswith(key + ".rescue")], key
        )


class _DiskTree:
    """The on-disk file tree under the root ``.dag`` at *path*: keys are
    absolute paths, displayed relative to the root's directory.
    *rescue_file* overrides the root's rescue companion."""

    def __init__(
        self, path: str | Path, rescue_file: str | Path | None = None
    ):
        # Keys come from os.path.realpath: on a tree of many small files,
        # building Path objects costs more than parsing, and a symlink
        # loop comes out as an unreadable file, not a RuntimeError.
        self.root = os.path.realpath(path)
        self.root_dir = Path(os.path.dirname(self.root))
        self._prefix = os.path.join(os.path.dirname(self.root), "")
        self._rescue_file = (
            os.path.realpath(rescue_file) if rescue_file is not None
            else None
        )

    def read(self, key: str) -> str | None:
        try:
            with open(key, "rb") as f:
                data = f.read()
        except OSError:
            return None
        return _decode(data)

    def resolve(self, base: str, ref: str) -> str:
        """``os.path.realpath`` of *ref* against *base*'s directory.

        *base* is a key, so its directory is resolved already: only
        *ref*'s components are walked, one ``lstat`` each.  A component
        that is a symlink hands the include to ``os.path.realpath``,
        which follows links (and loops) its own way.
        """
        if ref.startswith("/"):
            return os.path.realpath(ref)
        path = os.path.dirname(base)
        for name in ref.split("/"):
            if not name or name == ".":
                continue
            if name == "..":
                path = os.path.dirname(path)
                continue
            step = os.path.join(path, name)
            try:
                mode = os.lstat(step).st_mode
            except OSError:
                mode = 0  # missing: realpath keeps the name as it stands
            if stat.S_ISLNK(mode):
                return os.path.realpath(
                    os.path.join(os.path.dirname(base), ref)
                )
            path = step
        return path

    def display(self, key: str) -> str:
        if key.startswith(self._prefix):
            return key[len(self._prefix):]
        return key

    def find_rescue(self, key: str) -> str | None:
        if self._rescue_file is not None and key == self.root:
            return self._rescue_file
        target = Path(key)
        candidates = [
            str(p)
            for p in target.parent.glob(target.name + ".rescue*")
            if p.is_file()
        ]
        return _newest_rescue(candidates, key)


_Tree = _MemoryTree | _DiskTree


class _Resolver:
    """One pass over a file tree (see :class:`_MemoryTree`).

    Each file is parsed once, in include order.  A flat job gets its id
    as it is emitted; arcs come out as id pairs, each produced once, and
    the :class:`Dag` is built from them directly.

    Every tree defect goes through :meth:`_defect`, which raises here.
    The walk after a defect treats the include, unit or arc at fault as
    empty: the import never gets there, the linter (which records the
    defect instead) does.
    """

    def __init__(
        self,
        tree: _Tree,
        *,
        expand_subdags: bool = True,
        rescue: bool = False,
        max_depth: int = MAX_IMPORT_DEPTH,
    ):
        self._tree = tree
        self._display = tree.display
        self._expand_subdags = expand_subdags
        self._rescue = rescue
        self._max_depth = max_depth
        self.flat = DagmanFile()
        self.sources: list[str] = []
        self.arcs: list[tuple[int, int]] = []
        #: per flat id: the job's import-time macros and its (source, depth)
        self.vars: list[dict[str, str]] = []
        self.origin: list[tuple[str, int]] = []

    def _defect(self, code: str, message: str, where: str | None) -> None:
        """Report a tree defect: *code* is its lint finding code, *where*
        the file at fault (None for the root itself)."""
        raise DagmanImportError(f"{where}: {message}" if where else message)

    # -- file access ----------------------------------------------------

    def _parse(self, key: str, includer: str | None) -> DagmanFile:
        """The file at *key*, parsed; an unreadable or malformed file is
        a defect and reads as an empty one."""
        where = self._display(key)
        try:
            text = self._tree.read(key)
            parsed = None if text is None else parse_dagman_text(text)
        except DagmanParseError as exc:
            self._defect("parse-error", str(exc), where)
            return DagmanFile()
        if parsed is None:
            self._defect(
                "missing-include",
                f"cannot read workflow file {where!r}",
                self._display(includer) if includer else None,
            )
            return DagmanFile()
        self.sources.append(where)
        return parsed

    def _rescue_done(self, key: str) -> set[str]:
        """Job names the newest rescue companion of *key* marks DONE."""
        if not self._rescue:
            return set()
        rescue_key = self._tree.find_rescue(key)
        if rescue_key is None:
            return set()
        parsed = self._parse(rescue_key, key)
        done = set(parsed.done_names)
        done.update(n for n, d in parsed.jobs.items() if d.done)
        return done

    # -- flattening -----------------------------------------------------

    def run(self, root_key: str) -> None:
        self._flatten(root_key, prefix="", scope_dir=None, inherited={},
                      inherited_retry=0, force_done=False, depth=0,
                      chain=(root_key,))

    def _flatten(
        self,
        key: str,
        *,
        prefix: str,
        scope_dir: str | None,
        inherited: dict[str, str],
        inherited_retry: int,
        force_done: bool,
        depth: int,
        chain: tuple[str, ...],
    ) -> tuple[list[int], list[int]]:
        """Flatten the file at *key* into ``self.flat``.

        Returns the flat ids of the file's sources and sinks (for
        attaching the including file's arcs).
        """
        where = self._display(key)  # once per file: each job's source
        if depth > self._max_depth:
            self._defect(
                "include-depth",
                f"include nesting deeper than {self._max_depth} — is the "
                "tree recursive?",
                where,
            )
            return [], []
        dagman = self._parse(key, chain[-2] if depth else None)
        rescue_done = self._rescue_done(key)
        scripts: dict[str, list[tuple[str, str]]] = {}
        for (job, when), cmd in dagman.scripts.items():
            scripts.setdefault(job, []).append((when, cmd))
        origin = (where, depth)
        flat = self.flat
        # Per-file lookups, hoisted out of the per-unit loop.
        vars_get = dagman.vars_.get if dagman.vars_ else None
        retries_get = dagman.retries.get if dagman.retries else None
        jobs_get = dagman.jobs.get
        flat_jobs, flat_vars, flat_retries = flat.jobs, flat.vars_, flat.retries
        id_vars, id_origin = self.vars, self.origin
        expand_subdags = self._expand_subdags

        # Each unit (JOB/DATA/SUBDAG or SPLICE, in the statement order the
        # parser recorded) resolves to >= 0 flat jobs at its declaration
        # point, so ids don't depend on statement *kind*.  ends[name] holds
        # the unit's (source ids, sink ids).
        ends: dict[str, tuple[list[int], list[int]]] = {}
        for name in dagman.units:
            local = vars_get(name) if vars_get else None
            # Macro dicts are shared down the tree and never mutated.
            node_vars = {**inherited, **local} if local else inherited
            node_retry = (
                max(inherited_retry, retries_get(name, 0)) if retries_get
                else inherited_retry
            )
            flat_name = prefix + name if prefix else name
            decl = jobs_get(name)
            if decl is None:  # SPLICE
                spl = dagman.splices[name]
                ends[name] = self._descend(
                    key, name, spl.file, spl.directory,
                    node_vars, node_retry,
                    force_done or name in rescue_done,
                    flat_name, scope_dir, depth, chain,
                )
                continue
            node_done = force_done or decl.done or (
                name in rescue_done if rescue_done else False
            )
            if decl.is_subdag and expand_subdags:
                ends[name] = self._descend(
                    key, name, decl.submit_file, decl.directory,
                    node_vars, node_retry, node_done, flat_name,
                    scope_dir, depth, chain,
                )
                continue
            if flat_name in flat_jobs:
                self._defect(
                    "name-clash",
                    f"job name clash after flattening: {flat_name!r}",
                    where,
                )
                ends[name] = ([], [])
                continue
            # The parsed file belongs to this import alone: its declaration
            # becomes the flat one.
            decl.name = flat_name
            if "$(" in decl.submit_file:
                decl.submit_file = _expand(
                    decl.submit_file, node_vars, flat_name
                )
            directory = decl.directory
            if directory:
                if "$(" in directory:
                    directory = _expand(directory, node_vars, flat_name)
                decl.directory = _join_dir(scope_dir, directory)
            elif scope_dir:
                decl.directory = scope_dir
            decl.done = node_done
            flat_jobs[flat_name] = decl
            if node_vars:
                flat_vars[flat_name] = dict(node_vars)
            if node_retry > 0:
                flat_retries[flat_name] = node_retry
            if scripts:
                for when, cmd in scripts.get(name, ()):
                    flat.scripts[(flat_name, when)] = cmd
            ids = [len(id_vars)]
            id_vars.append(node_vars)
            id_origin.append(origin)
            ends[name] = (ids, ids)

        # Arcs: cross products of the endpoint units' sinks x sources.  A
        # flat arc joins exactly one pair of this file's units, so it can
        # only repeat where the file restates that pair: dedupe pairs.
        pairs = dict.fromkeys(dagman.arcs)
        arcs = self.arcs
        for p, c in pairs:
            try:
                sinks = ends[p][1]
                sources = ends[c][0]
            except KeyError as exc:
                self._defect(
                    "undeclared-job",
                    f"dependency references undeclared name {exc.args[0]!r}",
                    where,
                )
                continue
            for u in sinks:
                for v in sources:
                    arcs.append((u, v))

        # This file's boundary, as seen by its includer: units with no
        # local parent contribute their sources, units with no local
        # child their sinks (an empty include contributes nothing).
        has_parent = {c for _, c in pairs}
        has_child = {p for p, _ in pairs}
        file_sources = [
            u for name, (src, _) in ends.items()
            if name not in has_parent
            for u in src
        ]
        file_sinks = [
            u for name, (_, snk) in ends.items()
            if name not in has_child
            for u in snk
        ]
        return file_sources, file_sinks

    def _descend(
        self,
        key: str,
        name: str,
        ref: str,
        directory: str | None,
        node_vars: dict[str, str],
        node_retry: int,
        node_done: bool,
        flat_name: str,
        scope_dir: str | None,
        depth: int,
        chain: tuple[str, ...],
    ) -> tuple[list[int], list[int]]:
        """Recurse into the include node *name* referencing *ref*."""
        expanded_ref = _expand(ref, node_vars, flat_name)
        unresolved = _MACRO_RE.findall(expanded_ref)
        if unresolved:
            self._defect(
                "undefined-macro",
                f"include {name!r} references undefined macro(s) "
                f"{sorted(set(unresolved))} in {ref!r}",
                self._display(key),
            )
            return [], []
        target = self._tree.resolve(key, expanded_ref)
        if target in chain:
            loop = [self._display(k) for k in chain] + [self._display(target)]
            self._defect(
                "include-cycle",
                "recursive include: " + " -> ".join(loop),
                self._display(key),
            )
            return [], []
        sub_dir = _expand(directory, node_vars, flat_name) if directory else None
        return self._flatten(
            target,
            prefix=flat_name + "+",
            scope_dir=_join_dir(scope_dir, sub_dir),
            inherited=node_vars,
            inherited_retry=node_retry,
            force_done=node_done,
            depth=depth + 1,
            chain=chain + (target,),
        )


def _render_lines(flat: DagmanFile) -> None:
    """Fill ``flat.lines`` so the flat file reparses to the same
    structure (and ``set_priority`` replaces, not duplicates)."""
    lines: list[str] = []
    for name, decl in flat.jobs.items():
        if decl.is_subdag:
            parts = ["SUBDAG", "EXTERNAL", name, decl.submit_file]
        else:
            parts = [
                "DATA" if decl.is_data else "JOB",
                name,
                decl.submit_file,
            ]
        if decl.directory:
            parts += ["DIR", decl.directory]
        if decl.noop:
            parts.append("NOOP")
        if decl.done:
            parts.append("DONE")
        lines.append(" ".join(parts))
    for p, c in flat.arcs:
        lines.append(f"PARENT {p} CHILD {c}")
    for name, count in flat.retries.items():
        lines.append(f"RETRY {name} {count}")
    for (name, when), cmd in flat.scripts.items():
        lines.append(f"SCRIPT {when.upper()} {name} {cmd}")
    for name, macros in flat.vars_.items():
        for macro, value in macros.items():
            if macro == JOBPRIORITY_MACRO:
                flat._jobpriority_lines[name] = len(lines)
            lines.append(f'VARS {name} {macro}="{_quote_vars(value)}"')
    flat.lines = lines


def _import(tree: _Tree, **options) -> ImportedWorkflow:
    resolver = _Resolver(tree, **options)
    resolver.run(tree.root)
    flat = resolver.flat
    labels = list(flat.jobs)
    flat.units = labels
    flat.arcs = [(labels[u], labels[v]) for u, v in resolver.arcs]
    _render_lines(flat)
    try:
        dag = Dag(len(labels), resolver.arcs, labels)
    except ValueError as exc:  # a dependency cycle
        raise DagmanImportError(f"flattened workflow: {exc}") from exc
    return ImportedWorkflow(
        dag=dag,
        flat=flat,
        sources=tuple(dict.fromkeys(resolver.sources)),
        root=tree.display(tree.root),
        _vars=resolver.vars,
        _origin=resolver.origin,
    )


def import_dagman_tree(
    tree: Mapping[str, str],
    root: str = "workflow.dag",
    *,
    expand_subdags: bool = True,
    rescue: bool = False,
    max_depth: int = MAX_IMPORT_DEPTH,
) -> ImportedWorkflow:
    """Flatten an **in-memory** workflow tree.

    *tree* maps POSIX-style relative paths to file text; *root* names
    the top-level dag.  Include references resolve relative to the
    including file's directory within the mapping.  This is the loader
    the corpus generators and the property suites use — no filesystem,
    fully deterministic.
    """
    if root not in tree:
        raise DagmanImportError(f"root {root!r} not in tree")
    return _import(
        _MemoryTree(tree, root),
        expand_subdags=expand_subdags,
        rescue=rescue,
        max_depth=max_depth,
    )


def import_dagman_file(
    path: str | Path,
    *,
    expand_subdags: bool = True,
    rescue: bool = False,
    rescue_file: str | Path | None = None,
    max_depth: int = MAX_IMPORT_DEPTH,
) -> ImportedWorkflow:
    """Flatten the on-disk workflow tree rooted at *path*.

    Include references resolve relative to the file that states them.
    With ``rescue=True`` each file's newest rescue companion is applied;
    ``rescue_file=`` overrides the root's companion explicitly.
    """
    return _import(
        _DiskTree(path, rescue_file),
        expand_subdags=expand_subdags,
        rescue=rescue or rescue_file is not None,
        max_depth=max_depth,
    )


def load_dagman_file(path: str | Path) -> tuple[DagmanFile, bool]:
    """The DAGMan file at *path* as one DAGMan instance runs it, and
    whether its splices had to be inlined to get there.

    A file without ``SPLICE`` statements comes back as parsed, comments
    and all, so it can be rewritten in place.  A file with splices comes
    back flattened as :func:`import_dagman_file` flattens it with
    ``SUBDAG EXTERNAL`` nodes kept opaque: DAGMan inlines splices at
    submit time but runs each sub-dag as an instance of its own.  Either
    way the result's :meth:`~DagmanFile.to_dag` succeeds; an unreadable
    or malformed file, an undeclared dependency name, a cycle, or a
    missing or recursive include raises :class:`DagmanImportError`.
    """
    tree = _DiskTree(path)
    dagman = _Resolver(tree)._parse(tree.root, None)
    if dagman.splices:
        return _import(tree, expand_subdags=False).flat, True
    try:
        dagman.to_dag()
    except ValueError as exc:  # a dependency cycle or an undeclared name
        raise DagmanImportError(f"{tree.display(tree.root)}: {exc}") from exc
    return dagman, False


def _newest_rescue(candidates: list[str], key: str) -> str | None:
    """The highest-numbered rescue companion (DAGMan keeps a series:
    ``.rescue001`` .. ``.rescue999``; the runner writes ``.rescue``)."""
    best: tuple[int, str] | None = None
    for cand in candidates:
        suffix = cand[len(key):]
        m = _RESCUE_SUFFIX_RE.fullmatch(suffix)
        if not m:
            continue
        number = int(m.group(1)) if m.group(1) else 0
        if best is None or number > best[0]:
            best = (number, cand)
    return best[1] if best else None
