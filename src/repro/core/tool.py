"""The prio tool: instrument a DAGMan input file with job priorities.

This is the integration surface of Sec. 3.2.  Given a DAGMan input file the
tool

1. parses the file and extracts the dag of job dependencies,
2. applies the scheduling heuristic to produce the PRIO schedule,
3. defines the ``jobpriority`` macro for each job via ``VARS`` (value
   ``n`` for the first job of the schedule down to ``1`` for the last, so
   Condor assigns higher-priority jobs first), and
4. optionally inserts ``priority = $(jobpriority)`` into each referenced
   job-submit description file.

The paper could not instrument the scientific dags' JSDFs (they were not
available); likewise JSDF instrumentation here is skipped per-file when the
file does not exist, and the result reports what was touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..dagman.importer import DagmanImportError, load_dagman_file
from ..dagman.jsdf import instrument_jsdf_text
from ..dagman.model import DagmanFile
from ..dagman.writer import write_dagman_file
from .prio import PrioResult, prio_schedule

__all__ = ["PrioToolResult", "prioritize_dagman", "prioritize_dagman_file"]


@dataclass
class PrioToolResult:
    """What one prio invocation did."""

    dagman: DagmanFile
    prio: PrioResult
    priorities: dict[str, int]
    instrumented_jsdfs: list[str] = field(default_factory=list)
    missing_jsdfs: list[str] = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            f"{len(self.priorities)} jobs prioritized",
            f"{self.prio.decomposition.n_components} building blocks",
        ]
        if self.instrumented_jsdfs:
            parts.append(f"{len(self.instrumented_jsdfs)} JSDFs instrumented")
        if self.missing_jsdfs:
            parts.append(f"{len(self.missing_jsdfs)} JSDFs missing")
        return ", ".join(parts)


def prioritize_dagman(
    dagman: DagmanFile, *, respect_done: bool = False
) -> PrioToolResult:
    """Apply the heuristic to a parsed DAGMan file and set its VARS macros.

    With ``respect_done`` the jobs marked ``DONE`` (DAGMan's rescue-dag
    mechanism) are treated as already executed and the *remnant* is
    re-prioritized: DONE jobs get priority 0 (DAGMan will not resubmit
    them) and the pending jobs get priorities tuned to what is left.
    """
    dag = dagman.to_dag()
    done_ids = [
        dag.id_of(name) for name, decl in dagman.jobs.items() if decl.done
    ]
    if respect_done and done_ids:
        from .rescheduling import reprioritize_remnant

        remnant = reprioritize_remnant(dag, done_ids)
        result = remnant.prio
        priorities = {
            dag.label(u): remnant.priorities[u] for u in range(dag.n)
        }
    else:
        result = prio_schedule(dag)
        priorities = {
            dag.label(u): result.priorities[u] for u in range(dag.n)
        }
    dagman.set_priorities(priorities)
    return PrioToolResult(dagman=dagman, prio=result, priorities=priorities)


def prioritize_dagman_file(
    path: str | Path,
    *,
    output: str | Path | None = None,
    instrument_jsdfs: bool = False,
    jsdf_root: str | Path | None = None,
    respect_done: bool = False,
) -> PrioToolResult:
    """Run the prio tool on the DAGMan file at *path*.

    Parameters
    ----------
    output:
        Where to write the instrumented file (default: in place, as the
        original tool does).
    instrument_jsdfs:
        Also insert the priority line into each job's submit description
        file (resolved against *jsdf_root*, default the DAGMan file's
        directory, honoring each job's ``DIR``).  Missing files are
        reported, not fatal.
    respect_done:
        Re-prioritize the remnant of the jobs marked ``DONE``, as
        :func:`prioritize_dagman` does.

    A file with ``SPLICE`` statements is flattened as
    :func:`~repro.dagman.importer.load_dagman_file` does and needs
    *output*.  A defective file tree, a splice file without *output*, or
    a submit file to instrument that cannot be read as text, raises
    :class:`~repro.dagman.importer.DagmanImportError`.  Every submit
    file is read and instrumented in memory before anything is
    written, so a run that fails that way writes nothing.
    """
    path = Path(path)
    dagman, flattened = load_dagman_file(path)
    if flattened and output is None:
        raise DagmanImportError(
            f"{path} contains SPLICE statements; flattening rewrites the "
            "file structure, so pass output= (or the CLI's -o) to write "
            "the flattened, instrumented workflow elsewhere"
        )
    result = prioritize_dagman(dagman, respect_done=respect_done)
    updates: list[tuple[Path, str]] = []
    if instrument_jsdfs:
        root = Path(jsdf_root) if jsdf_root is not None else path.parent
        seen: set[Path] = set()
        for decl in dagman.jobs.values():
            base = root / decl.directory if decl.directory else root
            jsdf_path = base / decl.submit_file
            if jsdf_path in seen:
                continue
            seen.add(jsdf_path)
            if not jsdf_path.is_file():
                result.missing_jsdfs.append(str(jsdf_path))
                continue
            try:
                original = jsdf_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise _jsdf_error(jsdf_path, exc) from None
            updated = instrument_jsdf_text(original)
            if updated != original:
                updates.append((jsdf_path, updated))
            result.instrumented_jsdfs.append(str(jsdf_path))
    write_dagman_file(dagman, output if output is not None else path)
    for jsdf_path, text in updates:
        try:
            jsdf_path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _jsdf_error(jsdf_path, exc) from None
    return result


def _jsdf_error(jsdf_path: Path, exc: Exception) -> DagmanImportError:
    return DagmanImportError(
        f"cannot instrument submit file {str(jsdf_path)!r}: {exc}"
    )
