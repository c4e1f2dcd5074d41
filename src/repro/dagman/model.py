"""In-memory model of a DAGMan input file.

A DAGMan input file declares jobs (each backed by a job-submit description
file, JSDF), dependencies (``PARENT ... CHILD ...``), per-job macros
(``VARS``), scripts, retries and assorted directives.  The model keeps both
the parsed structure *and* the original lines, so instrumentation (adding
``jobpriority`` macros, Fig. 3) edits the file minimally and round-trips
everything else byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dag.graph import Dag, DagBuilder

__all__ = ["JobDecl", "SpliceDecl", "DagmanFile", "JOBPRIORITY_MACRO"]

#: The macro name the prio tool defines for each job (Fig. 3).
JOBPRIORITY_MACRO = "jobpriority"


@dataclass(slots=True)
class JobDecl:
    """One ``JOB`` (or legacy ``DATA``) statement.

    ``SUBDAG EXTERNAL`` declarations are also held as a :class:`JobDecl`
    (the outer DAGMan schedules them as one node) with ``is_subdag`` set,
    so the importer can tell a nested workflow reference apart from a
    plain job whose submit file happens to end in ``.dag``.
    """

    name: str
    submit_file: str
    directory: str | None = None
    noop: bool = False
    done: bool = False
    is_data: bool = False
    is_subdag: bool = False


@dataclass
class SpliceDecl:
    """One ``SPLICE`` statement: an inlined sub-workflow."""

    name: str
    file: str
    directory: str | None = None


@dataclass
class DagmanFile:
    """A parsed DAGMan input file.

    ``jobs`` preserves declaration order (it defines node ids and FIFO
    tie-breaking); ``arcs`` are expanded (parent, child) name pairs in
    statement order; ``vars_`` maps job name to its macro dict.  ``units``
    names every JOB/DATA/SUBDAG and SPLICE in statement order, as the
    parser read them (the importer's flat ids follow it).  ``lines`` is
    the file verbatim, and the mutation methods keep it in sync.
    """

    jobs: dict[str, JobDecl] = field(default_factory=dict)
    arcs: list[tuple[str, str]] = field(default_factory=list)
    vars_: dict[str, dict[str, str]] = field(default_factory=dict)
    splices: dict[str, SpliceDecl] = field(default_factory=dict)
    units: list[str] = field(default_factory=list)
    retries: dict[str, int] = field(default_factory=dict)
    #: SCRIPT hooks: (job name, "pre"|"post") -> shell command line
    scripts: dict[tuple[str, str], str] = field(default_factory=dict)
    #: names from standalone ``DONE name`` statements (DAGMan's partial
    #: rescue-file format), in statement order; names of jobs declared in
    #: the same file additionally get their ``JobDecl.done`` flag set
    done_names: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    #: line index of each job's VARS statement defining jobpriority, if any
    _jobpriority_lines: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def to_dag(self) -> Dag:
        """The dependency dag (labels = job names, ids in declaration order).

        Duplicate dependencies collapse; unknown job names in PARENT/CHILD
        raise ``ValueError`` (DAGMan would likewise reject the file).
        Files containing splices must be flattened first
        (:func:`repro.dagman.importer.import_dagman_file`).
        """
        if self.splices:
            raise ValueError(
                "file contains SPLICE statements; flatten it first "
                "(repro.dagman.import_dagman_file)"
            )
        builder = DagBuilder()
        for name in self.jobs:
            builder.add_job(name)
        for parent, child in self.arcs:
            for endpoint in (parent, child):
                if endpoint not in self.jobs:
                    raise ValueError(
                        f"dependency references undeclared job {endpoint!r}"
                    )
            builder.add_dependency(parent, child)
        return builder.build()

    def get_priority(self, job: str) -> int | None:
        """The job's ``jobpriority`` macro value, if assigned."""
        value = self.vars_.get(job, {}).get(JOBPRIORITY_MACRO)
        return int(value) if value is not None else None

    # ------------------------------------------------------------------
    # Mutation (keeps `lines` in sync)
    # ------------------------------------------------------------------

    def set_priority(self, job: str, priority: int) -> None:
        """Define ``VARS <job> jobpriority="<priority>"``, replacing any
        previous assignment made through this method or the parser."""
        if job not in self.jobs:
            raise KeyError(f"unknown job {job!r}")
        self.set_priorities({job: priority})

    def set_priorities(self, priorities: dict[str, int]) -> None:
        """Assign many priorities (jobs in declaration order for stable
        output regardless of dict order).  A job whose ``jobpriority`` has
        a line already gets it replaced in place; the others get a
        ``VARS`` line appended."""
        jobs = self.jobs
        if not priorities.keys() <= jobs.keys():
            unknown = sorted(priorities.keys() - jobs.keys())
            raise KeyError(f"unknown jobs: {unknown}")
        vars_, lines, at_line = self.vars_, self.lines, self._jobpriority_lines
        for name in jobs:
            if name not in priorities:
                continue
            priority = priorities[name]
            macros = vars_.get(name)
            if macros is None:
                vars_[name] = {JOBPRIORITY_MACRO: str(priority)}
            else:
                macros[JOBPRIORITY_MACRO] = str(priority)
            stmt = f'VARS {name} {JOBPRIORITY_MACRO}="{priority}"'
            at = at_line.get(name)
            if at is None:
                at_line[name] = len(lines)
                lines.append(stmt)
            else:
                lines[at] = stmt

    def render(self) -> str:
        """The file text (original lines plus any instrumentation)."""
        return "\n".join(self.lines) + ("\n" if self.lines else "")
