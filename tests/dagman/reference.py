"""Reference implementations the DAGMan fast paths are pinned to.

``parse_dagman_text`` is the statement loop as it was before the parser
looked keywords up as written and took flagless ``JOB`` and one-pair
``PARENT`` lines without a token scan: every keyword is upper-cased and
every ``JOB`` and ``PARENT`` statement goes through its handler.  The
handlers for the other statements are shared with ``repro.dagman.parser``
(no fast path touches them).  ``set_priority``/``set_priorities`` are the
per-job instrumentation of :class:`~repro.dagman.model.DagmanFile` before
it became one loop.  ``tests/dagman/test_fast_paths.py`` checks the
program against both.
"""

from __future__ import annotations

from repro.dagman.model import JOBPRIORITY_MACRO, DagmanFile, JobDecl
from repro.dagman.parser import (
    DagmanParseError,
    _parse_done,
    _parse_retry,
    _parse_script,
    _parse_splice,
    _parse_subdag,
    _parse_vars,
)


def parse_dagman_text(text: str) -> DagmanFile:
    result = DagmanFile()
    lines = result.lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        keyword = tokens[0].upper()
        if keyword in ("JOB", "DATA"):
            _parse_job(result, tokens, line_no, is_data=(keyword == "DATA"))
        elif keyword == "PARENT":
            _parse_parent_child(result, tokens, line_no)
        elif keyword == "VARS":
            _parse_vars(result, tokens, raw.strip(), line_no)
        elif keyword == "RETRY":
            _parse_retry(result, tokens, line_no)
        elif keyword == "SCRIPT":
            _parse_script(result, tokens, raw.strip(), line_no)
        elif keyword == "SPLICE":
            _parse_splice(result, tokens, line_no)
        elif keyword == "SUBDAG":
            _parse_subdag(result, tokens, line_no)
        elif keyword == "DONE":
            _parse_done(result, tokens, line_no)
        elif keyword in (
            "PRIORITY",
            "CONFIG",
            "DOT",
            "MAXJOBS",
            "CATEGORY",
            "ABORT-DAG-ON",
            "NODE_STATUS_FILE",
            "JOBSTATE_LOG",
            "FINAL",
            "REJECT",
            "SET_JOB_ATTR",
            "ENV",
            "INCLUDE",
            "PRE_SKIP",
        ):
            continue
        else:
            raise DagmanParseError(f"unknown keyword {tokens[0]!r}", line_no)
    return result


def _parse_job(
    result: DagmanFile, tokens: list[str], line_no: int, *, is_data: bool
) -> None:
    if len(tokens) < 3:
        raise DagmanParseError("JOB needs a name and a submit file", line_no)
    name, submit_file = tokens[1], tokens[2]
    if name in result.jobs:
        raise DagmanParseError(f"duplicate job name {name!r}", line_no)
    decl = JobDecl(name=name, submit_file=submit_file, is_data=is_data)
    rest = tokens[3:]
    i = 0
    while i < len(rest):
        flag = rest[i].upper()
        if flag == "DIR":
            if i + 1 >= len(rest):
                raise DagmanParseError("DIR needs a directory", line_no)
            decl.directory = rest[i + 1]
            i += 2
        elif flag == "NOOP":
            decl.noop = True
            i += 1
        elif flag == "DONE":
            decl.done = True
            i += 1
        else:
            raise DagmanParseError(f"unexpected JOB token {rest[i]!r}", line_no)
    result.jobs[name] = decl
    result.units.append(name)


def _parse_parent_child(
    result: DagmanFile, tokens: list[str], line_no: int
) -> None:
    for child_at in range(1, len(tokens)):
        if tokens[child_at].upper() == "CHILD":
            break
    else:
        raise DagmanParseError("PARENT without CHILD", line_no)
    parents = tokens[1:child_at]
    children = tokens[child_at + 1:]
    if not parents or not children:
        raise DagmanParseError(
            "PARENT/CHILD needs at least one job on each side", line_no
        )
    for p in parents:
        for c in children:
            if p == c:
                raise DagmanParseError(f"job {p!r} cannot depend on itself", line_no)
            result.arcs.append((p, c))


def set_priority(dagman: DagmanFile, job: str, priority: int) -> None:
    if job not in dagman.jobs:
        raise KeyError(f"unknown job {job!r}")
    dagman.vars_.setdefault(job, {})[JOBPRIORITY_MACRO] = str(priority)
    stmt = f'VARS {job} {JOBPRIORITY_MACRO}="{priority}"'
    at = dagman._jobpriority_lines.get(job)
    if at is not None:
        dagman.lines[at] = stmt
    else:
        dagman._jobpriority_lines[job] = len(dagman.lines)
        dagman.lines.append(stmt)


def set_priorities(dagman: DagmanFile, priorities: dict[str, int]) -> None:
    unknown = sorted(set(priorities) - set(dagman.jobs))
    if unknown:
        raise KeyError(f"unknown jobs: {unknown}")
    for name in dagman.jobs:
        if name in priorities:
            set_priority(dagman, name, priorities[name])
