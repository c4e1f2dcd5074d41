"""Parser for DAGMan input files (the format of Condor's condor_submit_dag).

Supported statements (keywords are case-insensitive, as in DAGMan):

* ``JOB name submit.file [DIR dir] [NOOP] [DONE]``
* ``DATA name submit.file`` (legacy Stork transfer jobs; treated as jobs)
* ``PARENT p1 [p2 ...] CHILD c1 [c2 ...]`` — the cross product of arcs
* ``VARS name macro="value" [macro2="value2" ...]``
* ``SCRIPT PRE|POST name executable [args...]``
* ``RETRY name count [UNLESS-EXIT code]``
* ``PRIORITY name value``
* ``CONFIG`` / ``DOT`` / ``MAXJOBS`` / ``CATEGORY`` / ``ABORT-DAG-ON`` and
  any other directive — preserved verbatim and round-tripped

Full-line comments start with ``#``.  Malformed statements, and files
that are not UTF-8 text, raise :class:`DagmanParseError` with the line
number.
"""

from __future__ import annotations

import re
from pathlib import Path

from .model import JOBPRIORITY_MACRO, DagmanFile, JobDecl, SpliceDecl

__all__ = ["DagmanParseError", "parse_dagman_text", "parse_dagman_file"]


class DagmanParseError(ValueError):
    """A malformed DAGMan statement; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_VARS_RE = re.compile(r'(\w[\w.\-+]*)\s*=\s*"((?:[^"\\]|\\.)*)"')


def parse_dagman_file(path: str | Path) -> DagmanFile:
    """Parse the DAGMan input file at *path*."""
    return parse_dagman_text(_decode(Path(path).read_bytes()))


def _decode(data: bytes) -> str:
    """The UTF-8 text of a DAGMan file's bytes; anything else raises
    :class:`DagmanParseError` on the line of the first bad byte."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise DagmanParseError(
            f"not UTF-8 text (byte {data[exc.start]:#04x})",
            data.count(b"\n", 0, exc.start) + 1,
        ) from None


#: Recognized but structurally irrelevant to scheduling; the raw line is
#: preserved in ``DagmanFile.lines``.
_VERBATIM = frozenset((
    "PRIORITY", "CONFIG", "DOT", "MAXJOBS", "CATEGORY", "ABORT-DAG-ON",
    "NODE_STATUS_FILE", "JOBSTATE_LOG", "FINAL", "REJECT", "SET_JOB_ATTR",
    "ENV", "INCLUDE", "PRE_SKIP",
))
#: Every keyword as it is usually written: these skip the ``upper()``.
_CANONICAL = _VERBATIM | {
    "JOB", "DATA", "PARENT", "VARS", "RETRY", "SCRIPT", "SPLICE", "SUBDAG",
    "DONE",
}


def parse_dagman_text(text: str) -> DagmanFile:
    """Parse DAGMan file contents into a :class:`DagmanFile`.

    One statement loop.  A keyword is looked up as written and
    upper-cased only when it is not already canonical.  ``JOB``/``DATA``
    without flags and ``PARENT p CHILD c`` with one job on each side are
    taken without a token scan; every other form goes through its
    handler (docs/FORMAT.md, "One pass").
    """
    result = DagmanFile()
    lines = result.lines = text.splitlines()
    jobs, arcs, units = result.jobs, result.arcs, result.units
    canonical = _CANONICAL
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword not in canonical:
            if keyword.startswith("#"):
                continue
            keyword = keyword.upper()
        ntokens = len(tokens)
        if keyword == "PARENT":
            if ntokens == 4 and (
                (child := tokens[2]) == "CHILD" or child.upper() == "CHILD"
            ) and tokens[1].upper() != "CHILD":
                p, c = tokens[1], tokens[3]
                if p == c:
                    raise DagmanParseError(
                        f"job {p!r} cannot depend on itself", line_no
                    )
                arcs.append((p, c))
            else:
                _parse_parent_child(result, tokens, line_no)
        elif keyword == "JOB" or keyword == "DATA":
            if ntokens == 3:
                name = tokens[1]
                if name in jobs:
                    raise DagmanParseError(
                        f"duplicate job name {name!r}", line_no
                    )
                jobs[name] = JobDecl(
                    name, tokens[2], None, False, False, keyword == "DATA"
                )
                units.append(name)
            else:
                _parse_job(
                    result, tokens, line_no, is_data=(keyword == "DATA")
                )
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
        elif keyword not in _VERBATIM:
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


def _parse_script(
    result: DagmanFile, tokens: list[str], line: str, line_no: int
) -> None:
    # SCRIPT PRE|POST JobName executable [args...]
    if len(tokens) < 4 or tokens[1].upper() not in ("PRE", "POST"):
        raise DagmanParseError(
            "SCRIPT needs the form: SCRIPT PRE|POST job executable [args]",
            line_no,
        )
    when = tokens[1].lower()
    name = tokens[2]
    command = line.split(None, 3)[3]
    key = (name, when)
    if key in result.scripts:
        raise DagmanParseError(
            f"duplicate {when.upper()} script for job {name!r}", line_no
        )
    result.scripts[key] = command


def _parse_retry(result: DagmanFile, tokens: list[str], line_no: int) -> None:
    # RETRY JobName count [UNLESS-EXIT value]; the unless-exit clause is
    # accepted and preserved but not modelled by the runner.
    if len(tokens) < 3:
        raise DagmanParseError("RETRY needs a job name and a count", line_no)
    name = tokens[1]
    try:
        count = int(tokens[2])
    except ValueError:
        raise DagmanParseError(
            f"RETRY count must be an integer, got {tokens[2]!r}", line_no
        ) from None
    if count < 0:
        raise DagmanParseError("RETRY count cannot be negative", line_no)
    if len(tokens) > 3 and (
        len(tokens) != 5 or tokens[3].upper() != "UNLESS-EXIT"
    ):
        raise DagmanParseError(
            f"unexpected RETRY tokens {tokens[3:]!r}", line_no
        )
    result.retries[name] = count


def _parse_splice(result: DagmanFile, tokens: list[str], line_no: int) -> None:
    if len(tokens) < 3:
        raise DagmanParseError("SPLICE needs a name and a dag file", line_no)
    name, file = tokens[1], tokens[2]
    if name in result.splices or name in result.jobs:
        raise DagmanParseError(f"duplicate splice/job name {name!r}", line_no)
    decl = SpliceDecl(name=name, file=file)
    rest = tokens[3:]
    if rest:
        if len(rest) == 2 and rest[0].upper() == "DIR":
            decl.directory = rest[1]
        else:
            raise DagmanParseError(
                f"unexpected SPLICE tokens {rest!r}", line_no
            )
    result.splices[name] = decl
    result.units.append(name)


def _parse_subdag(result: DagmanFile, tokens: list[str], line_no: int) -> None:
    # SUBDAG EXTERNAL name file.dag [DIR dir]: scheduled by the outer
    # DAGMan as one opaque node, so it is modelled as a single job.
    if len(tokens) < 4 or tokens[1].upper() != "EXTERNAL":
        raise DagmanParseError(
            "SUBDAG needs the form: SUBDAG EXTERNAL name file", line_no
        )
    name, file = tokens[2], tokens[3]
    if name in result.jobs or name in result.splices:
        raise DagmanParseError(f"duplicate job name {name!r}", line_no)
    decl = JobDecl(name=name, submit_file=file, is_subdag=True)
    rest = tokens[4:]
    if rest:
        if len(rest) == 2 and rest[0].upper() == "DIR":
            decl.directory = rest[1]
        else:
            raise DagmanParseError(
                f"unexpected SUBDAG tokens {rest!r}", line_no
            )
    result.jobs[name] = decl
    result.units.append(name)


def _parse_done(result: DagmanFile, tokens: list[str], line_no: int) -> None:
    # DONE JobName: DAGMan's partial rescue-file format.  The name is
    # recorded whether or not the job is declared in this file (rescue
    # files are parsed standalone, without the JOB statements); declared
    # jobs additionally get their decl flagged.
    if len(tokens) != 2:
        raise DagmanParseError("DONE needs exactly one job name", line_no)
    name = tokens[1]
    result.done_names.append(name)
    if name in result.jobs:
        result.jobs[name].done = True


def _parse_vars(
    result: DagmanFile, tokens: list[str], line: str, line_no: int
) -> None:
    if len(tokens) < 3:
        raise DagmanParseError("VARS needs a job name and assignments", line_no)
    name = tokens[1]
    rest = line.split(None, 2)[2]
    assignments = _VARS_RE.findall(rest)
    if not assignments:
        raise DagmanParseError('VARS assignments must look like name="value"', line_no)
    macros = result.vars_.setdefault(name, {})
    for macro, value in assignments:
        macros[macro] = value.replace('\\"', '"')
        if macro == JOBPRIORITY_MACRO:
            result._jobpriority_lines[name] = line_no - 1
