"""Job-submit description files (JSDF) and their instrumentation.

A JSDF is Condor's ``key = value`` submit file ending in one or more
``queue`` statements.  The prio tool instruments each JSDF with a single
line::

    priority = $(jobpriority)

so the per-job ``jobpriority`` macro defined in the DAGMan file (via VARS)
becomes the Condor job priority — the indirection of Fig. 3, chosen because
one JSDF may serve jobs of several DAGMan files needing different
priorities.
"""

from __future__ import annotations

import re

from .model import JOBPRIORITY_MACRO

__all__ = [
    "PRIORITY_LINE",
    "parse_jsdf",
    "instrument_jsdf_text",
]

#: The exact line the prio tool adds.
PRIORITY_LINE = f"priority = $({JOBPRIORITY_MACRO})"

_ASSIGN_RE = re.compile(r"^\s*([\w.+\-]+)\s*=\s*(.*?)\s*$")
_QUEUE_RE = re.compile(r"^\s*queue\b", re.IGNORECASE)


def parse_jsdf(text: str) -> dict[str, str]:
    """Parse a JSDF into its attribute map (last assignment wins).

    Comments (``#``) and ``queue`` statements are skipped; this is a
    deliberately small subset of the condor_submit language, enough for the
    tool and the tests.
    """
    attrs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or _QUEUE_RE.match(line):
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            attrs[m.group(1).lower()] = m.group(2)
    return attrs


def instrument_jsdf_text(text: str) -> str:
    """Insert ``priority = $(jobpriority)`` before the first ``queue``.

    Any existing ``priority`` assignment is replaced in place; without a
    ``queue`` statement the line is appended.  Idempotent.
    """
    lines = text.splitlines()
    for i, raw in enumerate(lines):
        m = _ASSIGN_RE.match(raw)
        if m and m.group(1).lower() == "priority":
            lines[i] = PRIORITY_LINE
            return "\n".join(lines) + ("\n" if text.endswith("\n") or lines else "")
    for i, raw in enumerate(lines):
        if _QUEUE_RE.match(raw.strip()):
            lines.insert(i, PRIORITY_LINE)
            break
    else:
        lines.append(PRIORITY_LINE)
    return "\n".join(lines) + "\n"

