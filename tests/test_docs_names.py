"""Every ``repro.…`` name the prose docs put in backticks must exist.

DESIGN.md, README.md and docs/*.md name modules, classes and functions by
their dotted path.  A rename or a deletion that forgets the docs leaves a
dangling name; this test resolves each one, as a module or as an attribute
of the longest importable module prefix.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "DESIGN.md",
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def documented_names() -> list[tuple[str, str]]:
    found = set()
    for path in DOCS:
        for span in _SPAN.findall(path.read_text(encoding="utf-8")):
            for name in _NAME.findall(span):
                found.add((path.relative_to(ROOT).as_posix(), name))
    return sorted(found)


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise  # an existing module failed to import
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_docs_name_something():
    assert len(documented_names()) > 50


@pytest.mark.parametrize("doc, name", documented_names(), ids=lambda v: v)
def test_documented_name_resolves(doc, name):
    assert resolves(name), f"{doc} names `{name}`, which does not exist"
