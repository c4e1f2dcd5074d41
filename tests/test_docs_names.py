"""Every ``repro.…`` name the prose docs put in backticks must exist.

DESIGN.md, README.md and docs/*.md name modules, classes and functions by
their dotted path.  A rename or a deletion that forgets the docs leaves a
dangling name; this test resolves each one, as a module or as an attribute
of the longest importable module prefix.  The API tables name things by
their bare name next to a module column; those resolve on that module.
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
            if not (module + ".").startswith(exc.name + "."):
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


# A table row ``| `name`, `other` | `repro.module` | what |``: every
# backticked name in the first column is read as an attribute of the
# module in the second.  ``a/b`` names two attributes; a call signature
# is resolved by the name before its ``(``.
_ROW = re.compile(r"^\|([^|\n]*)\|\s*`(repro(?:\.\w+)*)`\s*\|", re.MULTILINE)


def table_names() -> list:
    found = {}
    for path in DOCS:
        doc = path.relative_to(ROOT).as_posix()
        text = path.read_text(encoding="utf-8")
        for row in _ROW.finditer(text):
            line = text.count("\n", 0, row.start()) + 1
            for span in _SPAN.findall(row.group(1)):
                for name in span.split("(")[0].split("/"):
                    key = (doc, row.group(2), name.strip())
                    found.setdefault(key, f"{doc}:{line}")
    return [
        pytest.param(where, module, name, id=f"{doc}-{module}-{name}")
        for (doc, module, name), where in sorted(found.items())
    ]


def test_the_tables_name_something():
    assert len(table_names()) > 100


@pytest.mark.parametrize("where, module, name", table_names())
def test_table_name_resolves_on_its_module(where, module, name):
    assert re.fullmatch(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", name), (
        f"{where}: `{name}` is not a name"
    )
    assert resolves(f"{module}.{name}"), (
        f"{where} lists `{name}` under `{module}`, which has no such name"
    )
