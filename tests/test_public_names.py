"""Every public name in ``src/repro`` has a caller outside the tests.

A public top-level ``def`` or ``class`` of a ``src/repro`` module, or a
public method of a public class, must be referenced by name somewhere in
``src/``, ``benchmarks/`` or ``examples/``.  References are ``Name`` and
``Attribute`` nodes of the AST, so imports and ``__all__`` entries do not
count, and an attribute matches every method of that name (the scan
undercounts dead methods; it never flags a live one).

A name that only documentation or the tests use stays only with an entry
in ``ALLOWLIST``.  Its reason names the user, and cites at least one repo
file that mentions the name; a test oracle belongs under ``tests/``
instead (``tests/core/decompose_reference.py``, ``tests/sim/analytic.py``).
An entry must be removed once its name is gone or gains a caller.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples")

_DAG_VOCABULARY = (
    "docs/API.md 'Build or load a dag': the dag-construction vocabulary; "
    "test fixtures build on it"
)

#: name (``Class.method`` for methods) -> who uses it, citing a repo file.
ALLOWLIST: dict[str, str] = {
    "fork": _DAG_VOCABULARY,
    "complete_bipartite": _DAG_VOCABULARY,
    "compose_series": _DAG_VOCABULARY,
    "compose_identified": _DAG_VOCABULARY,
    "layered_random": _DAG_VOCABULARY,
    "random_dag": _DAG_VOCABULARY,
    "Dag.from_networkx": "docs/API.md networkx interop",
    "Dag.to_networkx": (
        "docs/API.md networkx interop; tests/dag/transitive_reference.py "
        "builds its reduction oracle on it"
    ),
    "is_valid_schedule": "docs/API.md schedule validation",
    "DagmanFile.set_priority": "docs/FORMAT.md priority editing",
    "ServeClient.healthz": "docs/API.md and docs/TESTING.md GET /healthz",
    "ServeResponse.error_code": "docs/API.md ServeClient row",
    "ExecutionTrace": "docs/MODEL.md 'Traces' (the simulate(trace=) hook)",
    "ExecutionTrace.time_average": "docs/MODEL.md 'Traces'",
    "theoretical_algorithm": (
        "docs/THEORY.md Sec. 2.2 algorithm; the oracle of ROADMAP.md item 1"
    ),
    "find_ic_optimal_schedule": "docs/THEORY.md IC-optimal existence check",
    "bipartite_envelope": "docs/API.md exact two-level results",
    "has_priority": "docs/API.md priority relations",
    "mesh_dag": "docs/API.md mesh computations; README.md theory extensions",
    "triangular_mesh_dag": "docs/API.md mesh computations",
    "mesh_schedule": "docs/API.md mesh computations",
    "diagonal_schedule": "docs/API.md mesh computations",
}

_CITED = re.compile(r"[\w./-]+\.(?:md|py)\b")


def public_names() -> dict[str, str]:
    """``{name: "path:line"}`` for every public top-level def and class,
    and ``Class.method`` for every public method of a public class."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            found[node.name] = f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = (
                            f"{where}:{item.lineno}"
                        )
    return found


def referenced_names() -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr outside the tests."""
    refs = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
    return refs


def unreferenced() -> dict[str, str]:
    refs = referenced_names()
    return {
        name: where
        for name, where in public_names().items()
        if name.rpartition(".")[2] not in refs
    }


def test_every_public_name_has_a_caller_or_an_allowlist_entry():
    missing = [
        f"{where} {name}"
        for name, where in unreferenced().items()
        if name not in ALLOWLIST
    ]
    assert not missing, (
        "public names with no caller in src/, benchmarks/ or examples/ "
        "(delete them, move a test oracle under tests/, or allowlist a "
        "documented user):\n" + "\n".join(missing)
    )


def test_allowlist_entries_are_unreferenced_public_names():
    names, dead = public_names(), unreferenced()
    stale = [
        f"{name}: " + ("no such public name" if name not in names
                       else f"has a caller now ({names[name]})")
        for name in ALLOWLIST
        if name not in dead
    ]
    assert not stale, "remove these allowlist entries:\n" + "\n".join(stale)


def test_allowlist_reasons_cite_a_user_that_names_it():
    bad = []
    for name, reason in ALLOWLIST.items():
        cited = [ROOT / c for c in _CITED.findall(reason.strip())]
        bare = name.rpartition(".")[2]
        if not any(
            path.is_file() and bare in path.read_text(encoding="utf-8")
            for path in cited
        ):
            bad.append(f"{name}: {reason!r}")
    assert not bad, (
        "each reason must cite a repo file that mentions the name:\n"
        + "\n".join(bad)
    )
