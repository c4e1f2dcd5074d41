"""Lint reports what import rejects.

``lint_dagman_tree`` walks a tree with the importer's own flattener, so
over any input the two must agree: ``import_dagman_tree`` either returns
or raises :class:`DagmanImportError`, ``lint_dagman_tree`` never raises,
and the import raises exactly when lint reports an ``error`` finding of
one of the codes the import rejects on.  Two input families: small
generated trees of includes (names that clash after namespacing,
``$(JOB)`` and ``$(v)`` include references, missing and self includes,
undeclared arc endpoints), and line- and character-level mutations of
the cax and nipype corpus trees.
"""

from __future__ import annotations

import posixpath

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dagman.importer import DagmanImportError, import_dagman_tree
from repro.dagman.lint import lint_dagman_tree
from repro.workloads.corpus import CAX_ROOT, NIPYPE_ROOT, cax_tree, nipype_tree

#: Finding codes of the conditions the import raises on.
IMPORT_ERRORS = frozenset((
    "missing-include", "parse-error", "include-cycle", "include-depth",
    "undefined-macro", "name-clash", "undeclared-job", "cycle",
))


def assert_agree(tree: dict[str, str], root: str) -> None:
    try:
        import_dagman_tree(tree, root)
        raised = None
    except DagmanImportError as exc:
        raised = exc
    findings = lint_dagman_tree(tree, root)
    rejecting = [
        f for f in findings
        if f.severity == "error" and f.code in IMPORT_ERRORS
    ]
    assert (raised is not None) == bool(rejecting), (
        tree, raised, [str(f) for f in findings]
    )


# -- generated trees --------------------------------------------------------

ROOT = "root.dag"
#: File keys; ``s+a.dag`` and ``a.dag`` are what ``$(JOB).dag`` reads for
#: an include ``a`` nested in an include ``s``, by flat and by local name.
FILES = (ROOT, "a.dag", "s.dag", "s+a.dag")
#: Unit names; ``s+a`` clashes with an ``a`` namespaced by an include ``s``.
NAMES = ("a", "s", "s+a")
SELF = object()
REFS = FILES + ("gone.dag", "$(JOB).dag", "$(v).dag", SELF)


@st.composite
def dag_files(draw, key: str) -> str:
    units = draw(st.lists(
        st.tuples(
            st.sampled_from(("JOB", "SPLICE", "SUBDAG EXTERNAL")),
            st.sampled_from(NAMES),
        ),
        max_size=4,
        unique_by=lambda unit: unit[1],
    ))
    lines = []
    for kind, name in units:
        if kind == "JOB":
            lines.append(f"JOB {name} {name}.sub")
        else:
            ref = draw(st.sampled_from(REFS))
            lines.append(f"{kind} {name} {key if ref is SELF else ref}")
        if draw(st.booleans()):
            value = draw(st.sampled_from(("a", "s", "s+a", "zz")))
            lines.append(f'VARS {name} v="{value}"')
    names = [name for _, name in units]
    arcs = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names))
        .filter(lambda arc: arc[0] != arc[1]),
        max_size=3,
    )) if len(names) > 1 else []
    if names and draw(st.integers(0, 9)) == 0:  # an undeclared name
        arcs.append((names[0], "ghost"))
    lines += [f"PARENT {p} CHILD {c}" for p, c in arcs]
    return "\n".join(lines) + "\n"


@st.composite
def trees(draw) -> dict[str, str]:
    return {key: draw(dag_files(key)) for key in FILES}


@settings(max_examples=300)
@given(trees())
# $(JOB) in an include reference is the include's flat name.
@example({ROOT: "SPLICE A a.dag", "a.dag": "SUBDAG EXTERNAL B $(JOB).dag",
          "A+B.dag": "JOB x x.sub"})
@example({ROOT: "SPLICE A a.dag", "a.dag": "SUBDAG EXTERNAL B $(JOB).dag",
          "B.dag": "JOB x x.sub"})
# A clash only after namespacing.
@example({ROOT: "SPLICE A a.dag\nJOB A+x x.sub", "a.dag": "JOB x x.sub"})
# A cycle through an empty include vanishes from the flat dag.
@example({ROOT: "SPLICE s e.dag\nJOB a a.sub\nPARENT a CHILD s\n"
          "PARENT s CHILD a", "e.dag": ""})
def test_generated_trees_agree(tree):
    assert_agree(tree, ROOT)


# -- mutated corpus trees ---------------------------------------------------

SEEDS = {
    "cax": (cax_tree(runs=2, chunks=2), CAX_ROOT),
    "nipype": (nipype_tree(subjects=2, depth=2), NIPYPE_ROOT),
}
OPS = (
    "drop", "duplicate", "swap", "truncate", "bit-flip", "self-include",
    "undefined-macro", "done",
)


def mutate(draw, key: str, text: str, op: str) -> str:
    lines = text.splitlines()
    line = st.integers(0, max(0, len(lines) - 1))
    char = st.integers(0, max(0, len(text) - 1))
    if op in ("drop", "duplicate", "swap", "done") and not lines:
        return text
    if op == "drop":
        del lines[draw(line)]
    elif op == "duplicate":
        i = draw(line)
        lines.insert(i, lines[i])
    elif op == "swap":
        i, j = draw(line), draw(line)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "truncate":
        return text[:draw(char)]
    elif op == "bit-flip":
        if not text:
            return text
        k = draw(char)
        flipped = chr(ord(text[k]) ^ (1 << draw(st.integers(0, 6))))
        return text[:k] + flipped + text[k + 1:]
    elif op == "self-include":
        lines.append(f"SPLICE self_ {posixpath.basename(key)}")
    elif op == "undefined-macro":
        lines.append("SPLICE macro_ $(undefined_macro)/inner.dag")
    else:  # a DONE on a job whose parents may not be done
        jobs = [i for i, row in enumerate(lines) if row.startswith("JOB ")]
        if jobs:
            lines[draw(st.sampled_from(jobs))] += " DONE"
    return "\n".join(lines) + "\n"


@st.composite
def mutated_trees(draw) -> tuple[dict[str, str], str]:
    seed, root = SEEDS[draw(st.sampled_from(sorted(SEEDS)))]
    tree = dict(seed)
    dag_keys = sorted(key for key in tree if key.endswith(".dag"))
    for op in draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=3)):
        key = draw(st.sampled_from(dag_keys))
        tree[key] = mutate(draw, key, tree[key], op)
    return tree, root


@settings(max_examples=200)
@given(mutated_trees())
def test_mutated_corpus_trees_agree(case):
    assert_agree(*case)
