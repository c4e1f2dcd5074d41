"""Parser → writer → parser round-trips on *generated DAGMan text*.

``test_roundtrip_fuzz.py`` starts from random ``Dag`` structures and
checks what the writer emits; this file closes the opposite gap: start
from randomly generated DAGMan *files* using the whole statement surface
(JOB flags, DATA, SUBDAG, multi-way PARENT/CHILD, VARS with escaped
quotes, RETRY with UNLESS-EXIT, PRE/POST scripts, comments, preserved
directives, mixed keyword case), push them through
``write_dagman_file`` and assert the re-parsed structure is identical —
and that writing is idempotent byte-for-byte.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dagman.parser import parse_dagman_file, parse_dagman_text
from repro.dagman.writer import write_dagman_file

COMMON = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
_VALUE_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " !$%&'()*+,-./:;<=>?@[]^_`{|}~"
)


def _cased(draw, keyword: str) -> str:
    """The keyword in upper, lower or capitalized case (all legal)."""
    style = draw(st.sampled_from(["upper", "lower", "title"]))
    return getattr(keyword, style)()


@st.composite
def _job_names(draw, max_jobs: int = 8) -> list[str]:
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    names = []
    for i in range(n):
        stem = draw(
            st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=6).filter(
                lambda s: s[0] not in ".-"
            )
        )
        names.append(f"{stem}_{i}")  # suffix guarantees uniqueness
    return names


@st.composite
def _vars_value(draw) -> str:
    """A quoted-value body; may contain spaces and escaped quotes."""
    parts = draw(
        st.lists(
            st.one_of(
                st.text(alphabet=_VALUE_ALPHABET, min_size=0, max_size=8),
                st.just('\\"'),
            ),
            min_size=0,
            max_size=3,
        )
    )
    return "".join(parts)


@st.composite
def dagman_texts(draw) -> str:
    """Random DAGMan file text using the full supported statement set."""
    names = draw(_job_names())
    lines: list[str] = []

    # Declarations first so PARENT/CHILD always references declared jobs
    # (required by to_dag(); the parser itself does not care).
    for name in names:
        kind = draw(st.sampled_from(["job", "job", "data", "subdag"]))
        if kind == "subdag":
            line = f"{_cased(draw, 'SUBDAG')} EXTERNAL {name} {name}.dag"
            if draw(st.booleans()):
                line += f" DIR run/{name}"
        else:
            keyword = _cased(draw, "JOB" if kind == "job" else "DATA")
            line = f"{keyword} {name} {name}.sub"
            if kind == "job":
                if draw(st.booleans()):
                    line += f" DIR work/{name}"
                if draw(st.booleans()):
                    line += " NOOP"
                if draw(st.booleans()):
                    line += " DONE"
        lines.append(line)

    extra: list[str] = []

    # PARENT p... CHILD c... with disjoint sides (p == c is rejected).
    # All statements respect one hidden topological order so the file
    # stays acyclic (to_dag() would otherwise raise CycleError).
    order = draw(st.permutations(names))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if len(names) < 2:
            break
        split = draw(st.integers(min_value=1, max_value=len(names) - 1))
        parents = order[:split][: draw(st.integers(1, 3))]
        children = order[split:][: draw(st.integers(1, 3))]
        extra.append(
            f"{_cased(draw, 'PARENT')} {' '.join(parents)}"
            f" {_cased(draw, 'CHILD')} {' '.join(children)}"
        )

    # VARS with one to three macro="value" assignments.
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        macros = draw(
            st.lists(
                st.text(alphabet="abcdefghijklmnop_", min_size=1, max_size=5),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        assignments = " ".join(
            f'{macro}="{draw(_vars_value())}"' for macro in macros
        )
        extra.append(f"{_cased(draw, 'VARS')} {name} {assignments}")

    # RETRY, optionally with the preserved UNLESS-EXIT clause.
    for name in draw(
        st.lists(st.sampled_from(names), max_size=3, unique=True)
    ):
        count = draw(st.integers(min_value=0, max_value=5))
        clause = f" UNLESS-EXIT {draw(st.integers(1, 4))}" if draw(
            st.booleans()
        ) else ""
        extra.append(f"{_cased(draw, 'RETRY')} {name} {count}{clause}")

    # At most one PRE and one POST script per job.
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        for when in draw(
            st.lists(st.sampled_from(["PRE", "POST"]), max_size=2, unique=True)
        ):
            args = " ".join(
                draw(
                    st.lists(
                        st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=5),
                        max_size=2,
                    )
                )
            )
            extra.append(
                f"{_cased(draw, 'SCRIPT')} {when} {name} ./hook.sh"
                + (f" {args}" if args else "")
            )

    # Recognized-but-unmodelled directives round-trip verbatim.
    directive_pool = [
        "CONFIG dagman.config",
        f"PRIORITY {names[0]} 7",
        f"CATEGORY {names[0]} bulk",
        "MAXJOBS bulk 3",
        "DOT workflow.dot",
        f"ABORT-DAG-ON {names[0]} 1",
    ]
    extra.extend(
        draw(st.lists(st.sampled_from(directive_pool), max_size=3, unique=True))
    )

    # Comments and blank lines anywhere between statements.
    for stmt in draw(st.permutations(extra)):
        if draw(st.booleans()):
            lines.append("")
        if draw(st.booleans()):
            lines.append("# " + draw(st.text(alphabet=_VALUE_ALPHABET, max_size=20)))
        lines.append(stmt)

    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _structure(dagman) -> tuple:
    return (
        dagman.jobs,
        dagman.arcs,
        dagman.vars_,
        dagman.retries,
        dagman.scripts,
        dagman.splices,
    )


def _write_and_reparse(dagman):
    """``write_dagman_file`` to a real path, then ``parse_dagman_file``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "workflow.dag"
        write_dagman_file(dagman, path)
        return parse_dagman_file(path), path.read_text()


@COMMON
@given(dagman_texts())
def test_parse_write_parse_preserves_structure(text):
    first = parse_dagman_text(text)
    second, written = _write_and_reparse(first)
    assert _structure(second) == _structure(first)
    # Writing the re-parsed model is byte-identical: one round trip
    # reaches the fixed point.
    assert second.render() == written == first.render()


@COMMON
@given(dagman_texts())
def test_round_trip_preserves_dependency_dag(text):
    first = parse_dagman_text(text)
    second, _ = _write_and_reparse(first)
    dag_a, dag_b = first.to_dag(), second.to_dag()
    assert dag_b.labels == dag_a.labels
    assert list(dag_b.arcs()) == list(dag_a.arcs())


@COMMON
@given(dagman_texts(), st.integers(min_value=-5, max_value=99))
def test_instrumentation_survives_round_trip(text, base):
    """set_priorities → write → parse keeps priorities and structure."""
    first = parse_dagman_text(text)
    priorities = {
        name: base + i for i, name in enumerate(first.jobs)
    }
    first.set_priorities(priorities)
    second, _ = _write_and_reparse(first)
    for name, priority in priorities.items():
        assert second.get_priority(name) == priority
    assert second.jobs == first.jobs
    assert second.arcs == first.arcs
    assert second.scripts == first.scripts
    assert second.retries == first.retries
