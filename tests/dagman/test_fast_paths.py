"""The parser's and the instrumentation's fast paths against references.

``parse_dagman_text`` looks keywords up as written and takes flagless
``JOB``/``DATA`` and one-pair ``PARENT`` lines without a token scan;
``DagmanFile.set_priorities`` instruments in one loop.  The references in
``tests/dagman/reference.py`` are the plain versions.  Generated texts
mix keyword case, tabs, comments, blank lines, flags in any case,
multi-job and malformed ``PARENT`` lines, jobs named ``CHILD`` or
``PARENT``, duplicates, self-dependencies and unknown keywords; the
program must return the same file or raise the same error.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dagman.parser import DagmanParseError, parse_dagman_text

from . import reference

NAMES = ["a", "b", "c", "d", "CHILD", "child", "Child", "PARENT", "parent", "x.1"]
FILES = ["a.sub", "job.sub", "$(JOB).sub", "inner.dag"]


def cased(word: str) -> st.SearchStrategy[str]:
    """*word* with each letter upper- or lower-cased at random."""
    return st.lists(
        st.booleans(), min_size=len(word), max_size=len(word)
    ).map(
        lambda mask: "".join(
            ch.upper() if up else ch.lower() for ch, up in zip(word, mask)
        )
    )


def keyword(word: str) -> st.SearchStrategy[str]:
    """Mostly canonical, sometimes in any case."""
    return st.one_of(st.just(word), cased(word))


names = st.sampled_from(NAMES)
sep = st.sampled_from([" ", "\t", "  ", " \t "])


def statement(*parts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """*parts* joined by random whitespace, with optional indentation."""
    return st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.tuples(*parts),
        st.lists(sep, min_size=len(parts), max_size=len(parts)),
    ).map(
        lambda t: t[0] + "".join(
            s + p for s, p in zip([""] + t[2][1:], t[1])
        )
    )


job_flag = st.one_of(
    st.tuples(keyword("DIR"), st.sampled_from(["work", "run_$(run)"])).map(
        " ".join
    ),
    keyword("DIR"),  # missing directory
    keyword("NOOP"),
    keyword("DONE"),
    st.just("FROBNICATE"),
)
job = st.tuples(
    st.one_of(keyword("JOB"), keyword("DATA")),
    names,
    st.sampled_from(FILES),
    st.lists(job_flag, max_size=3),
).map(lambda t: " ".join([t[0], t[1], t[2], *t[3]]))
short_job = st.tuples(st.one_of(keyword("JOB"), keyword("DATA")), names).map(
    " ".join
)
one_pair = statement(keyword("PARENT"), names, keyword("CHILD"), names)
parent = st.tuples(
    keyword("PARENT"),
    st.lists(names, max_size=3),
    st.one_of(keyword("CHILD"), st.just("")),
    st.lists(names, max_size=3),
).map(lambda t: " ".join([t[0], *t[1], t[2], *t[3]]))
macro = st.sampled_from(["x", "run", "jobpriority"])
value = st.sampled_from(["1", "v6.1.1", 'say \\"hi\\"', "7"])
vars_ = st.one_of(
    st.tuples(keyword("VARS"), names, macro, value).map(
        lambda t: f'{t[0]} {t[1]} {t[2]}="{t[3]}"'
    ),
    st.tuples(keyword("VARS"), names).map(lambda t: f"{t[0]} {t[1]} novalue"),
)
other = st.one_of(
    st.tuples(keyword("RETRY"), names, st.sampled_from(["3", "-1", "x"])).map(
        " ".join
    ),
    st.tuples(keyword("RETRY"), names).map(
        lambda t: f"{t[0]} {t[1]} 2 UNLESS-EXIT 1"
    ),
    st.tuples(keyword("SCRIPT"), keyword("POST"), names).map(
        lambda t: f"{t[0]} {t[1]} {t[2]} clean.sh --all"
    ),
    st.tuples(keyword("SPLICE"), names).map(lambda t: f"{t[0]} {t[1]} s.dag"),
    st.tuples(keyword("SUBDAG"), names).map(
        lambda t: f"{t[0]} EXTERNAL {t[1]} inner.dag DIR r"
    ),
    st.tuples(keyword("DONE"), names).map(" ".join),
    st.sampled_from(["PRIORITY a 10", "config dagman.config", "Dot g.dot",
                     "MAXJOBS cat 4", "FLY me to.the.moon", "Jobs a a.sub"]),
    st.sampled_from(["# a comment", "#JOB a a.sub", "", "   ", "\t"]),
)
flagless = statement(
    st.one_of(keyword("JOB"), keyword("DATA")), names, st.sampled_from(FILES)
)
line = st.one_of(
    job, flagless, flagless, short_job, one_pair, one_pair, parent, vars_, other
)
texts = st.lists(line, max_size=14).map(lambda lines: "\n".join(lines) + "\n")


def parse_either(parse, text):
    """(file, None) or (None, (message, line number))."""
    try:
        return parse(text), None
    except DagmanParseError as exc:
        return None, (str(exc), exc.line_no)


def fields(f) -> dict:
    return {
        "jobs": [(name, dataclasses.astuple(d)) for name, d in f.jobs.items()],
        "arcs": f.arcs,
        "vars_": f.vars_,
        "splices": f.splices,
        "units": f.units,
        "retries": f.retries,
        "scripts": f.scripts,
        "done_names": f.done_names,
        "lines": f.lines,
        "_jobpriority_lines": f._jobpriority_lines,
    }


@given(texts)
def test_parser_matches_reference(text):
    got, got_error = parse_either(parse_dagman_text, text)
    want, want_error = parse_either(reference.parse_dagman_text, text)
    assert got_error == want_error
    if want is not None:
        assert fields(got) == fields(want)


@pytest.mark.parametrize(
    "text, message",
    [
        ("PARENT CHILD CHILD a\n", "at least one job on each side"),
        ("PARENT child CHILD a\n", "at least one job on each side"),
        ("parent Child child a\n", "at least one job on each side"),
        ("PARENT a CHILD a\n", "cannot depend on itself"),
        ("PARENT a b c\n", "PARENT without CHILD"),
        ("JOB a a.sub\njob a b.sub\n", "duplicate job name 'a'"),
        ("JOBS a a.sub\n", "unknown keyword 'JOBS'"),
    ],
)
def test_one_pair_and_flagless_guards(text, message):
    with pytest.raises(DagmanParseError, match=message) as exc:
        parse_dagman_text(text)
    with pytest.raises(DagmanParseError) as ref:
        reference.parse_dagman_text(text)
    assert (str(exc.value), exc.value.line_no) == (str(ref.value), ref.value.line_no)


def test_one_pair_child_named_child():
    text = "JOB a a.sub\nJOB CHILD c.sub\nparent a child CHILD\n"
    assert parse_dagman_text(text).arcs == [("a", "CHILD")]
    assert reference.parse_dagman_text(text).arcs == [("a", "CHILD")]


@st.composite
def valid_texts(draw) -> str:
    """A file that parses: unique jobs (none named ``CHILD``), arcs
    between distinct jobs, some ``jobpriority`` (and other) macros set
    before instrumentation."""
    jobs = draw(st.lists(
        st.sampled_from([n for n in NAMES if n.upper() != "CHILD"]),
        min_size=1, unique=True,
    ))
    lines = [draw(statement(keyword("JOB"), st.just(j), st.just("j.sub")))
             for j in jobs]
    for _ in range(draw(st.integers(0, 6))):
        p, c = draw(st.sampled_from(jobs)), draw(st.sampled_from(jobs))
        if p != c:
            lines.append(f"PARENT {p} CHILD {c}")
        lines.append(draw(st.sampled_from(
            ["# comment", "", f'VARS {p} jobpriority="3"', f'VARS {c} x="1"']
        )))
    return "\n".join(draw(st.permutations(lines))) + "\n"


priorities = st.dictionaries(
    st.sampled_from(NAMES + ["ghost"]), st.integers(-5, 50), max_size=8
)


def apply_either(apply, dagman, *args):
    try:
        apply(dagman, *args)
    except KeyError as exc:
        return str(exc)
    return None


@given(valid_texts(), priorities, priorities,
       st.sampled_from(NAMES + ["ghost"]), st.integers(0, 9))
def test_instrumentation_matches_reference(text, first, second, job, single):
    got = parse_dagman_text(text)
    want = copy.deepcopy(got)
    for batch in (first, second):
        assert apply_either(type(got).set_priorities, got, batch) == (
            apply_either(reference.set_priorities, want, batch)
        )
        assert got.render() == want.render()
        assert fields(got) == fields(want)
    assert apply_either(type(got).set_priority, got, job, single) == (
        apply_either(reference.set_priority, want, job, single)
    )
    assert got.render() == want.render()
    assert fields(got) == fields(want)


#: Every line form the flattener renders: a cross product of two
#: multi-job splices (arc order), NOOP and DONE together, DATA, an opaque
#: SUBDAG with DIR, RETRY, SCRIPT and a VARS value that needs quoting.
#: The expected texts were rendered by the importer before its per-unit
#: lookups were hoisted out of the flattening loop.
RENDER_TREE = {
    "root.dag": (
        "JOB prep prep.sub DIR pre NOOP DONE\n"
        "SPLICE left left.dag DIR l\n"
        "SPLICE right right.dag\n"
        "SUBDAG EXTERNAL ext ext.dag DIR x\n"
        'VARS left tag="say \\"hi\\" \\\\ there"\n'
        "RETRY right 2\n"
        "SCRIPT POST prep clean.sh --all\n"
        "PARENT left CHILD right\n"
        "PARENT prep CHILD left ext\n"
    ),
    "left.dag": "JOB a a.sub\nJOB b b.sub\n",
    "right.dag": "DATA c c.sub\nJOB d d.sub DONE NOOP\n",
    "ext.dag": "JOB e e.sub\n",
}
RENDER_HEAD = """\
JOB prep prep.sub DIR pre NOOP DONE
JOB left+a a.sub DIR l
JOB left+b b.sub DIR l
DATA right+c c.sub
JOB right+d d.sub NOOP DONE
"""
RENDER_TAIL = """\
PARENT left+a CHILD right+c
PARENT left+a CHILD right+d
PARENT left+b CHILD right+c
PARENT left+b CHILD right+d
PARENT prep CHILD left+a
PARENT prep CHILD left+b
PARENT prep CHILD {ext}
RETRY right+c 2
RETRY right+d 2
SCRIPT POST prep clean.sh --all
VARS left+a tag="say \\"hi\\" \\\\\\\\ there"
VARS left+b tag="say \\"hi\\" \\\\\\\\ there"
"""


@pytest.mark.parametrize("expand", [True, False])
def test_flat_render_bytes(expand):
    from repro.dagman.importer import import_dagman_tree

    flat = import_dagman_tree(RENDER_TREE, "root.dag", expand_subdags=expand)
    ext, node = (
        ("ext+e", "JOB ext+e e.sub DIR x") if expand
        else ("ext", "SUBDAG EXTERNAL ext ext.dag DIR x")
    )
    assert flat.render() == (
        RENDER_HEAD + node + "\n" + RENDER_TAIL.format(ext=ext)
    )
    assert parse_dagman_text(flat.render()).arcs == flat.flat.arcs
