"""Golden digests of the importer's whole output.

Every case imports one workflow tree and hashes five facets of the
result: the flattened render, the dag fingerprint, the flat labels, the
flat name arcs and the JSON payload (which carries the per-job
metadata).  A sixth digest pins the render after ``prio``
instrumentation.  The digests in ``import_digests.json`` were computed
before the importer became a single pass, so any change to flat ids,
arc order, metadata or rendered text fails here, naming the case and
the facet.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.prio import prio_schedule
from repro.dagman.importer import import_dagman_file, import_dagman_tree
from repro.workloads.corpus import cax_tree, nipype_tree
from repro.workloads.export import export_workflow
from repro.workloads.registry import get_workload

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = json.loads(
    (Path(__file__).parent / "import_digests.json").read_text()
)

#: One tree using every feature the importer resolves: SPLICE (twice,
#: once nested inside a sub-dag), SUBDAG EXTERNAL, DIR scoping, VARS
#: inheritance, ``$(JOB)`` in submit files and DIRs, RETRY with
#: UNLESS-EXIT, SCRIPT PRE/POST, NOOP, DONE, a restated arc, verbatim
#: directives and rescue companions at two levels.
FEATURE_TREE = {
    "root.dag": """\
# every importer feature
JOB prep $(JOB).sub DIR pre NOOP
SCRIPT PRE prep setup.sh $(JOB)
SPLICE sp inner/splice.dag DIR sp_$(tag)
VARS sp tag="x" mode="fast"
SUBDAG EXTERNAL sub sub/outer.dag DIR subdir
VARS sub run="7" quote="say \\"hi\\""
RETRY sub 2
JOB done_job done.sub DONE
JOB final final_$(JOB).sub
VARS final jobpriority="3"
SCRIPT POST final check.sh --strict
RETRY final 3 UNLESS-EXIT 2
PARENT prep CHILD sp sub
PARENT sp sub done_job CHILD final
PARENT prep CHILD sp
PRIORITY final 5
CATEGORY final heavy
""",
    "root.dag.rescue001": "DONE prep\n",
    "root.dag.rescue002": "DONE done_job\nDONE sp\n",
    "inner/splice.dag": """\
JOB a a_$(mode).sub
JOB b b.sub DIR $(JOB)_dir
VARS b extra="1"
SCRIPT POST a post.sh $(JOB)
SCRIPT PRE b pre.sh
PARENT a CHILD b
""",
    "sub/outer.dag": """\
JOB x x_$(run).sub
SPLICE deep ../inner/splice.dag
VARS deep mode="slow"
JOB y y.sub
JOB lone lone.sub
PARENT x CHILD deep
PARENT deep CHILD y
RETRY x 1
""",
    "sub/outer.dag.rescue": "JOB x x.sub DONE\nJOB y y.sub\n",
}

OPTIONS = {
    "plain": {},
    "rescue": {"rescue": True},
    "opaque": {"expand_subdags": False},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(w) -> dict[str, str]:
    """The five import facets plus the instrumented render, hashed."""
    dag = w.dag
    facets = {
        "render": _sha(w.render()),
        "fingerprint": w.fingerprint(),
        "labels": _sha("\n".join(dag.labels)),
        "arcs": _sha("\n".join(f"{p} {c}" for p, c in w.flat.arcs)),
        "json": _sha(json.dumps(w.to_json(), sort_keys=True)),
    }
    prio = prio_schedule(dag).priorities
    w.flat.set_priorities({dag.label(u): prio[u] for u in range(dag.n)})
    facets["prioritized"] = _sha(w.render())
    return facets


def _corpus(root: str, **options):
    return lambda tmp: import_dagman_file(CORPUS / root, **options)


def _memory(tree_fn, args, root, **options):
    return lambda tmp: import_dagman_tree(tree_fn(*args), root, **options)


def _exported(name):
    def load(tmp):
        path, _ = export_workflow(get_workload(name), tmp / name)
        return import_dagman_file(path)
    return load


def _features(**options):
    return lambda tmp: import_dagman_tree(FEATURE_TREE, "root.dag", **options)


CASES = {
    "corpus-nipype": _corpus("nipype/workflow.dag"),
    **{
        f"corpus-cax-{opt}": _corpus("cax/production.dag", **kw)
        for opt, kw in OPTIONS.items()
    },
    **{
        f"nipype-{s}x{d}": _memory(nipype_tree, (s, d), "workflow.dag")
        for s, d in ((1, 1), (12, 5), (40, 8))
    },
    **{
        f"cax-{r}x{c}": _memory(cax_tree, (r, c), "production.dag")
        for r, c in ((1, 1), (8, 4), (25, 12))
    },
    **{f"export-{name}": _exported(name)
       for name in ("inspiral", "montage", "sdss-small")},
    **{f"features-{opt}": _features(**kw) for opt, kw in OPTIONS.items()},
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_import_digests(case, tmp_path):
    got = digests(CASES[case](tmp_path))
    for facet, want in GOLDEN[case].items():
        assert got[facet] == want, f"{case}: {facet} digest changed"


@pytest.mark.parametrize("opt", sorted(OPTIONS))
def test_meta_vars_survive_set_priorities(opt):
    """``meta[...].vars`` are the import-time macros, whether ``meta`` is
    first read before or after the flat file is instrumented."""
    read_first = _features(**OPTIONS[opt])(None)
    before = {name: dict(m.vars) for name, m in read_first.meta.items()}
    for w in (read_first, _features(**OPTIONS[opt])(None)):
        w.flat.set_priorities(
            {name: i + 1 for i, name in enumerate(w.flat.jobs)}
        )
        assert {name: m.vars for name, m in w.meta.items()} == before
        assert _sha(json.dumps(w.to_json(), sort_keys=True)) == (
            GOLDEN[f"features-{opt}"]["json"]
        )
