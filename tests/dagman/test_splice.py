"""Tests for SPLICE statements and their flattening by the importer."""

import pytest

from repro.dagman.importer import (
    DagmanImportError,
    import_dagman_file,
    import_dagman_tree,
)
from repro.dagman.parser import DagmanParseError, parse_dagman_text

INNER = """\
JOB in1 in1.sub
JOB in2 in2.sub
JOB in3 in3.sub
PARENT in1 CHILD in2
PARENT in1 CHILD in3
VARS in2 site="remote"
"""

OUTER = """\
JOB setup setup.sub
JOB teardown teardown.sub
SPLICE block inner.dag
PARENT setup CHILD block
PARENT block CHILD teardown
"""


def flatten(outer: str = OUTER, inner: str = INNER):
    """The flat DagmanFile of *outer* with *inner* as ``inner.dag``."""
    tree = {"outer.dag": outer, "inner.dag": inner}
    return import_dagman_tree(tree, "outer.dag").flat


class TestParsing:
    def test_splice_statement(self):
        f = parse_dagman_text(OUTER)
        assert f.splices["block"].file == "inner.dag"

    def test_splice_with_dir(self):
        f = parse_dagman_text("SPLICE s sub.dag DIR work\n")
        assert f.splices["s"].directory == "work"

    def test_splice_validation(self):
        with pytest.raises(DagmanParseError):
            parse_dagman_text("SPLICE onlyname\n")
        with pytest.raises(DagmanParseError, match="duplicate"):
            parse_dagman_text("SPLICE s a.dag\nSPLICE s b.dag\n")
        with pytest.raises(DagmanParseError, match="unexpected"):
            parse_dagman_text("SPLICE s a.dag FROB nicate\n")

    def test_subdag_external_is_a_job(self):
        f = parse_dagman_text("SUBDAG EXTERNAL child child.dag\n")
        assert f.jobs["child"].submit_file == "child.dag"

    def test_subdag_validation(self):
        with pytest.raises(DagmanParseError, match="EXTERNAL"):
            parse_dagman_text("SUBDAG INTERNAL x y.dag\n")

    def test_to_dag_requires_flat(self):
        f = parse_dagman_text(OUTER)
        with pytest.raises(ValueError, match="flatten"):
            f.to_dag()


class TestFlatten:
    def test_jobs_prefixed(self):
        flat = flatten()
        assert set(flat.jobs) == {
            "setup",
            "teardown",
            "block+in1",
            "block+in2",
            "block+in3",
        }

    def test_arcs_attach_to_sources_and_sinks(self):
        arcs = set(flatten().arcs)
        assert ("setup", "block+in1") in arcs          # inner source
        assert ("block+in2", "teardown") in arcs       # inner sinks
        assert ("block+in3", "teardown") in arcs
        assert ("block+in1", "block+in2") in arcs      # inner arc kept

    def test_vars_carried_over(self):
        flat = flatten()
        assert flat.vars_["block+in2"]["site"] == "remote"

    def test_dag_structure(self):
        dag = flatten().to_dag()
        assert dag.n == 5
        assert [dag.label(u) for u in dag.sources()] == ["setup"]
        assert [dag.label(u) for u in dag.sinks()] == ["teardown"]

    def test_dir_composes(self):
        flat = flatten(
            "SPLICE s inner.dag DIR outerdir\n",
            "JOB j j.sub DIR innerdir\n",
        )
        assert flat.jobs["s+j"].directory == "outerdir/innerdir"

    def test_splice_to_splice_arcs(self):
        flat = flatten(
            "SPLICE a inner.dag\nSPLICE b inner.dag\nPARENT a CHILD b\n"
        )
        assert ("a+in2", "b+in1") in flat.arcs
        assert ("a+in3", "b+in1") in flat.arcs


class TestFlattenFile:
    def _write(self, tmp_path, name, text):
        (tmp_path / name).write_text(text)

    def test_nested_recursion(self, tmp_path):
        self._write(tmp_path, "leaf.dag", "JOB x x.sub\n")
        self._write(tmp_path, "mid.dag", "SPLICE inner leaf.dag\nJOB m m.sub\nPARENT m CHILD inner\n")
        self._write(tmp_path, "top.dag", "SPLICE block mid.dag\n")
        flat = import_dagman_file(tmp_path / "top.dag").flat
        assert set(flat.jobs) == {"block+m", "block+inner+x"}
        assert ("block+m", "block+inner+x") in flat.arcs

    def test_cycle_detected(self, tmp_path):
        self._write(tmp_path, "a.dag", "SPLICE b b.dag\n")
        self._write(tmp_path, "b.dag", "SPLICE a a.dag\n")
        with pytest.raises(DagmanImportError, match="recursive"):
            import_dagman_file(tmp_path / "a.dag")

    def test_missing_file(self, tmp_path):
        self._write(tmp_path, "a.dag", "SPLICE b nowhere.dag\n")
        with pytest.raises(DagmanImportError, match="cannot read"):
            import_dagman_file(tmp_path / "a.dag")

    def test_symlink_loop_is_an_unreadable_file(self, tmp_path):
        (tmp_path / "loop1").symlink_to("loop2")
        (tmp_path / "loop2").symlink_to("loop1")
        self._write(tmp_path, "a.dag", "SPLICE b loop1\n")
        with pytest.raises(DagmanImportError, match="cannot read.*loop1"):
            import_dagman_file(tmp_path / "a.dag")
        with pytest.raises(DagmanImportError, match="cannot read.*loop1"):
            import_dagman_file(tmp_path / "loop1")

    def test_tool_integration(self, tmp_path):
        self._write(tmp_path, "inner.dag", INNER)
        self._write(tmp_path, "outer.dag", OUTER)
        from repro.core.tool import prioritize_dagman_file

        with pytest.raises(DagmanImportError, match="SPLICE"):
            prioritize_dagman_file(tmp_path / "outer.dag")
        out = tmp_path / "flat.dag"
        result = prioritize_dagman_file(tmp_path / "outer.dag", output=out)
        assert result.priorities["setup"] == 5
        text = out.read_text()
        assert "JOB block+in1" in text
        assert 'VARS block+in1 jobpriority=' in text
