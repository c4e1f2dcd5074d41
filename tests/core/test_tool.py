"""Tests for the file-level prio tool (Sec. 3.2 integration)."""

import pytest

from repro.core.prio import prio_schedule
from repro.core.tool import prioritize_dagman, prioritize_dagman_file
from repro.dagman.parser import parse_dagman_text

FIG3 = """\
JOB a a.sub
JOB b b.sub
JOB c c.sub
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
"""

JSDF = """\
executable = /bin/work
universe = vanilla
queue
"""


class TestPrioritizeDagman:
    def test_sets_fig3_priorities(self):
        dagman = parse_dagman_text(FIG3)
        result = prioritize_dagman(dagman)
        assert result.priorities == {"a": 4, "b": 3, "c": 5, "d": 2, "e": 1}
        assert dagman.get_priority("c") == 5

    def test_renders_vars_lines(self):
        dagman = parse_dagman_text(FIG3)
        prioritize_dagman(dagman)
        text = dagman.render()
        assert 'VARS c jobpriority="5"' in text
        assert text.startswith("JOB a a.sub")  # original lines preserved

    def test_idempotent(self):
        dagman = parse_dagman_text(FIG3)
        prioritize_dagman(dagman)
        first = dagman.render()
        prioritize_dagman(dagman)
        assert dagman.render() == first

    def test_summary_mentions_jobs_and_blocks(self):
        dagman = parse_dagman_text(FIG3)
        result = prioritize_dagman(dagman)
        assert "5 jobs" in result.summary()
        assert "2 building blocks" in result.summary()


class TestRescueMode:
    RESCUE = """\
JOB a a.sub DONE
JOB b b.sub
JOB c c.sub DONE
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
"""

    def test_done_jobs_get_zero_priority(self):
        dagman = parse_dagman_text(self.RESCUE)
        result = prioritize_dagman(dagman, respect_done=True)
        assert result.priorities["a"] == 0
        assert result.priorities["c"] == 0
        assert sorted(
            result.priorities[j] for j in "bde"
        ) == [1, 2, 3]

    def test_ignored_without_flag(self):
        dagman = parse_dagman_text(self.RESCUE)
        result = prioritize_dagman(dagman)
        assert result.priorities["c"] == 5

    def test_remnant_priorities_reflect_remnant_structure(self):
        # With a and c done, the remnant is three independent jobs; they
        # all get some positive priority and the file round-trips.
        dagman = parse_dagman_text(self.RESCUE)
        prioritize_dagman(dagman, respect_done=True)
        assert 'VARS a jobpriority="0"' in dagman.render()

    def test_non_closed_done_set_rejected(self):
        text = "JOB a a.sub\nJOB b b.sub DONE\nPARENT a CHILD b\n"
        dagman = parse_dagman_text(text)
        with pytest.raises(ValueError, match="closed"):
            prioritize_dagman(dagman, respect_done=True)

    def test_file_level_rescue(self, tmp_path):
        path = tmp_path / "rescue.dag"
        path.write_text(self.RESCUE)
        result = prioritize_dagman_file(path, respect_done=True)
        assert result.priorities["a"] == 0
        assert 'jobpriority="0"' in path.read_text()


class TestPrioritizeFile:
    def _write_workflow(self, tmp_path, jsdfs=True):
        dagfile = tmp_path / "IV.dag"
        dagfile.write_text(FIG3)
        if jsdfs:
            for name in "abcde":
                (tmp_path / f"{name}.sub").write_text(JSDF)
        return dagfile

    def test_in_place(self, tmp_path):
        dagfile = self._write_workflow(tmp_path)
        prioritize_dagman_file(dagfile)
        assert 'jobpriority="5"' in dagfile.read_text()

    def test_output_path_leaves_original(self, tmp_path):
        dagfile = self._write_workflow(tmp_path)
        out = tmp_path / "IV_prio.dag"
        prioritize_dagman_file(dagfile, output=out)
        assert "jobpriority" not in dagfile.read_text()
        assert 'jobpriority="5"' in out.read_text()

    def test_instruments_jsdfs(self, tmp_path):
        dagfile = self._write_workflow(tmp_path)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert len(result.instrumented_jsdfs) == 5
        assert "priority = $(jobpriority)" in (tmp_path / "c.sub").read_text()
        # the priority line lands before queue
        lines = (tmp_path / "c.sub").read_text().splitlines()
        assert lines.index("priority = $(jobpriority)") < lines.index("queue")

    def test_missing_jsdfs_reported_not_fatal(self, tmp_path):
        dagfile = self._write_workflow(tmp_path, jsdfs=False)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert len(result.missing_jsdfs) == 5
        assert result.instrumented_jsdfs == []

    def test_shared_jsdf_instrumented_once(self, tmp_path):
        dagfile = tmp_path / "shared.dag"
        dagfile.write_text(
            "JOB x common.sub\nJOB y common.sub\nPARENT x CHILD y\n"
        )
        (tmp_path / "common.sub").write_text(JSDF)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert len(result.instrumented_jsdfs) == 1
        text = (tmp_path / "common.sub").read_text()
        assert text.count("priority = $(jobpriority)") == 1

    def test_dir_directive_respected(self, tmp_path):
        (tmp_path / "subdir").mkdir()
        dagfile = tmp_path / "d.dag"
        dagfile.write_text("JOB x x.sub DIR subdir\n")
        (tmp_path / "subdir" / "x.sub").write_text(JSDF)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert result.instrumented_jsdfs == [str(tmp_path / "subdir" / "x.sub")]

    def test_priorities_match_prio_schedule(self, tmp_path):
        dagfile = self._write_workflow(tmp_path, jsdfs=False)
        result = prioritize_dagman_file(dagfile)
        dag = parse_dagman_text(FIG3).to_dag()
        direct = prio_schedule(dag).priorities
        assert result.priorities == {
            dag.label(u): direct[u] for u in range(dag.n)
        }
