"""Tests for job-submit description file handling."""

from repro.dagman.jsdf import PRIORITY_LINE, instrument_jsdf_text, parse_jsdf

BASIC = """\
executable = /bin/work
universe = vanilla
arguments = --fast
queue
"""


class TestParseJsdf:
    def test_attributes(self):
        attrs = parse_jsdf(BASIC)
        assert attrs["executable"] == "/bin/work"
        assert attrs["arguments"] == "--fast"

    def test_keys_lowercased(self):
        assert parse_jsdf("Executable = /x\nqueue\n")["executable"] == "/x"

    def test_last_assignment_wins(self):
        assert parse_jsdf("x = 1\nx = 2\n")["x"] == "2"

    def test_comments_and_queue_skipped(self):
        attrs = parse_jsdf("# comment\nqueue 5\nx = 1\n")
        assert attrs == {"x": "1"}

    def test_empty(self):
        assert parse_jsdf("") == {}


class TestInstrumentText:
    def test_inserts_before_queue(self):
        out = instrument_jsdf_text(BASIC)
        lines = out.splitlines()
        assert lines.index(PRIORITY_LINE) == lines.index("queue") - 1

    def test_replaces_existing_priority(self):
        text = "priority = 0\nqueue\n"
        out = instrument_jsdf_text(text)
        priority_lines = [
            l for l in out.splitlines() if l.startswith("priority")
        ]
        assert priority_lines == [PRIORITY_LINE]

    def test_idempotent(self):
        once = instrument_jsdf_text(BASIC)
        assert instrument_jsdf_text(once) == once

    def test_appends_without_queue(self):
        out = instrument_jsdf_text("executable = /x\n")
        assert out.rstrip().endswith(PRIORITY_LINE)

    def test_queue_with_count(self):
        out = instrument_jsdf_text("executable = /x\nqueue 10\n")
        lines = out.splitlines()
        assert lines.index(PRIORITY_LINE) < lines.index("queue 10")

    def test_case_insensitive_queue(self):
        out = instrument_jsdf_text("executable = /x\nQueue\n")
        assert out.splitlines()[1] == PRIORITY_LINE

