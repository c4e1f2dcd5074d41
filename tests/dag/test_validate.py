"""Tests for schedule validation."""

from repro.dag.builders import chain
from repro.dag.graph import Dag
from repro.dag.validate import is_valid_schedule, schedule_violations


class TestValidSchedules:
    def test_chain_order(self):
        assert is_valid_schedule(chain(4), [0, 1, 2, 3])

    def test_diamond_both_middles(self, diamond):
        assert is_valid_schedule(diamond, [0, 1, 2, 3])
        assert is_valid_schedule(diamond, [0, 2, 1, 3])

    def test_empty_dag(self):
        assert is_valid_schedule(Dag(0, []), [])


class TestInvalidSchedules:
    def test_precedence_violation(self, diamond):
        assert not is_valid_schedule(diamond, [1, 0, 2, 3])

    def test_wrong_length(self, diamond):
        assert not is_valid_schedule(diamond, [0, 1, 2])

    def test_duplicate_entry(self, diamond):
        assert not is_valid_schedule(diamond, [0, 1, 1, 3])

    def test_out_of_range_entry(self, diamond):
        assert not is_valid_schedule(diamond, [0, 1, 2, 7])


class TestViolationMessages:
    def test_describes_precedence(self, diamond):
        msgs = schedule_violations(diamond, [3, 0, 1, 2])
        assert any("precedence" in m for m in msgs)

    def test_describes_duplicates_and_missing(self, diamond):
        msgs = schedule_violations(diamond, [0, 0, 1, 2])
        assert any("twice" in m for m in msgs)
        assert any("never scheduled" in m for m in msgs)

    def test_limit_stops_early(self, diamond):
        msgs = schedule_violations(diamond, [9, 9, 9, 9], limit=1)
        assert len(msgs) == 1

    def test_valid_is_empty(self, diamond):
        assert schedule_violations(diamond, [0, 1, 2, 3]) == []
