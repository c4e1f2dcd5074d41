"""Tests for remnant re-prioritization (rescue-dag support)."""

import pytest

from repro.core.fifo import fifo_schedule
from repro.core.prio import prio_schedule
from repro.core.rescheduling import RemnantError, reprioritize_remnant
from repro.dag.validate import is_valid_schedule
from repro.workloads.airsn import airsn


class TestReprioritizeRemnant:
    def test_nothing_executed_matches_full_prio(self, fig3_dag):
        remnant = reprioritize_remnant(fig3_dag, [])
        full = prio_schedule(fig3_dag)
        assert remnant.schedule == full.schedule
        assert remnant.priorities == full.priorities

    def test_after_sources(self, fig3_dag):
        a, c = fig3_dag.id_of("a"), fig3_dag.id_of("c")
        remnant = reprioritize_remnant(fig3_dag, [a, c])
        assert set(remnant.schedule) == {
            fig3_dag.id_of(x) for x in "bde"
        }
        assert is_valid_schedule(remnant.remnant, list(range(3)))
        # Executed jobs get the zero priority DAGMan ignores.
        assert remnant.priorities[a] == 0
        assert remnant.priority_of("b") > 0

    def test_schedule_respects_remnant_precedence(self):
        dag = airsn(15)
        executed = set()
        # Execute the first half of the FIFO order (precedence-closed).
        for u in fifo_schedule(dag)[: dag.n // 2]:
            executed.add(u)
        remnant = reprioritize_remnant(dag, executed)
        position = {u: i for i, u in enumerate(remnant.schedule)}
        for u, v in dag.arcs():
            if u in position and v in position:
                assert position[u] < position[v]

    def test_non_closed_set_rejected(self, fig3_dag):
        b = fig3_dag.id_of("b")
        with pytest.raises(ValueError, match="closed"):
            reprioritize_remnant(fig3_dag, [b])

    def test_out_of_range_rejected(self, fig3_dag):
        with pytest.raises(ValueError, match="range"):
            reprioritize_remnant(fig3_dag, [99])

    def test_remnant_error_names_the_violating_ancestor(self, fig3_dag):
        """Regression: the error used to be a bare ValueError whose only
        payload was the message — callers (the live-session layer, the
        serve error mapping) had to parse the text to learn *which* job
        broke closure.  RemnantError carries both ends of the violated
        arc as structured fields."""
        b = fig3_dag.id_of("b")
        with pytest.raises(RemnantError) as exc_info:
            reprioritize_remnant(fig3_dag, [b])
        err = exc_info.value
        assert isinstance(err, ValueError)  # the historical contract
        assert err.job == b
        assert err.ancestor in set(fig3_dag.parents(b))
        assert fig3_dag.label(err.job) in str(err)
        assert fig3_dag.label(err.ancestor) in str(err)

    def test_remnant_error_for_out_of_range_has_no_ancestor(self, fig3_dag):
        with pytest.raises(RemnantError) as exc_info:
            reprioritize_remnant(fig3_dag, [99])
        assert exc_info.value.job == 99
        assert exc_info.value.ancestor is None

    def test_all_executed(self, fig3_dag):
        remnant = reprioritize_remnant(fig3_dag, range(5))
        assert remnant.schedule == []
        assert remnant.priorities == [0] * 5

    def test_remnant_priorities_match_prio_schedule(self, fig3_dag):
        a, c = fig3_dag.id_of("a"), fig3_dag.id_of("c")
        remnant = reprioritize_remnant(fig3_dag, [a, c])
        assert remnant.prio.priorities == prio_schedule(
            remnant.remnant
        ).priorities

    def test_remnant_priorities_are_dense(self):
        dag = airsn(10)
        executed = fifo_schedule(dag)[:7]
        remnant = reprioritize_remnant(dag, executed)
        nonzero = sorted(p for p in remnant.priorities if p > 0)
        assert nonzero == list(range(1, dag.n - 7 + 1))
