"""Tests for the policy league harness."""

import numpy as np
import pytest

from repro.analysis.league import (
    Entrant,
    grand_league,
    league,
    render_grand_league,
    render_league,
)
from repro.core.fifo import fifo_schedule
from repro.core.prio import prio_schedule
from repro.sim.engine import SimParams
from repro.workloads.airsn import airsn
from repro.workloads.synthetic import arena_family


@pytest.fixture(scope="module")
def rows():
    dag = airsn(40)
    entrants = [
        Entrant.from_schedule("prio", prio_schedule(dag).schedule),
        Entrant.from_schedule(
            "prio-topological",
            prio_schedule(dag, combine="topological").schedule,
        ),
        Entrant("random", "random"),
        Entrant("fifo", "fifo"),
    ]
    return league(
        dag,
        entrants,
        SimParams(mu_bit=1.0, mu_bs=8.0),
        n_runs=24,
        seed=3,
    )


class TestLeague:
    def test_sorted_by_execution_time(self, rows):
        times = [r.mean_execution_time for r in rows]
        assert times == sorted(times)

    def test_prio_wins(self, rows):
        assert rows[0].name.startswith("prio")

    def test_baseline_has_no_p_value(self, rows):
        fifo_row = next(r for r in rows if r.name == "fifo")
        assert fifo_row.p_beats_baseline is None
        others = [r for r in rows if r.name != "fifo"]
        assert all(r.p_beats_baseline is not None for r in others)

    def test_prio_significant_vs_fifo(self, rows):
        prio_row = next(r for r in rows if r.name == "prio")
        assert prio_row.p_beats_baseline < 0.05

    def test_metric_ranges(self, rows):
        for r in rows:
            assert r.mean_execution_time > 0
            assert 0 < r.mean_utilization <= 1
            assert 0 <= r.mean_stalling <= 1

    def test_validation(self):
        dag = airsn(5)
        params = SimParams(mu_bit=1.0, mu_bs=2.0)
        with pytest.raises(ValueError, match="at least one"):
            league(dag, [], params)
        with pytest.raises(ValueError, match="unique"):
            league(dag, [Entrant("x", "fifo"), Entrant("x", "fifo")], params)
        with pytest.raises(ValueError, match="baseline"):
            league(dag, [Entrant("x", "fifo")], params, baseline="nope")

    def test_render(self, rows):
        text = render_league(rows)
        assert "baseline" in text
        assert "prio" in text and "fifo" in text
        assert len(text.splitlines()) == 5

    def test_custom_baseline(self):
        dag = airsn(10)
        entrants = [
            Entrant.from_schedule("prio", prio_schedule(dag).schedule),
            Entrant("fifo", "fifo"),
        ]
        rows = league(
            dag,
            entrants,
            SimParams(mu_bit=1.0, mu_bs=4.0),
            n_runs=6,
            baseline="prio",
        )
        prio_row = next(r for r in rows if r.name == "prio")
        assert prio_row.p_beats_baseline is None


class TestLiveEntrants:
    def test_prio_live_competes_under_failures(self):
        """The three-way comparison the live subsystem exists for:
        rescheduling PRIO vs static PRIO vs FIFO under worker churn and
        stragglers, common random numbers throughout."""
        dag = airsn(20)
        entrants = [
            Entrant("prio-live", "prio-live"),
            Entrant.from_schedule("prio", prio_schedule(dag).schedule),
            Entrant("fifo", "fifo"),
        ]
        rows = league(
            dag,
            entrants,
            SimParams(mu_bit=1.0, mu_bs=8.0, failure_prob=0.3,
                      straggler_prob=0.2),
            n_runs=12,
            seed=5,
        )
        assert {r.name for r in rows} == {"prio-live", "prio", "fifo"}
        live_row = next(r for r in rows if r.name == "prio-live")
        fifo_row = next(r for r in rows if r.name == "fifo")
        assert live_row.mean_execution_time <= fifo_row.mean_execution_time

    def test_registry_policies_compete(self):
        """The new registered static kinds race through ``league`` via the
        same ``Entrant.from_schedule`` path as PRIO."""
        from repro.sim.rank import dagps_order, upward_rank_order

        dag = airsn(15)
        entrants = [
            Entrant.from_schedule("prio", prio_schedule(dag).schedule),
            Entrant.from_schedule("upward-rank", upward_rank_order(dag)),
            Entrant.from_schedule("dagps", dagps_order(dag)),
            Entrant("fifo", "fifo"),
        ]
        rows = league(
            dag, entrants, SimParams(mu_bit=1.0, mu_bs=8.0), n_runs=6, seed=2
        )
        assert {r.name for r in rows} == {
            "prio", "upward-rank", "dagps", "fifo"
        }

    def test_prio_live_parallel_matches_serial(self):
        """The PolicyFactory carries the dag across the process boundary:
        fanned-out replications are bit-identical to in-process ones."""
        dag = airsn(12)
        entrants = [Entrant("prio-live", "prio-live"),
                    Entrant("fifo", "fifo")]
        params = SimParams(mu_bit=1.0, mu_bs=4.0, failure_prob=0.2)
        serial = league(dag, entrants, params, n_runs=8, seed=9, jobs=1)
        fanned = league(dag, entrants, params, n_runs=8, seed=9, jobs=2)
        for a, b in zip(serial, fanned):
            assert a.name == b.name
            assert a.mean_execution_time == b.mean_execution_time
            assert a.mean_utilization == b.mean_utilization


class TestGrandLeague:
    @pytest.fixture(scope="class")
    def result(self):
        workloads = {
            "airsn-20": airsn(20),
            "chain-bundle-64": arena_family("chain-bundle", 64),
        }
        return grand_league(
            workloads,
            ["prio", "fifo", "upward-rank", "dagps"],
            SimParams(mu_bit=1.0, mu_bs=8.0),
            n_runs=8,
            seed=4,
        )

    def test_full_cell_grid(self, result):
        # Every policy plays every workload, prio on the arena dag too.
        assert len(result.cells) == 2 * 4
        assert result.workloads() == ("airsn-20", "chain-bundle-64")
        assert set(result.policies()) == {
            "prio", "fifo", "upward-rank", "dagps"
        }
        assert {c.policy for c in result.cells
                if c.workload == "chain-bundle-64"} == set(result.policies())

    def test_arena_prio_matches_object_twin(self):
        """prio on a compiled arena dag races exactly as on the object
        dag of the same structure."""
        compiled = arena_family("layered", 80, rng=np.random.default_rng(3))
        params = SimParams(mu_bit=1.0, mu_bs=8.0)
        arena, twin = (
            grand_league({"w": dag}, ["prio", "prio-live", "fifo"], params,
                         n_runs=4, seed=5)
            for dag in (compiled, compiled.to_dag())
        )
        for a, b in zip(arena.cells, twin.cells):
            assert a.policy == b.policy
            assert a.mean_execution_time == b.mean_execution_time
            assert a.win_rate == b.win_rate

    def test_win_rates_sum_to_one_per_workload(self, result):
        for wname in result.workloads():
            block = [c for c in result.cells if c.workload == wname]
            assert sum(c.win_rate for c in block) == pytest.approx(1.0)
            for c in block:
                assert 0.0 <= c.win_rate <= 1.0

    def test_cell_metrics_are_sane(self, result):
        for c in result.cells:
            assert c.n_jobs > 0
            assert c.mean_execution_time > 0
            assert 0 < c.mean_utilization <= 1
            assert 0 <= c.mean_stalling <= 1
            assert c.order_seconds >= 0
            assert c.sim_seconds >= 0

    def test_deterministic_under_fixed_seed(self, result):
        again = grand_league(
            {
                "airsn-20": airsn(20),
                "chain-bundle-64": arena_family("chain-bundle", 64),
            },
            ["prio", "fifo", "upward-rank", "dagps"],
            SimParams(mu_bit=1.0, mu_bs=8.0),
            n_runs=8,
            seed=4,
        )
        for a, b in zip(result.cells, again.cells):
            assert (a.workload, a.policy) == (b.workload, b.policy)
            assert a.mean_execution_time == b.mean_execution_time
            assert a.win_rate == b.win_rate

    def test_win_rate_aggregation(self, result):
        rates = result.win_rates()
        assert set(rates) == {"prio", "fifo", "upward-rank", "dagps"}
        for rate in rates.values():
            assert 0.0 <= rate <= 1.0

    def test_render(self, result):
        text = render_grand_league(result)
        assert "win rate" in text
        rows = [line.split() for line in text.splitlines()[1:]]
        assert len(rows) == len(result.cells)
        assert ["chain-bundle-64", "prio"] in [row[:2] for row in rows]

    def test_validation(self):
        params = SimParams(mu_bit=1.0, mu_bs=4.0)
        with pytest.raises(ValueError, match="at least one"):
            grand_league({"a": airsn(5)}, [], params)
        with pytest.raises(ValueError, match="unique"):
            grand_league({"a": airsn(5)}, ["fifo", "fifo"], params)
        with pytest.raises(ValueError, match="unknown policy"):
            grand_league({"a": airsn(5)}, ["lifo"], params, n_runs=2)

    def test_progress_callback(self):
        calls = []
        grand_league(
            {"a": airsn(5)},
            ["fifo", "random"],
            SimParams(mu_bit=1.0, mu_bs=4.0),
            n_runs=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls[-1] == (2, 2)
