"""Tests for the policy league harness."""

import numpy as np
import pytest

from repro.analysis.league import Entrant, league, render_league
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
        {"airsn-40": dag},
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
            league({"a": dag}, [], params)
        with pytest.raises(ValueError, match="unique"):
            league(
                {"a": dag}, [Entrant("x", "fifo"), Entrant("x", "fifo")],
                params,
            )
        with pytest.raises(ValueError, match="baseline"):
            league({"a": dag}, [Entrant("x", "fifo")], params, baseline="nope")

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
            {"airsn-10": dag},
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
            {"airsn-20": dag},
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
            {"airsn-15": dag}, entrants, SimParams(mu_bit=1.0, mu_bs=8.0),
            n_runs=6, seed=2,
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
        serial = league({"w": dag}, entrants, params, n_runs=8, seed=9, jobs=1)
        fanned = league({"w": dag}, entrants, params, n_runs=8, seed=9, jobs=2)
        for a, b in zip(serial, fanned):
            assert a.name == b.name
            assert a.mean_execution_time == b.mean_execution_time
            assert a.mean_utilization == b.mean_utilization


class TestTies:
    def test_identical_orders_tie_every_replication(self):
        """Two entrants racing the baseline's own order: every contest is
        a three-way tie, the wins split equally, and neither beats the
        baseline."""
        dag = airsn(10)
        order = prio_schedule(dag).schedule
        entrants = [
            Entrant.from_schedule("a", order),
            Entrant.from_schedule("b", order),
            Entrant.from_schedule("base", order),
        ]
        rows = league(
            {"airsn-10": dag}, entrants, SimParams(mu_bit=1.0, mu_bs=4.0),
            n_runs=6, seed=1, baseline="base",
        )
        assert [r.ties for r in rows] == [6, 6, 6]
        assert [r.win_rate for r in rows] == [pytest.approx(1 / 3)] * 3
        assert len({r.win_rate for r in rows}) == 1
        assert {r.name: r.p_beats_baseline for r in rows} == {
            "a": 1.0, "b": 1.0, "base": None
        }


class TestGrandLeague:
    """Every entrant on every workload, object and arena dags, in one
    call."""

    WORKLOADS = {
        "airsn-20": airsn(20),
        "chain-bundle-64": arena_family("chain-bundle", 64),
    }
    KINDS = ("prio", "fifo", "upward-rank", "dagps")

    @classmethod
    def run(cls, **kwargs):
        return league(
            cls.WORKLOADS,
            [Entrant(k, k) for k in cls.KINDS],
            SimParams(mu_bit=1.0, mu_bs=8.0),
            n_runs=8,
            seed=4,
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def result(self):
        return self.run()

    def test_full_cell_grid(self, result):
        # Every entrant plays every workload, prio on the arena dag too,
        # grouped by workload in mapping order.
        assert len(result) == 2 * 4
        assert [r.workload for r in result] == ["airsn-20"] * 4 + [
            "chain-bundle-64"
        ] * 4
        for wname in self.WORKLOADS:
            block = [r for r in result if r.workload == wname]
            assert {r.name for r in block} == set(self.KINDS)
            times = [r.mean_execution_time for r in block]
            assert times == sorted(times)

    def test_arena_prio_matches_object_twin(self):
        """prio on a compiled arena dag races exactly as on the object
        dag of the same structure."""
        compiled = arena_family("layered", 80, rng=np.random.default_rng(3))
        params = SimParams(mu_bit=1.0, mu_bs=8.0)
        entrants = [Entrant(k, k) for k in ("prio", "prio-live", "fifo")]
        arena, twin = (
            league({"w": dag}, entrants, params, n_runs=4, seed=5)
            for dag in (compiled, compiled.to_dag())
        )
        assert arena == twin

    def test_win_rates_sum_to_one_per_workload(self, result):
        for wname in self.WORKLOADS:
            block = [r for r in result if r.workload == wname]
            assert sum(r.win_rate for r in block) == pytest.approx(1.0)
            for r in block:
                assert 0.0 <= r.win_rate <= 1.0

    def test_cell_metrics_are_sane(self, result):
        for r in result:
            assert r.n_jobs > 0
            assert r.mean_execution_time > 0
            assert 0 < r.mean_utilization <= 1
            assert 0 <= r.mean_stalling <= 1
            assert r.order_seconds >= 0
            assert r.sim_seconds >= 0
            assert (r.p_beats_baseline is None) == (r.name == "dagps")

    def test_deterministic_under_fixed_seed(self, result):
        assert self.run() == result

    def test_win_rate_aggregation(self, result):
        rates: dict[str, list[float]] = {}
        for r in result:
            rates.setdefault(r.name, []).append(r.win_rate)
        assert set(rates) == set(self.KINDS)
        for per_workload in rates.values():
            assert len(per_workload) == 2
            assert 0.0 <= np.mean(per_workload) <= 1.0

    def test_render(self, result):
        text = render_league(result)
        assert "win rate" in text and "ties" in text
        blocks = text.split("\n\n")
        assert len(blocks) == 2
        for block, wname in zip(blocks, self.WORKLOADS):
            head, *lines = block.splitlines()
            assert head.startswith(wname)
            assert len(lines) == 4
        assert "chain-bundle-64 (64 jobs)" in text

    def test_validation(self):
        params = SimParams(mu_bit=1.0, mu_bs=4.0)
        fifo = Entrant("fifo", "fifo")
        with pytest.raises(ValueError, match="at least one"):
            league({"a": airsn(5)}, [], params)
        with pytest.raises(ValueError, match="unique"):
            league({"a": airsn(5)}, [fifo, fifo], params)
        with pytest.raises(ValueError, match="unknown policy"):
            league({"a": airsn(5)}, [Entrant("lifo", "lifo")], params,
                   n_runs=2)

    def test_order_length_must_match_every_workload(self):
        small, large = airsn(5), airsn(10)
        entrants = [
            Entrant.from_schedule("prio", prio_schedule(small).schedule),
            Entrant("fifo", "fifo"),
        ]
        calls = []
        with pytest.raises(ValueError, match="'prio' orders .* 'large'"):
            league(
                {"small": small, "large": large}, entrants,
                SimParams(mu_bit=1.0, mu_bs=4.0), n_runs=2,
                progress=lambda done, total: calls.append(done),
            )
        assert calls == []  # raised before anything ran

    def test_progress_callback(self):
        calls = []
        league(
            {"a": airsn(5), "b": airsn(6)},
            [Entrant("fifo", "fifo"), Entrant("random", "random")],
            SimParams(mu_bit=1.0, mu_bs=4.0),
            n_runs=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]
