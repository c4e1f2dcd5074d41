"""Checkpoint/resume properties of the analysis drivers.

The pinned property: interrupting a run after *any* completed unit of
work and resuming from its checkpoint yields results — and telemetry
replication/cell records — bit-identical to an uninterrupted run (only
wall-clock fields may differ; restored work reports ``elapsed_seconds``
of ``None`` because it was not redone).
"""

import io
import json

import pytest

from repro.analysis.calibrate import calibrate_cell
from repro.analysis.league import Entrant, league
from repro.analysis.sweep import SweepConfig, ratio_sweep
from repro.core.prio import prio_schedule
from repro.dag.builders import fork_join
from repro.obs.recorder import TelemetryRecorder
from repro.robust import Checkpoint, CheckpointError, FaultPlan, RetryPolicy, fingerprint
from repro.sim.engine import SimParams


class Interrupt(Exception):
    """Stands in for Ctrl-C at a deterministic point."""


def interrupt_after(n):
    def progress(done, total):
        if done == n:
            raise Interrupt

    return progress


def open_telemetry():
    buf = io.StringIO()
    return TelemetryRecorder.open(buf, command="test"), buf


def comparable_records(buf):
    """Telemetry records minus wall-clock and checkpoint bookkeeping."""
    records = []
    for line in buf.getvalue().splitlines():
        record = json.loads(line)
        if record["kind"] == "checkpoint":
            continue
        record.pop("elapsed_seconds", None)
        if record["kind"] == "stage":
            record.pop("seconds", None)
        records.append(record)
    return records


@pytest.fixture(scope="module")
def sweep_setup():
    dag = fork_join(6)
    order = prio_schedule(dag).schedule
    config = SweepConfig(mu_bits=(1.0,), mu_bss=(1.0, 4.0, 16.0), p=4, q=2)
    return dag, order, config


@pytest.fixture(scope="module")
def baseline(sweep_setup):
    dag, order, config = sweep_setup
    telemetry, buf = open_telemetry()
    result = ratio_sweep(dag, order, config, "wl", telemetry=telemetry)
    return result, comparable_records(buf)


FP = fingerprint({"suite": "resume-tests"})


class TestSweepResume:
    @pytest.mark.parametrize("interrupt_at", [1, 2, 3])
    def test_interrupt_anywhere_then_resume_is_bit_identical(
        self, tmp_path, sweep_setup, baseline, interrupt_at
    ):
        dag, order, config = sweep_setup
        base_result, base_records = baseline
        path = tmp_path / "ck.jsonl"

        telemetry, _ = open_telemetry()
        checkpoint = Checkpoint.open(path, FP)
        try:
            ratio_sweep(
                dag, order, config, "wl",
                telemetry=telemetry, checkpoint=checkpoint,
                progress=interrupt_after(interrupt_at),
            )
        except Interrupt:
            pass
        assert checkpoint.n_done == interrupt_at

        resumed_ck = Checkpoint.open(path, FP, require_existing=True)
        telemetry, buf = open_telemetry()
        resumed = ratio_sweep(
            dag, order, config, "wl",
            telemetry=telemetry, checkpoint=resumed_ck,
        )
        assert resumed.cells == base_result.cells
        # The resumed log reproduces every replication and cell record.
        assert comparable_records(buf) == base_records

    def test_interrupt_stops_the_in_process_sweep(
        self, monkeypatch, sweep_setup
    ):
        # The jobs=1 sweep runs each task only when the driver is asked
        # for it: an exception from progress after cell 1 must leave the
        # later cells unsimulated (an eager loop would run all of them).
        from repro.perf import kernel_batch

        dag, order, config = sweep_setup
        batches = []
        dispatch = kernel_batch.dispatch_batch

        def spy(*args, **kwargs):
            batches.append(args)
            return dispatch(*args, **kwargs)

        monkeypatch.setattr(kernel_batch, "dispatch_batch", spy)
        with pytest.raises(Interrupt):
            ratio_sweep(
                dag, order, config, "wl", progress=interrupt_after(1)
            )
        assert len(batches) == 2  # cell 1's PRIO and FIFO batches

    def test_parallel_resume_matches_serial_baseline(
        self, tmp_path, sweep_setup, baseline
    ):
        dag, order, config = sweep_setup
        base_result, _ = baseline
        path = tmp_path / "ck.jsonl"
        checkpoint = Checkpoint.open(path, FP)
        try:
            ratio_sweep(
                dag, order, config, "wl",
                checkpoint=checkpoint, progress=interrupt_after(1),
            )
        except Interrupt:
            pass
        resumed = ratio_sweep(
            dag, order, config, "wl",
            checkpoint=Checkpoint.open(path, FP, require_existing=True),
            jobs=2,
        )
        assert resumed.cells == base_result.cells

    def test_resume_without_telemetry(self, tmp_path, sweep_setup, baseline):
        dag, order, config = sweep_setup
        base_result, _ = baseline
        path = tmp_path / "ck.jsonl"
        checkpoint = Checkpoint.open(path, FP)
        try:
            ratio_sweep(
                dag, order, config, "wl",
                checkpoint=checkpoint, progress=interrupt_after(2),
            )
        except Interrupt:
            pass
        resumed = ratio_sweep(
            dag, order, config, "wl",
            checkpoint=Checkpoint.open(path, FP, require_existing=True),
        )
        assert resumed.cells == base_result.cells

    def test_completed_checkpoint_resumes_without_simulating(
        self, tmp_path, sweep_setup, baseline
    ):
        dag, order, config = sweep_setup
        base_result, _ = baseline
        path = tmp_path / "ck.jsonl"
        ratio_sweep(
            dag, order, config, "wl", checkpoint=Checkpoint.open(path, FP)
        )
        resumed = ratio_sweep(
            dag, order, config, "wl",
            checkpoint=Checkpoint.open(path, FP, require_existing=True),
        )
        assert resumed.cells == base_result.cells

    def test_checkpoint_for_wrong_grid_rejected(
        self, tmp_path, sweep_setup
    ):
        # The fingerprint normally prevents this; a hand-built collision
        # (same fingerprint, different grid) must still be caught by the
        # per-cell parameter check.
        dag, order, config = sweep_setup
        path = tmp_path / "ck.jsonl"
        checkpoint = Checkpoint.open(path, FP)
        checkpoint.record(
            "cell/0",
            {"mu_bit": 123.0, "mu_bs": 456.0, "ratios": {}},
        )
        with pytest.raises(CheckpointError, match="cell 0"):
            ratio_sweep(dag, order, config, "wl", checkpoint=checkpoint)


class TestFaultInjectedSweep:
    def test_faulty_sweep_bit_identical_to_fault_free(self, sweep_setup, baseline):
        dag, order, config = sweep_setup
        base_result, _ = baseline
        faults = FaultPlan(
            kills={(0, 0)}, failures={(2, 0)}, delays={(3, 0): 0.05}
        )
        faulty = ratio_sweep(
            dag, order, config, "wl", jobs=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            faults=faults,
        )
        assert faulty.cells == base_result.cells


def unit_blocks(records):
    """Replication records grouped into maximal runs of one policy."""
    blocks = []
    for record in records:
        if record["kind"] != "replication":
            continue
        if not blocks or blocks[-1][0] != record["policy"]:
            blocks.append((record["policy"], []))
        blocks[-1][1].append(record)
    return blocks


def league_setup():
    dag = fork_join(6)
    order = prio_schedule(dag).schedule
    entrants = [
        Entrant.from_schedule("prio", order),
        Entrant("random", "random"),
        Entrant("fifo", "fifo"),
    ]
    return dag, entrants, SimParams(mu_bit=1.0, mu_bs=4.0)


class TestLeagueResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_then_resume(self, tmp_path, jobs):
        dag, entrants, params = league_setup()
        kwargs = dict(n_runs=8, seed=3, jobs=jobs)
        telemetry, base_buf = open_telemetry()
        base = league(
            {"wl": dag}, entrants, params, telemetry=telemetry,
            **{**kwargs, "jobs": 1},
        )
        path = tmp_path / "ck.jsonl"
        checkpoint = Checkpoint.open(path, FP)
        telemetry, _ = open_telemetry()
        with pytest.raises(Interrupt):
            league(
                {"wl": dag}, entrants, params, telemetry=telemetry,
                checkpoint=checkpoint, progress=interrupt_after(1), **kwargs,
            )
        assert checkpoint.n_done == 1
        telemetry, buf = open_telemetry()
        resumed = league(
            {"wl": dag}, entrants, params, telemetry=telemetry,
            checkpoint=Checkpoint.open(path, FP, require_existing=True),
            **kwargs,
        )
        assert resumed == base
        records, base_records = comparable_records(buf), comparable_records(
            base_buf
        )
        # With a pool any entrant may finish first, so the restored one
        # replays first; each entrant's records stay one contiguous run
        # in replication order.
        blocks = unit_blocks(records)
        assert len(blocks) == len(entrants)
        assert sorted(blocks, key=lambda b: b[0]) == sorted(
            unit_blocks(base_records), key=lambda b: b[0]
        )
        if jobs == 1:
            assert records == base_records

    def test_older_row_layout_refused(self, tmp_path):
        # Older versions stored an entrant's rows as a bare list; with
        # telemetry on, resuming from one is refused, never misread.
        dag, entrants, params = league_setup()
        checkpoint = Checkpoint.open(tmp_path / "ck.jsonl", FP)
        checkpoint.record(
            "entrant/wl/prio",
            {
                "execution_time": [1.0],
                "stalling_probability": [0.0],
                "utilization": [1.0],
                "replications": [[1.0, 6, 1, 0, 1, 0, 0]],
            },
        )
        telemetry, _ = open_telemetry()
        with pytest.raises(CheckpointError, match="older layout"):
            league(
                {"wl": dag}, entrants, params, n_runs=1, telemetry=telemetry,
                checkpoint=checkpoint,
            )

    def test_entrant_keyed_checkpoint_refused_by_cli(self, tmp_path, capsys):
        # A league checkpoint from before units were keyed per workload
        # ("entrant/{name}") carries another fingerprint: --resume exits
        # 2 with one error line instead of restoring nothing and
        # silently re-running every unit.
        from repro.cli import main

        old_payload = {
            "driver": "league",
            "workload": "airsn-small",
            "entrants": [["fifo", "fifo", None], ["random", "random", None]],
            "mu_bit": 1.0,
            "mu_bs": 16.0,
            "failure_prob": 0.0,
            "straggler_prob": 0.0,
            "straggler_factor": 10.0,
            "runs": 2,
            "seed": 0,
            "telemetry": False,
        }
        path = tmp_path / "old.jsonl"
        Checkpoint.open(
            path, fingerprint(old_payload), meta={"driver": "league"}
        ).record(
            "entrant/fifo",
            {
                "execution_time": [1.0, 1.0],
                "stalling_probability": [0.0, 0.0],
                "utilization": [1.0, 1.0],
            },
        )
        code = main([
            "league", "airsn-small", "--runs", "2", "--policy", "fifo",
            "--policy", "random", "--resume", str(path),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")


class TestCalibrateResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_then_resume(self, tmp_path, jobs):
        dag = fork_join(6)
        order = prio_schedule(dag).schedule
        params = SimParams(mu_bit=1.0, mu_bs=4.0)
        kwargs = dict(
            p=4, start_q=1, max_q=4, target_width=1e-6, seed=5, workload="wl"
        )
        telemetry, base_buf = open_telemetry()
        base = calibrate_cell(dag, order, params, telemetry=telemetry, **kwargs)
        assert len(base.steps) == 3  # q = 1, 2, 4

        def stop_at_q2(step):
            if step.q == 2:
                raise Interrupt

        path = tmp_path / "ck.jsonl"
        checkpoint = Checkpoint.open(path, FP)
        telemetry, _ = open_telemetry()
        with pytest.raises(Interrupt):
            calibrate_cell(
                dag, order, params, checkpoint=checkpoint,
                telemetry=telemetry, progress=stop_at_q2, jobs=jobs,
                **kwargs,
            )
        assert checkpoint.n_done == 2
        telemetry, buf = open_telemetry()
        resumed = calibrate_cell(
            dag, order, params, telemetry=telemetry,
            checkpoint=Checkpoint.open(path, FP, require_existing=True),
            jobs=jobs, **kwargs,
        )
        assert resumed.steps == base.steps
        assert resumed.converged == base.converged
        # Steps run one after another, so even with a pool the log is
        # the uninterrupted one: per step, its prio run, its fifo run.
        assert comparable_records(buf) == comparable_records(base_buf)
        assert [policy for policy, _ in unit_blocks(
            comparable_records(buf)
        )] == ["prio", "fifo"] * 3


def run_sweep(checkpoint, telemetry, progress=None):
    dag = fork_join(6)
    config = SweepConfig(mu_bits=(1.0,), mu_bss=(1.0, 4.0, 16.0), p=4, q=2)
    ratio_sweep(
        dag, prio_schedule(dag).schedule, config, "wl",
        telemetry=telemetry, checkpoint=checkpoint, progress=progress,
    )


def run_league(checkpoint, telemetry, progress=None):
    dag, entrants, params = league_setup()
    league(
        {"wl": dag}, entrants, params, n_runs=8, seed=3,
        telemetry=telemetry, checkpoint=checkpoint, progress=progress,
    )


def run_calibrate(checkpoint, telemetry, progress=None):
    def step_progress(step):
        if progress is not None:
            progress(step.q.bit_length(), 3)  # q = 1, 2, 4: steps 1, 2, 3

    dag = fork_join(6)
    calibrate_cell(
        dag, prio_schedule(dag).schedule, SimParams(mu_bit=1.0, mu_bs=4.0),
        p=4, start_q=1, max_q=4, target_width=1e-6, seed=5, workload="wl",
        telemetry=telemetry, checkpoint=checkpoint, progress=step_progress,
    )


@pytest.mark.parametrize("run", [run_sweep, run_league, run_calibrate])
def test_checkpoint_telemetry_counts_on_resume(tmp_path, run):
    # Every driver has three units; interrupt after two, then resume.
    path = tmp_path / "ck.jsonl"
    telemetry, buf = open_telemetry()
    with pytest.raises(Interrupt):
        run(Checkpoint.open(path, FP), telemetry, interrupt_after(2))
    events = [
        (r["event"], r["done"])
        for r in map(json.loads, buf.getvalue().splitlines())
        if r["kind"] == "checkpoint"
    ]
    assert events == [("record", 1), ("record", 2)]

    telemetry, buf = open_telemetry()
    run(Checkpoint.open(path, FP, require_existing=True), telemetry)
    events = [
        (r["event"], r["done"])
        for r in map(json.loads, buf.getvalue().splitlines())
        if r["kind"] == "checkpoint"
    ]
    # One restore record per run with the restored count, one record
    # per freshly completed unit.
    assert sorted(events) == [("record", 3), ("restore", 2)]
