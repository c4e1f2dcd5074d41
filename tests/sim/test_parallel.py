"""Tests for the parallel replication executor and its determinism.

The load-bearing guarantee: for a fixed root seed, ``jobs=1`` and
``jobs=N`` produce bit-identical :class:`MetricArrays` — parallelism is an
execution detail, never an experimental condition.
"""

import numpy as np
import pickle
import pytest

from repro.analysis.calibrate import calibrate_cell
from repro.analysis.league import Entrant, league
from repro.analysis.sweep import SweepConfig, ratio_sweep
from repro.core.prio import prio_schedule
from repro.dag.builders import fork_join
from repro.obs.metrics import MetricsRegistry
from repro.robust import FaultPlan, RetryPolicy
from repro.sim import parallel as parallel_mod
from repro.sim.compile import CompiledDag
from repro.sim.engine import SimParams
from repro.sim.parallel import (
    ParallelConfig,
    clone_seedseq,
    iter_chunk_results,
)
from repro.sim.replication import (
    MetricArrays,
    iter_units,
    policy_factory,
    run_replications,
)
from repro.workloads.airsn import airsn
from repro.workloads.synthetic import arena_family


@pytest.fixture
def params():
    return SimParams(mu_bit=1.0, mu_bs=4.0)


@pytest.fixture
def pools(monkeypatch):
    """Count the worker pools opened through ``ParallelConfig.executor``."""
    opened = []
    executor = ParallelConfig.executor

    def spy(self):
        opened.append(self.jobs)
        return executor(self)

    monkeypatch.setattr(ParallelConfig, "executor", spy)
    return opened


def metrics_equal(a, b):
    return (
        np.array_equal(a.execution_time, b.execution_time)
        and np.array_equal(a.stalling_probability, b.stalling_probability)
        and np.array_equal(a.utilization, b.utilization)
    )


class TestParallelConfig:
    def test_defaults_are_serial(self):
        cfg = ParallelConfig()
        assert cfg.jobs == 1 and not cfg.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelConfig(jobs=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelConfig(jobs=2, chunk_size=0)

    def test_chunking_covers_all_entries_in_order(self):
        cfg = ParallelConfig(jobs=3, chunk_size=4)
        entries = list(range(10))
        chunks = cfg.chunked(entries)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_one_chunk_without_a_pool(self):
        # jobs=1 runs a batch as one in-process task, so the batched
        # kernel sees every replication; chunk_size only splits pool work.
        for cfg in (ParallelConfig(), ParallelConfig(chunk_size=3)):
            assert cfg.chunked(list(range(10))) == [list(range(10))]
            assert cfg.chunked([]) == []

    def test_automatic_chunk_size(self):
        cfg = ParallelConfig(jobs=4)
        # Roughly a few chunks per worker, never zero-sized.
        assert cfg.resolve_chunk_size(100) >= 1
        assert cfg.resolve_chunk_size(1) == 1

    def test_clone_seedseq_spawns_identical_children(self):
        seq = np.random.SeedSequence(99).spawn(3)[1]
        seq.spawn(5)  # advance the original's spawn state
        clone = clone_seedseq(seq)
        fresh = np.random.SeedSequence(99).spawn(3)[1]
        assert [c.spawn_key for c in clone.spawn(2)] == [
            c.spawn_key for c in fresh.spawn(2)
        ]


class TestPolicyFactoryPickling:
    def test_factories_survive_pickling(self):
        for kind, order in (
            ("fifo", None),
            ("oblivious", [2, 0, 1]),
            ("random", None),
        ):
            factory = policy_factory(kind, order=order)
            clone = pickle.loads(pickle.dumps(factory))
            rng = np.random.default_rng(0)
            assert type(clone(rng)) is type(factory(np.random.default_rng(0)))


class TestRunReplicationsParallel:
    @pytest.mark.parametrize("jobs", [2, 3, 4])
    @pytest.mark.parametrize(
        "kind,order",
        [("fifo", None), ("oblivious", "identity"), ("random", None)],
    )
    def test_bit_identical_to_serial(self, params, jobs, kind, order):
        dag = fork_join(8)
        if order == "identity":
            order = list(range(dag.n))
        factory = policy_factory(kind, order=order)
        serial = run_replications(dag, factory, params, 13, seed=42)
        parallel = run_replications(dag, factory, params, 13, seed=42, jobs=jobs)
        assert metrics_equal(serial, parallel)

    def test_chunk_size_does_not_change_results(self, params):
        dag = fork_join(6)
        factory = policy_factory("fifo")
        serial = run_replications(dag, factory, params, 9, seed=5)
        for chunk_size in (1, 2, 9):
            parallel = run_replications(
                dag,
                factory,
                params,
                9,
                seed=5,
                parallel=ParallelConfig(jobs=2, chunk_size=chunk_size),
            )
            assert metrics_equal(serial, parallel)

    def test_explicit_parallel_config_wins_over_jobs(self, params):
        dag = fork_join(4)
        factory = policy_factory("fifo")
        serial = run_replications(dag, factory, params, 4, seed=3)
        forced_serial = run_replications(
            dag, factory, params, 4, seed=3, jobs=8, parallel=ParallelConfig()
        )
        assert metrics_equal(serial, forced_serial)

    def test_single_replication_stays_serial(self, params, pools):
        dag = fork_join(3)
        factory = policy_factory("fifo")
        a = run_replications(dag, factory, params, 1, seed=1)
        b = run_replications(dag, factory, params, 1, seed=1, jobs=4)
        assert metrics_equal(a, b)
        assert pools == []


class TestIterUnits:
    def test_units_match_run_replications_in_spawn_order(self, params):
        compiled = CompiledDag.from_dag(fork_join(5))
        fifo = policy_factory("fifo")
        rand = policy_factory("random")
        seeds = [np.random.SeedSequence(s) for s in (1, 2, 3)]
        units = [
            ("a", [(compiled, fifo, params, None, seeds[0], 6),
                   (compiled, rand, params, None, seeds[1], 3)]),
            ("b", [(compiled, fifo, params, None, seeds[2], 0)]),
        ]
        par = ParallelConfig(jobs=2, chunk_size=2)
        done = {key: results for key, results, _ in iter_units(units, par)}
        assert sorted(done) == ["a", "b"]
        for results, (factory, seed, count) in zip(
            done["a"], ((fifo, 1, 6), (rand, 2, 3))
        ):
            expected = run_replications(compiled, factory, params, count, seed)
            assert metrics_equal(MetricArrays(results), expected)
        # An empty batch still reports its unit back.
        assert done["b"] == [[]]

    def test_chunk_by_chunk_spawns_match_one_whole_spawn(self):
        whole = np.random.SeedSequence(42).spawn(10)
        seq = np.random.SeedSequence(42)
        chunked = [c for size in (3, 3, 4) for c in seq.spawn(size)]
        assert [(c.entropy, c.spawn_key) for c in chunked] == [
            (c.entropy, c.spawn_key) for c in whole
        ]

    def test_units_are_pulled_one_at_a_time_without_a_pool(self, params):
        compiled = CompiledDag.from_dag(fork_join(3))
        pulled = []

        def units():
            for key in range(3):
                pulled.append(key)
                seed = np.random.SeedSequence(key)
                yield key, [(compiled, policy_factory("fifo"), params, None,
                             seed, 2)]

        runner = iter_units(units(), ParallelConfig())
        assert next(runner)[0] == 0
        assert pulled == [0]
        assert [key for key, _, _ in runner] == [1, 2]


class TestInProcessDriver:
    def test_tasks_run_lazily_in_submission_order(self):
        ran = []

        def task(x):
            ran.append(x)
            return 2 * x

        tasks = [(key, (key,)) for key in range(3)]
        results = iter_chunk_results(task, tasks, ParallelConfig())
        assert ran == []
        assert next(results) == (0, 0)
        assert ran == [0]
        assert list(results) == [(1, 2), (2, 4)]
        assert ran == [0, 1, 2]

    def test_in_process_batches_leave_the_worker_memo_empty(
        self, params, monkeypatch
    ):
        from repro.obs.metrics import MetricsRegistry

        monkeypatch.setattr(parallel_mod, "_WORKER_COMPILED", {})
        compiled = CompiledDag.from_dag(fork_join(6))
        factory = policy_factory("fifo")
        run_replications(compiled, factory, params, 5, seed=1)
        run_replications(
            compiled, factory, params, 5, seed=1, metrics=MetricsRegistry()
        )
        assert parallel_mod._WORKER_COMPILED == {}
        # Only unpickled copies (what pool workers receive) are memoized,
        # and copies of one dag share one canonical instance.
        first, second = (
            pickle.loads(pickle.dumps(compiled)) for _ in range(2)
        )
        assert first is second and first is not compiled
        assert parallel_mod._WORKER_COMPILED == {compiled.fingerprint: first}

    def test_worker_memo_keeps_child_order(self, monkeypatch):
        # Equal fingerprints (arc order ignored) but different child order,
        # which FIFO's eligibility order depends on: no sharing.
        from repro.dag.graph import Dag

        monkeypatch.setattr(parallel_mod, "_WORKER_COMPILED", {})
        a = CompiledDag.from_dag(Dag(3, [(0, 1), (0, 2)]))
        b = CompiledDag.from_dag(Dag(3, [(0, 2), (0, 1)]))
        assert a.fingerprint == b.fingerprint
        for compiled in (a, b, a):
            clone = pickle.loads(pickle.dumps(compiled))
            assert clone.child_lists() == compiled.child_lists()


def square(x):
    """Module-level so it is picklable for the worker pool."""
    return x * x


#: Arguments :func:`traced_square` ran with in *this* process; pool
#: workers append to their own copies.
RAN_HERE = []


def traced_square(x):
    RAN_HERE.append(x)
    return x * x


class TestPoolWindow:
    """The pool loop pulls tasks lazily: at most one window of chunks is
    pulled but not yet yielded, and only those are ever charged."""

    PAR = ParallelConfig(jobs=2)
    WINDOW = 2 * PAR.jobs * parallel_mod._CHUNKS_PER_WORKER
    N = 200

    def counting(self, tally):
        """N tasks; *tally* tracks pulled, yielded and their widest gap."""
        for i in range(self.N):
            tally["pulled"] += 1
            tally["gap"] = max(tally["gap"], tally["pulled"] - tally["yielded"])
            yield i, (i,)

    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy()], ids=["fail-fast", "retrying"]
    )
    def test_pulled_minus_yielded_stays_within_the_window(self, retry):
        tally = {"pulled": 0, "yielded": 0, "gap": 0}
        results = {}
        for key, value in iter_chunk_results(
            square, self.counting(tally), self.PAR, retry=retry
        ):
            tally["yielded"] += 1
            results[key] = value
        assert results == {i: i * i for i in range(self.N)}
        assert 0 < tally["gap"] <= self.WINDOW

    @pytest.mark.parametrize("lazy", [False, True], ids=["list", "generator"])
    def test_kill_after_the_first_window_charges_only_submitted_chunks(
        self, lazy
    ):
        # Chunk k is pulled only after the first window has filled.  Its
        # kill rebuilds the pool; two failures then use up its attempts,
        # so k (and only k) runs in this process, which names the chunk
        # the plan hit.
        k = self.WINDOW + 5
        plan = FaultPlan(kills={(k, 0)}, failures={(k, 1), (k, 2)})
        tally = {"pulled": 0, "yielded": 0, "gap": 0}
        tasks = (
            self.counting(tally)
            if lazy
            else [(i, (i,)) for i in range(self.N)]
        )
        registry = MetricsRegistry()
        RAN_HERE.clear()
        results = dict(
            iter_chunk_results(
                traced_square,
                tasks,
                self.PAR,
                retry=RetryPolicy(base_delay=0.0),
                faults=plan,
                metrics=registry,
            )
        )
        clean = dict(
            iter_chunk_results(
                square, [(i, (i,)) for i in range(self.N)], self.PAR
            )
        )
        assert results == clean
        assert RAN_HERE == [k]
        assert registry.counter("robust.pool_rebuild").value == 1
        assert registry.counter("robust.degraded_serial").value == 1
        # The rebuild charged the in-flight chunks (k among them), never
        # the tasks still in the iterator; k's two failures add two.
        charged = registry.counter("robust.retry").value - 2
        assert 1 <= charged <= self.WINDOW


class TestAnalysisParallel:
    @pytest.fixture(scope="class")
    def workload(self):
        dag = airsn(10)
        return dag, prio_schedule(dag).schedule

    def test_sweep_bit_identical_and_row_major(self, workload):
        dag, order = workload
        cfg = SweepConfig(mu_bits=(1.0,), mu_bss=(2.0, 8.0), p=4, q=2, seed=7)
        serial = ratio_sweep(dag, order, cfg, "x")
        parallel = ratio_sweep(dag, order, cfg, "x", jobs=3)
        assert [(c.mu_bit, c.mu_bs) for c in serial.cells] == [
            (c.mu_bit, c.mu_bs) for c in parallel.cells
        ]
        for a, b in zip(serial.cells, parallel.cells):
            for metric, stats in a.ratios.items():
                assert stats == b.ratios[metric]

    def test_sweep_progress_counts_out_of_order_completion(self, workload):
        dag, order = workload
        cfg = SweepConfig(mu_bits=(1.0,), mu_bss=(2.0, 8.0), p=2, q=2, seed=7)
        calls = []
        ratio_sweep(
            dag, order, cfg, "x",
            progress=lambda d, t: calls.append((d, t)), jobs=2,
        )
        assert calls == [(1, 2), (2, 2)]

    def test_paired_mode_gives_common_random_numbers(self, workload):
        # Regression: paired mode used to spawn PRIO's and FIFO's seeds
        # from one shared SeedSequence object, handing the two policies
        # *disjoint* streams.  With true pairing, FIFO-vs-FIFO ratios are
        # exactly 1 in every cell.
        dag, _ = workload
        fifo_as_prio = list(range(dag.n))
        cfg = SweepConfig(
            mu_bits=(1.0,), mu_bss=(4.0,), p=3, q=2, seed=11, paired=True
        )
        result = ratio_sweep(dag, fifo_as_prio, cfg, "x")
        # An identity-order oblivious policy is not FIFO, so compare
        # FIFO against FIFO directly through run_replications instead.
        from repro.sim.compile import CompiledDag
        from repro.sim.replication import MetricArrays

        compiled = CompiledDag.from_dag(dag)
        params = SimParams(mu_bit=1.0, mu_bs=4.0)
        seed = np.random.SeedSequence(11)
        a = run_replications(
            compiled, policy_factory("fifo"), params, 6, seed
        )
        b = run_replications(
            compiled, policy_factory("fifo"), params, 6, clone_seedseq(seed)
        )
        assert metrics_equal(a, b)
        assert result.cells  # the paired sweep itself ran

    def test_league_bit_identical(self, workload):
        dag, order = workload
        entrants = [
            Entrant.from_schedule("prio", order),
            Entrant("random", "random"),
            Entrant("fifo", "fifo"),
        ]
        params = SimParams(mu_bit=1.0, mu_bs=8.0)
        serial = league({"w": dag}, entrants, params, n_runs=8, seed=2)
        parallel = league(
            {"w": dag}, entrants, params, n_runs=8, seed=2, jobs=2
        )
        assert serial == parallel

    def test_calibrate_bit_identical(self, workload):
        dag, order = workload
        params = SimParams(mu_bit=1.0, mu_bs=8.0)
        kwargs = dict(
            target_width=0.0, p=4, start_q=1, max_q=2, seed=3
        )
        serial = calibrate_cell(dag, list(order), params, **kwargs)
        parallel = calibrate_cell(dag, list(order), params, jobs=2, **kwargs)
        assert serial == parallel

    def test_league_opens_one_pool_per_call(self, workload, pools):
        # One pool across every workload, an arena dag among them; prio
        # resolves its order per workload.
        dag, _ = workload
        entrants = [
            Entrant("prio", "prio"),
            Entrant("random", "random"),
            Entrant("fifo", "fifo"),
        ]
        params = SimParams(mu_bit=1.0, mu_bs=8.0)
        rows = league(
            {"airsn": dag, "arena": arena_family("chain-bundle", 32)},
            entrants, params, n_runs=4, seed=2, jobs=2,
        )
        assert len(rows) == 2 * 3
        assert pools == [2]

    def test_calibrate_opens_one_pool_per_step(self, workload, pools):
        dag, order = workload
        params = SimParams(mu_bit=1.0, mu_bs=8.0)
        result = calibrate_cell(
            dag, list(order), params, target_width=0.0, p=2, start_q=1,
            max_q=8, seed=3, jobs=2,
        )
        assert len(result.steps) == 4
        assert pools == [2] * 4


class TestTelemetryDoesNotPerturb:
    """Telemetry and metrics are observational: enabling them must not
    change any simulation result, serially or in parallel."""

    def make_recorder(self, tmp_path, name="t.jsonl"):
        from repro.obs.recorder import TelemetryRecorder

        return TelemetryRecorder.open(tmp_path / name, command="test")

    def test_metrics_do_not_change_results(self, params):
        from repro.obs.metrics import MetricsRegistry

        dag = fork_join(8)
        factory = policy_factory("fifo")
        plain = run_replications(dag, factory, params, 10, seed=42)
        registry = MetricsRegistry()
        metered = run_replications(
            dag, factory, params, 10, seed=42, metrics=registry
        )
        assert metrics_equal(plain, metered)
        snap = registry.snapshot()
        assert snap["counters"]["engine.runs"] == 10
        assert snap["counters"]["engine.batches"] > 0

    def test_on_replication_called_in_order_with_results(self, params):
        dag = fork_join(6)
        factory = policy_factory("fifo")
        seen = []
        metered = run_replications(
            dag, factory, params, 7, seed=9,
            on_replication=lambda rep, res, el: seen.append((rep, res, el)),
        )
        assert [rep for rep, _, _ in seen] == list(range(7))
        assert [r.execution_time for _, r, _ in seen] == list(
            metered.execution_time
        )
        assert all(type(el) is float and el >= 0.0 for _, _, el in seen)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_with_telemetry_bit_identical_to_plain_serial(
        self, params, jobs, tmp_path
    ):
        from repro.obs.events import read_telemetry
        from repro.obs.metrics import MetricsRegistry

        dag = fork_join(8)
        factory = policy_factory("fifo")
        plain = run_replications(dag, factory, params, 13, seed=42)
        registry = MetricsRegistry()
        with self.make_recorder(tmp_path) as telemetry:
            logged = run_replications(
                dag, factory, params, 13, seed=42, jobs=jobs,
                metrics=registry,
                on_replication=telemetry.replication_logger(
                    workload="fj8", policy="fifo", params=params
                ),
            )
        assert metrics_equal(plain, logged)
        # Worker counters merged back into the parent registry.
        assert registry.snapshot()["counters"]["engine.runs"] == 13
        # One valid record per replication, in replication order.
        records = read_telemetry(tmp_path / "t.jsonl")
        reps = [r for r in records if r["kind"] == "replication"]
        assert [r["rep"] for r in reps] == list(range(13))
        assert [r["execution_time"] for r in reps] == list(
            plain.execution_time
        )

    def test_no_simresult_field_changes_with_metrics_on(self, params):
        # Field-by-field: the full SimResult tuple must be unchanged, not
        # just the three headline metrics.
        import dataclasses

        from repro.obs.metrics import MetricsRegistry
        from repro.sim.compile import CompiledDag
        from repro.sim.engine import simulate

        dag = CompiledDag.from_dag(fork_join(8))
        seed = np.random.SeedSequence(11)

        def one(metrics):
            rng = np.random.default_rng(clone_seedseq(seed))
            return simulate(
                dag, policy_factory("fifo")(rng), params, rng, metrics=metrics
            )

        assert dataclasses.asdict(one(None)) == dataclasses.asdict(
            one(MetricsRegistry())
        )

    def test_sweep_with_telemetry_bit_identical(self, tmp_path):
        from repro.obs.events import read_telemetry

        dag = airsn(10)
        order = prio_schedule(dag).schedule
        cfg = SweepConfig(mu_bits=(1.0,), mu_bss=(2.0, 8.0), p=3, q=2, seed=7)
        plain = ratio_sweep(dag, order, cfg, "x")
        with self.make_recorder(tmp_path) as telemetry:
            serial = ratio_sweep(dag, order, cfg, "x", telemetry=telemetry)
        with self.make_recorder(tmp_path, "p.jsonl") as telemetry:
            parallel = ratio_sweep(
                dag, order, cfg, "x", jobs=3, telemetry=telemetry
            )
        for a, b, c in zip(plain.cells, serial.cells, parallel.cells):
            assert a.ratios == b.ratios == c.ratios
        # Serial and parallel logs agree modulo wall-clock timings.
        def stable(path):
            out = []
            for r in read_telemetry(path):
                r = dict(r)
                r.pop("elapsed_seconds", None)
                r.pop("seconds", None)
                out.append(r)
            return out

        s, p = stable(tmp_path / "t.jsonl"), stable(tmp_path / "p.jsonl")
        assert s == p
        reps = [r for r in s if r["kind"] == "replication"]
        # One record per replication: cells x sides x (p * q).
        assert len(reps) == 2 * 2 * (3 * 2)
