"""Batched-vs-reference equivalence: ``simulate_batch`` against the oracle.

The batched kernel's contract, replication by replication: for every
generator in the batch, the :class:`SimResult` and the generator's end
state must be bit-identical to the reference engine,
``simulate(dag, policy, params, rng)`` run serially with that generator
— across both supported policies, worker churn (batched in lockstep),
per-job runtime scaling, both batch-size distributions, slab boundaries
and the paper workloads.  Rollover is refused by the kernel and runs
per replication on the reference loop.  Any divergence is a bug in
:mod:`repro.perf.kernel_batch`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prio import prio_schedule
from repro.dag.graph import Dag
from repro.perf import batch_supported, simulate_batch
from repro.perf import kernel_batch
from repro.sim.compile import CompiledDag
from repro.sim.engine import SimParams, make_policy, simulate
from repro.sim.replication import policy_factory, run_replications
from repro.workloads.registry import get_workload

from .strategies import dags, sim_params

WORKLOADS = ("airsn-small", "inspiral-small", "montage-small", "sdss-small")

#: Batch-synchronous operating points: the kernel refuses rollover, which
#: ``test_batch_falls_back_identically_outside_batch_sync`` covers.
BATCH_PARAMS = sim_params().filter(lambda params: not params.rollover)

#: Registered kinds that reduce to the oblivious dispatch class.
STATIC_KINDS = ("prio", "upward-rank", "dagps")


def _order_for(dag, kind):
    if kind == "oblivious":
        return prio_schedule(dag).schedule
    return policy_factory(kind, dag=dag).order


def _assert_batch_matches_serial(dag, kind, params, count, seed, scale=None):
    """Batched results and generator end states == reference, rep by rep."""
    compiled = CompiledDag.from_dag(dag)
    order = _order_for(dag, kind)
    seqs = np.random.SeedSequence(seed).spawn(count)
    batch_rngs = [np.random.default_rng(s) for s in seqs]
    batched = simulate_batch(
        compiled, kind, params, batch_rngs, order=order, runtime_scale=scale
    )
    assert len(batched) == count
    for i, seq in enumerate(seqs):
        rng = np.random.default_rng(seq)
        serial = simulate(
            compiled,
            make_policy(kind, order=order),
            params,
            rng,
            runtime_scale=scale,
        )
        assert batched[i] == serial  # plain dataclass: exact floats
        assert (
            batch_rngs[i].bit_generator.state == rng.bit_generator.state
        ), f"generator end state diverged for replication {i}"


@settings(deadline=None, max_examples=40)
@given(
    dags(),
    BATCH_PARAMS,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["fifo", "oblivious"]),
    st.booleans(),
)
def test_batch_matches_serial_on_random_dags(dag, params, seed, kind, scaled):
    scale = None
    if scaled and dag.n:
        scale = np.random.default_rng(seed ^ 0x5A5A).uniform(0.5, 2.0, dag.n)
    _assert_batch_matches_serial(dag, kind, params, 4, seed, scale=scale)


@settings(deadline=None, max_examples=25)
@given(
    dags(),
    BATCH_PARAMS,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(STATIC_KINDS),
)
def test_batch_matches_serial_for_registered_static_kinds(
    dag, params, seed, kind
):
    """Registered static-permutation kinds reduce to the oblivious
    dispatch class bit-identically, replication by replication."""
    _assert_batch_matches_serial(dag, kind, params, 3, seed)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "kind", ["fifo", "oblivious", "upward-rank", "dagps"]
)
def test_batch_matches_serial_on_paper_workloads(workload, kind):
    dag = get_workload(workload)
    params = SimParams(mu_bit=1.0, mu_bs=16.0)
    _assert_batch_matches_serial(dag, kind, params, 3, seed=20060427)


@st.composite
def churn_params(draw) -> SimParams:
    """Worker-churn operating points: the batched path's failure flags,
    re-insertions, FIFO slots, stall/snapshot rules and arrival drain."""
    return SimParams(
        mu_bit=draw(st.sampled_from([0.01, 0.5, 1.0, 10.0])),
        mu_bs=draw(st.sampled_from([1.0, 2.0, 16.0, 128.0])),
        runtime_std=draw(st.sampled_from([0.0, 0.1])),
        failure_prob=draw(st.floats(min_value=0.01, max_value=0.9)),
        failure_time_fraction=draw(st.floats(min_value=0.1, max_value=1.0)),
        batch_size_dist=draw(
            st.sampled_from(["geometric", "ceil-exponential"])
        ),
    )


@settings(deadline=None, max_examples=60)
@given(
    dags(),
    churn_params(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["fifo", "oblivious", "upward-rank", "dagps"]),
    st.booleans(),
)
def test_batch_matches_serial_under_churn(dag, params, seed, kind, scaled):
    """Churn runs in lockstep, bit-identical (results and generator end
    state) to the serial engines; ``runtime_std=0`` drives the
    equal-finish tie path."""
    assert batch_supported(kind, params)
    scale = None
    if scaled and dag.n:
        scale = np.random.default_rng(seed ^ 0xA5A5).uniform(0.5, 2.0, dag.n)
    _assert_batch_matches_serial(dag, kind, params, 4, seed, scale=scale)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "kind", ["fifo", "oblivious", "upward-rank", "dagps"]
)
def test_batch_matches_serial_on_paper_workloads_under_churn(workload, kind):
    """Churn cells of the paper workloads run on the batched path itself
    and stay exact."""
    dag = get_workload(workload)
    params = SimParams(mu_bit=1.0, mu_bs=16.0, failure_prob=0.3)
    _assert_batch_matches_serial(dag, kind, params, 3, seed=7)


def test_batch_churn_two_failures_in_one_window_keep_fifo_order():
    """Two failures popped in one window re-enter FIFO at their own pop
    positions, ahead of children a later pop frees."""
    dag = Dag(11, [(0, 3), (0, 6), (0, 8), (0, 9), (2, 6), (2, 10), (4, 10),
                   (5, 6), (5, 9), (6, 7), (7, 8), (8, 10)])
    params = SimParams(mu_bit=1.0, mu_bs=4.0, failure_prob=0.3)
    _assert_batch_matches_serial(dag, "fifo", params, 4, seed=497459871)


def test_batch_churn_drain_crosses_an_arrival_chunk():
    """A long last job keeps the reference peeking arrivals for many
    chunks after the last assignment; retirement must drain them."""
    dag = Dag(3, [(0, 1), (1, 2)])
    params = SimParams(mu_bit=0.01, mu_bs=1.0, failure_prob=0.1)
    scale = np.array([1.0, 1.0, 1000.0])
    for kind in ("fifo", "oblivious"):
        _assert_batch_matches_serial(dag, kind, params, 4, seed=3, scale=scale)


def test_batch_churn_fifo_keys_grow_past_n_insertions(monkeypatch):
    """At p = 0.95 a job is inserted ~20 times, so FIFO's insertion
    sequence outgrows n and the key stride must grow; with a lowered
    int32 bound the growth also switches the frontier to int64."""
    dag = Dag(30, [(i, i + 1) for i in range(0, 29, 3)])
    params = SimParams(mu_bit=0.5, mu_bs=4.0, failure_prob=0.95)
    dtypes = []
    real = kernel_batch._restride

    def spy(enc, old, new, dtype):
        dtypes.append(np.dtype(dtype))
        return real(enc, old, new, dtype)

    monkeypatch.setattr(kernel_batch, "_restride", spy)
    compiled = CompiledDag.from_dag(dag)
    results = simulate_batch(
        compiled, "fifo", params,
        [np.random.default_rng(s) for s in range(4)],
    )
    assert min(r.n_failures for r in results) > 10 * dag.n
    _assert_batch_matches_serial(dag, "fifo", params, 4, seed=5)
    assert dtypes and set(dtypes) == {np.dtype(np.int32)}

    dtypes.clear()
    # R * (n*n + 1) = 3604 fits; the first doubled stride does not.
    monkeypatch.setattr(kernel_batch, "_INT32_LIMIT", 4000)
    _assert_batch_matches_serial(dag, "fifo", params, 4, seed=5)
    assert np.dtype(np.int64) in dtypes


@pytest.mark.parametrize(
    "params",
    [
        SimParams(mu_bit=1.0, mu_bs=8.0, rollover=True),
        SimParams(mu_bit=0.1, mu_bs=4.0, failure_prob=0.2, rollover=True),
    ],
    ids=["rollover", "churn+rollover"],
)
def test_batch_falls_back_identically_outside_batch_sync(params, monkeypatch):
    """The kernel refuses rollover; ``run_replications`` declines the
    batch and runs each replication on the reference loop — results and
    generator end states equal per-replication ``simulate``."""
    dag = get_workload("airsn-small")
    compiled = CompiledDag.from_dag(dag)
    seen = []

    def spy(dag, policy, params, rng, **kwargs):
        result = simulate(dag, policy, params, rng, **kwargs)
        seen.append((result, rng.bit_generator.state))
        return result

    monkeypatch.setattr("repro.sim.parallel.simulate", spy)
    for kind in ("fifo", "oblivious", "upward-rank", "dagps"):
        assert not batch_supported(kind, params)
        order = _order_for(dag, kind)
        with pytest.raises(ValueError, match="rollover"):
            simulate_batch(
                compiled, kind, params, [np.random.default_rng(0)],
                order=order,
            )
        build = policy_factory(kind, order=order)
        seen.clear()
        metrics = run_replications(compiled, build, params, count=3, seed=7)
        seqs = np.random.SeedSequence(7).spawn(3)
        assert len(seen) == len(seqs)
        expected = []
        for (result, state), seq in zip(seen, seqs):
            rng = np.random.default_rng(seq)
            reference = simulate(compiled, build(rng), params, rng)
            assert result == reference  # plain dataclass: exact floats
            assert state == rng.bit_generator.state
            expected.append(reference)
        assert np.array_equal(
            metrics.execution_time, [r.execution_time for r in expected]
        )
        assert np.array_equal(
            metrics.utilization, [r.utilization for r in expected]
        )


def test_batch_matches_across_slab_boundaries(monkeypatch):
    """A batch split into multiple state slabs is still exact per rep."""
    dag = Dag(40, [(i, i + 1) for i in range(0, 38, 2)])
    monkeypatch.setattr(kernel_batch, "_STATE_BUDGET", 120)  # slab = 3 reps
    params = SimParams(mu_bit=0.5, mu_bs=4.0)
    for kind in ("fifo", "oblivious"):
        _assert_batch_matches_serial(dag, kind, params, 10, seed=55)


def test_batch_chain_crosses_arrival_chunks():
    """A long serial chain forces mid-run arrival-chunk refills."""
    dag = Dag(48, [(i, i + 1) for i in range(47)])
    params = SimParams(mu_bit=0.01, mu_bs=1.0)
    for kind in ("fifo", "oblivious"):
        _assert_batch_matches_serial(dag, kind, params, 3, seed=99)


def test_batch_single_request_larger_than_sampler_chunk():
    """One huge batch draws a runtime block wider than the chunk size."""
    dag = Dag(4200, [])
    params = SimParams(mu_bit=1.0, mu_bs=8192.0)
    for kind in ("fifo", "oblivious"):
        _assert_batch_matches_serial(dag, kind, params, 3, seed=123)


def test_batch_zero_runtime_spread_breaks_ties_like_the_heap():
    """std=0 makes finishes collide exactly; FIFO's in-window pop order
    must still match the reference heap's (finish, job) tiebreak."""
    dag = Dag(30, [(i, j) for i in range(6) for j in range(6, 30, 4)])
    params = SimParams(mu_bit=2.0, mu_bs=4.0, runtime_std=0.0)
    for kind in ("fifo", "oblivious"):
        _assert_batch_matches_serial(dag, kind, params, 6, seed=321)


def test_batch_empty_dag_returns_empty_results():
    results = simulate_batch(
        Dag(0, []), "fifo", SimParams(mu_bit=1.0, mu_bs=4.0),
        [np.random.default_rng(i) for i in range(3)],
    )
    assert len(results) == 3
    assert all(
        r.n_jobs == 0 and r.execution_time == 0.0 for r in results
    )


def test_batch_rejects_unsupported_policy_kind():
    with pytest.raises(ValueError, match="policy kind"):
        simulate_batch(
            Dag(2, []), "random", SimParams(mu_bit=1.0, mu_bs=4.0),
            [np.random.default_rng(0)],
        )


def test_batch_validates_runtime_scale():
    dag = Dag(3, [])
    with pytest.raises(ValueError, match="one entry per job"):
        simulate_batch(
            dag, "fifo", SimParams(mu_bit=1.0, mu_bs=4.0),
            [np.random.default_rng(0)], runtime_scale=np.ones(2),
        )
    with pytest.raises(ValueError, match="positive"):
        simulate_batch(
            dag, "fifo", SimParams(mu_bit=1.0, mu_bs=4.0),
            [np.random.default_rng(0)], runtime_scale=np.zeros(3),
        )


def test_batch_supported_predicate():
    ok = SimParams(mu_bit=1.0, mu_bs=4.0)
    assert batch_supported("fifo", ok)
    assert batch_supported("oblivious", ok)
    for kind in STATIC_KINDS:
        assert batch_supported(kind, ok), kind
    assert not batch_supported("random", ok)
    assert not batch_supported("prio-live", ok)
    assert not batch_supported("not-a-policy", ok)
    assert batch_supported(
        "fifo", SimParams(mu_bit=1.0, mu_bs=4.0, failure_prob=0.1)
    )
    assert not batch_supported(
        "fifo", SimParams(mu_bit=1.0, mu_bs=4.0, rollover=True)
    )
    assert not batch_supported(
        "fifo", SimParams(mu_bit=1.0, mu_bs=4.0, straggler_prob=0.1)
    )


def test_batch_refuses_straggler_injection():
    dag = get_workload("montage-small")
    params = SimParams(mu_bit=1.0, mu_bs=4.0, straggler_prob=0.1)
    with pytest.raises(ValueError, match="straggler"):
        simulate_batch(dag, "fifo", params, [np.random.default_rng(0)])


def test_run_replications_dispatches_to_batch(monkeypatch):
    """The serial hot path hands whole batches to the batched kernel and
    the metrics are bit-identical to the per-replication loop."""
    dag = get_workload("montage-small")
    params = SimParams(mu_bit=1.0, mu_bs=8.0)
    calls = []
    real = kernel_batch.simulate_batch

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel_batch, "simulate_batch", spy)
    batched = run_replications(
        dag, policy_factory("fifo"), params, count=6, seed=11
    )
    assert calls, "batched kernel was never dispatched"

    monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    serial = run_replications(
        dag, policy_factory("fifo"), params, count=6, seed=11
    )
    assert np.array_equal(batched.execution_time, serial.execution_time)
    assert np.array_equal(
        batched.stalling_probability, serial.stalling_probability
    )
    assert np.array_equal(batched.utilization, serial.utilization)


@pytest.mark.parametrize("kind", ["upward-rank", "dagps"])
def test_run_replications_dispatches_new_kinds_to_batch(monkeypatch, kind):
    """New static kinds ride the batched kernel through the replication
    layer, bit-identical to the forced-reference path."""
    dag = get_workload("montage-small")
    params = SimParams(mu_bit=1.0, mu_bs=8.0)
    calls = []
    real = kernel_batch.simulate_batch

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel_batch, "simulate_batch", spy)
    batched = run_replications(
        dag, policy_factory(kind, dag=dag), params, count=5, seed=13
    )
    assert calls, "batched kernel was never dispatched"

    monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    serial = run_replications(
        dag, policy_factory(kind, dag=dag), params, count=5, seed=13
    )
    assert np.array_equal(batched.execution_time, serial.execution_time)
    assert np.array_equal(batched.utilization, serial.utilization)


def test_run_replications_falls_back_for_dynamic_kinds(monkeypatch):
    """Kinds with no kernel dispatch class (random, prio-live) take the
    documented per-replication reference fallback — no batch dispatch."""
    dag = get_workload("montage-small")
    params = SimParams(mu_bit=1.0, mu_bs=8.0)
    calls = []

    def spy(*args, **kwargs):  # pragma: no cover - must never run
        calls.append(1)
        raise AssertionError("dynamic kind dispatched to the batch kernel")

    monkeypatch.setattr(kernel_batch, "simulate_batch", spy)
    for build in (policy_factory("random"), policy_factory("prio-live", dag=dag)):
        assert build.batch_kind is None
        run_replications(dag, build, params, count=2, seed=5)
    assert not calls
