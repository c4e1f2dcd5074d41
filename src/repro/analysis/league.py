"""Policy league tables: any set of schedules/policies, one operating
point, common random numbers.

The paper compares two algorithms; the library has more (PRIO, FIFO,
RANDOM, topological-combine PRIO, catalog-less PRIO, exact-bipartite
PRIO, upward-rank, DAGPS...).  A league run measures them side by side
under identical worker arrivals and reports means with paired-difference
significance against a chosen baseline (the sign test of
:mod:`repro.stats.tests`).

:func:`grand_league` scales the comparison into a tournament: every
requested policy × every dag in a workload map — the paper's registry
workloads *and* the arena-built synthetic families of
:mod:`repro.workloads.synthetic` at 10^5+ jobs — with per-replication
common-random-number contests aggregated into win rates and the one-time
scheduling cost (order computation) reported separately from simulation
time, mirroring the paper's amortization argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from ..dag.graph import Dag
from ..sim.compile import CompiledDag, as_compiled
from ..sim.engine import SimParams
from ..sim.parallel import resolve_parallel
from ..sim.policies import policy_spec
from ..sim.replication import (
    MetricArrays,
    iter_units,
    policy_factory,
    run_replications,
)
from ..stats.tests import sign_test
from ._ckpt import UnitLedger

__all__ = [
    "Entrant",
    "LeagueRow",
    "league",
    "render_league",
    "GrandCell",
    "GrandLeagueResult",
    "grand_league",
    "render_grand_league",
]


@dataclass(frozen=True)
class Entrant:
    """One competitor: a policy kind plus (for oblivious) its order."""

    name: str
    kind: str  # any registered kind
    #: ``None`` lets a static kind resolve its order from the league's dag
    order: tuple[int, ...] | None = None

    @classmethod
    def from_schedule(cls, name: str, schedule: Sequence[int]) -> "Entrant":
        return cls(name=name, kind="oblivious", order=tuple(schedule))


@dataclass(frozen=True)
class LeagueRow:
    """One entrant's results."""

    name: str
    mean_execution_time: float
    mean_utilization: float
    mean_stalling: float
    #: one-sided sign-test p-value that this entrant beats the baseline
    #: on matched runs (None for the baseline itself)
    p_beats_baseline: float | None


def league(
    dag: Dag,
    entrants: Sequence[Entrant],
    params: SimParams,
    *,
    n_runs: int = 32,
    seed: int = 0,
    baseline: str | None = None,
    jobs: int = 1,
    workload: str = "dag",
    progress=None,
    telemetry=None,
    checkpoint=None,
    retry=None,
    faults=None,
    cache=None,
) -> list[LeagueRow]:
    """Run every entrant over the same *n_runs* seed streams.

    *baseline* names the entrant paired comparisons are made against
    (default: the last entrant, conventionally FIFO).  Rows come back
    sorted by mean execution time, best first.  Each entrant is one unit
    of :func:`repro.sim.replication.iter_units`, and all of them run in
    one call: *jobs* gives that call one worker pool, shared by every
    entrant's replications (bit-identical results).

    *progress*, when given, is called with ``(entrants_done,
    total_entrants)`` after each entrant's batch (in completion order
    with a pool).  *telemetry*, when given, is a
    :class:`~repro.obs.recorder.TelemetryRecorder` that receives one
    ``replication`` record per simulation (``policy`` set to the
    entrant's name), an entrant's records contiguous; observational
    only, results are unchanged.

    *checkpoint* (a :class:`~repro.robust.checkpoint.Checkpoint`) records
    each completed entrant's metric vectors durably; entrants already
    recorded are restored instead of re-simulated (bit-identical — every
    entrant derives its seeds from the shared root independently, so
    skipping one cannot shift another's streams).  Restored entrants
    replay their telemetry first, then the rest run.  *retry* / *faults*
    configure the fault-tolerant parallel executor (see
    :func:`repro.sim.parallel.iter_chunk_results`).

    *cache* (a :class:`~repro.perf.cache.ScheduleCache`) memoizes the
    compiled dag across league runs over the same structure (entrant
    schedules are the caller's to cache when building the entrant list).
    Results are bit-identical with or without it.
    """
    if not entrants:
        raise ValueError("need at least one entrant")
    names = [e.name for e in entrants]
    if len(set(names)) != len(names):
        raise ValueError("entrant names must be unique")
    baseline = baseline if baseline is not None else names[-1]
    if baseline not in names:
        raise ValueError(f"unknown baseline {baseline!r}")
    compiled = cache.compiled(dag) if cache is not None else as_compiled(dag)
    ledger = UnitLedger(checkpoint, telemetry, workload)
    metrics: dict[str, MetricArrays] = {}
    for e in entrants:
        payload = ledger.restore(f"entrant/{e.name}", (e.name,), params)
        if payload is not None:
            metrics[e.name] = MetricArrays.from_arrays(
                payload["execution_time"],
                payload["stalling_probability"],
                payload["utilization"],
            )
            if progress is not None:
                progress(len(metrics), len(entrants))
    ledger.restored_all()

    def units():
        # Every entrant replays the same seed streams: a fresh root each.
        for e in entrants:
            if e.name not in metrics:
                factory = policy_factory(
                    e.kind, e.order or None, dag=dag, cache=cache
                )
                seedseq = np.random.SeedSequence(seed)
                yield e.name, [
                    (compiled, factory, params, None, seedseq, n_runs)
                ]

    for name, results, elapsed in iter_units(
        units(),
        resolve_parallel(jobs, None),
        collect=telemetry is not None,
        retry=retry,
        faults=faults,
        metrics=telemetry.registry if telemetry is not None else None,
    ):
        m = metrics[name] = MetricArrays(results[0])
        ledger.complete(
            f"entrant/{name}", (name,), params, results, elapsed,
            {
                "execution_time": m.execution_time.tolist(),
                "stalling_probability": m.stalling_probability.tolist(),
                "utilization": m.utilization.tolist(),
            },
        )
        if progress is not None:
            progress(len(metrics), len(entrants))
    base_times = metrics[baseline].execution_time
    rows = []
    for e in entrants:
        m = metrics[e.name]
        p_value = None
        if e.name != baseline:
            p_value = sign_test(m.execution_time, base_times).p_value
        rows.append(
            LeagueRow(
                name=e.name,
                mean_execution_time=float(m.execution_time.mean()),
                mean_utilization=float(m.utilization.mean()),
                mean_stalling=float(m.stalling_probability.mean()),
                p_beats_baseline=p_value,
            )
        )
    rows.sort(key=lambda r: r.mean_execution_time)
    return rows


@dataclass(frozen=True)
class GrandCell:
    """One (workload, policy) cell of a grand tournament."""

    workload: str
    n_jobs: int
    policy: str
    mean_execution_time: float
    mean_utilization: float
    mean_stalling: float
    #: Fraction of this workload's replications this policy won under
    #: common random numbers (strict minimum execution time; exact ties
    #: split the win equally among the tied policies), in [0, 1].
    win_rate: float
    #: One-time scheduling cost: wall-clock seconds to derive the
    #: policy's order/factory for this dag (the cost the paper amortizes
    #: over the whole computation).  ~0 for order-free policies.
    order_seconds: float
    #: Wall-clock seconds for the whole replication batch.
    sim_seconds: float


@dataclass(frozen=True)
class GrandLeagueResult:
    """All cells of a grand tournament: every workload x every policy."""

    cells: tuple[GrandCell, ...]
    n_runs: int
    seed: int

    def policies(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for c in self.cells:
            seen.setdefault(c.policy)
        return tuple(seen)

    def workloads(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for c in self.cells:
            seen.setdefault(c.workload)
        return tuple(seen)

    def win_rates(self) -> dict[str, float]:
        """Mean win rate per policy across the workloads it competed in."""
        totals: dict[str, list[float]] = {}
        for c in self.cells:
            totals.setdefault(c.policy, []).append(c.win_rate)
        return {p: float(np.mean(v)) for p, v in totals.items()}


def grand_league(
    workloads: Mapping[str, Dag | CompiledDag],
    policies: Sequence[str],
    params: SimParams,
    *,
    n_runs: int = 16,
    seed: int = 0,
    jobs: int = 1,
    cache=None,
    progress=None,
) -> GrandLeagueResult:
    """Race *policies* across every dag in *workloads*.

    Within one workload every policy replays the same *n_runs* seed
    streams (common random numbers — identical worker arrivals), so each
    replication is a matched contest: the policy with the strictly
    smallest execution time takes the win, exact ties split it.  Cells
    report per-policy means, win rates, the one-time scheduling cost and
    the simulation wall clock; static-permutation policies ride the
    batched kernel automatically, which is what makes 10^5-job dags
    tractable inside a tournament loop.

    *workloads* maps display names to dags — object dags
    (:class:`~repro.dag.graph.Dag`) or arena-built compiled dags
    (:class:`~repro.sim.compile.CompiledDag`); every policy plays every
    workload (:func:`~repro.sim.replication.policy_factory` converts a
    compiled dag once for the kinds that need the object dag, and that
    conversion counts toward their ``order_seconds``).  *progress*, when
    given, is called with ``(done_cells, total_cells)``.  *cache* (a
    :class:`~repro.perf.cache.ScheduleCache`) memoizes orders and
    compiled dags across rounds.
    """
    policies = list(policies)
    if not policies:
        raise ValueError("need at least one policy")
    if len(set(policies)) != len(policies):
        raise ValueError("policy names must be unique")
    for kind in policies:
        policy_spec(kind)  # raises UnknownPolicyError early, pre-run
    total = len(workloads) * len(policies)
    done = 0
    cells: list[GrandCell] = []
    for wname, dag in workloads.items():
        compiled = (
            cache.compiled(dag) if cache is not None else as_compiled(dag)
        )
        times: dict[str, np.ndarray] = {}
        stats: dict[str, tuple[MetricArrays, float, float]] = {}
        for kind in policies:
            t0 = time.perf_counter()
            factory = policy_factory(kind, dag=dag, cache=cache)
            order_seconds = time.perf_counter() - t0
            done += 1
            t0 = time.perf_counter()
            m = run_replications(
                compiled, factory, params, n_runs, seed=seed, jobs=jobs
            )
            sim_seconds = time.perf_counter() - t0
            times[kind] = m.execution_time
            stats[kind] = (m, order_seconds, sim_seconds)
            if progress is not None:
                progress(done, total)
        # Matched contests: stack the competitors' execution times and
        # split each replication's win among the policies attaining the
        # minimum.
        matrix = np.stack([times[k] for k in times])
        wins = matrix == matrix.min(axis=0, keepdims=True)
        share = wins / wins.sum(axis=0, keepdims=True)
        for row, kind in enumerate(times):
            m, order_seconds, sim_seconds = stats[kind]
            cells.append(
                GrandCell(
                    workload=wname,
                    n_jobs=compiled.n,
                    policy=kind,
                    mean_execution_time=float(m.execution_time.mean()),
                    mean_utilization=float(m.utilization.mean()),
                    mean_stalling=float(m.stalling_probability.mean()),
                    win_rate=float(share[row].mean()),
                    order_seconds=order_seconds,
                    sim_seconds=sim_seconds,
                )
            )
    return GrandLeagueResult(cells=tuple(cells), n_runs=n_runs, seed=seed)


def render_grand_league(result: GrandLeagueResult) -> str:
    """Text table: one block per workload, best execution time first."""
    lines = [
        f"{'workload':<24s} {'policy':<14s} {'jobs':>8s} {'exec time':>10s} "
        f"{'win rate':>9s} {'order s':>8s} {'sim s':>7s}"
    ]
    for wname in result.workloads():
        block = [c for c in result.cells if c.workload == wname]
        block.sort(key=lambda c: c.mean_execution_time)
        for c in block:
            lines.append(
                f"{c.workload:<24s} {c.policy:<14s} {c.n_jobs:>8d} "
                f"{c.mean_execution_time:>10.2f} {c.win_rate:>9.3f} "
                f"{c.order_seconds:>8.3f} {c.sim_seconds:>7.2f}"
            )
    return "\n".join(lines)


def render_league(rows: list[LeagueRow]) -> str:
    """Text table, best execution time first."""
    lines = [
        f"{'entrant':<22s} {'exec time':>10s} {'util':>7s} {'stall':>7s} "
        f"{'p(beats base)':>14s}"
    ]
    for r in rows:
        p = "baseline" if r.p_beats_baseline is None else f"{r.p_beats_baseline:.4f}"
        lines.append(
            f"{r.name:<22s} {r.mean_execution_time:>10.2f} "
            f"{r.mean_utilization:>7.3f} {r.mean_stalling:>7.3f} {p:>14s}"
        )
    return "\n".join(lines)
