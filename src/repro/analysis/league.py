"""Policy league tables: any set of schedules/policies on any set of
workloads, common random numbers.

The paper compares two algorithms; the library has more (PRIO, FIFO,
RANDOM, topological-combine PRIO, catalog-less PRIO, exact-bipartite
PRIO, upward-rank, DAGPS...).  A league races every entrant on every
workload — registry dags, or arena-built synthetic families of
:mod:`repro.workloads.synthetic` at 10^5+ jobs — under identical worker
arrivals.  Per workload it reports each entrant's means, its paired
sign-test p-value against a chosen baseline
(:func:`repro.stats.tests.sign_test`), its share of the matched
contests (exact ties split) and how many of those it tied, plus the
one-time scheduling cost (order computation) apart from simulation time,
mirroring the paper's amortization argument.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..dag.graph import Dag
from ..sim.compile import CompiledDag, as_compiled
from ..sim.engine import SimParams
from ..sim.parallel import ParallelConfig
from ..sim.policies import policy_spec
from ..sim.replication import MetricArrays, iter_units, policy_factory
from ..stats.tests import sign_test
from ._ckpt import UnitLedger

__all__ = ["Entrant", "LeagueRow", "league", "render_league"]


@dataclass(frozen=True)
class Entrant:
    """One competitor: a policy kind plus (for oblivious) its order."""

    name: str
    kind: str  # any registered kind
    #: ``None`` lets a static kind resolve its order from each workload
    order: tuple[int, ...] | None = None

    @classmethod
    def from_schedule(cls, name: str, schedule: Sequence[int]) -> "Entrant":
        return cls(name=name, kind="oblivious", order=tuple(schedule))


@dataclass(frozen=True)
class LeagueRow:
    """One entrant's results on one workload."""

    workload: str
    n_jobs: int
    name: str
    mean_execution_time: float
    mean_utilization: float
    mean_stalling: float
    #: one-sided sign-test p-value that this entrant beats the baseline
    #: on matched runs (None for the baseline itself)
    p_beats_baseline: float | None
    #: share of the workload's replications this entrant won (smallest
    #: execution time; an exact tie splits the win among the tied)
    win_rate: float
    #: replications in which this entrant attained the smallest
    #: execution time together with at least one other entrant
    ties: int
    #: wall seconds of the entrant's ``policy_factory`` call on this
    #: workload (the one-time order cost); None when restored
    order_seconds: float | None = field(default=None, compare=False)
    #: wall seconds from that call to the batch's last result; None when
    #: restored
    sim_seconds: float | None = field(default=None, compare=False)


def league(
    workloads: Mapping[str, Dag | CompiledDag],
    entrants: Sequence[Entrant],
    params: SimParams,
    *,
    n_runs: int = 32,
    seed: int = 0,
    baseline: str | None = None,
    jobs: int = 1,
    progress=None,
    telemetry=None,
    checkpoint=None,
    retry=None,
    faults=None,
    cache=None,
) -> list[LeagueRow]:
    """Run every entrant on every workload over the same *n_runs* seed
    streams.

    *workloads* maps display names to object dags
    (:class:`~repro.dag.graph.Dag`) or arena-built compiled dags
    (:class:`~repro.sim.compile.CompiledDag`).  *baseline* names the
    entrant paired comparisons are made against, per workload (default:
    the last entrant, conventionally FIFO).  Rows come back grouped by
    workload in mapping order, best mean execution time first within a
    workload.  Each (workload, entrant) pair is one unit of
    :func:`repro.sim.replication.iter_units`, and all of them run in one
    call: *jobs* gives that call one worker pool, shared by every unit
    (bit-identical results).  An entrant's policy factory is built when
    its unit is pulled, so a static kind resolves its order then.

    *progress*, when given, is called with ``(units_done, total_units)``
    after each unit (in completion order with a pool).  *telemetry*,
    when given, is a :class:`~repro.obs.recorder.TelemetryRecorder` that
    receives one ``replication`` record per simulation (``workload`` and
    ``policy`` set to the unit's names), a unit's records contiguous;
    observational only, results are unchanged.

    *checkpoint* (a :class:`~repro.robust.checkpoint.Checkpoint`) records
    each completed unit's metric vectors durably under
    ``entrant/{workload}/{name}``; units already recorded are restored
    instead of re-simulated (bit-identical — every unit derives its seeds
    from the shared root independently, so skipping one cannot shift
    another's streams).  Restored units replay their telemetry first,
    then the rest run.  *retry* / *faults* configure the fault-tolerant
    parallel executor (see :func:`repro.sim.parallel.iter_chunk_results`).

    *cache* (a :class:`~repro.perf.cache.ScheduleCache`) memoizes the
    compiled dags and resolved orders across league runs over the same
    structure.  Results are bit-identical with or without it.
    """
    if not entrants:
        raise ValueError("need at least one entrant")
    names = [e.name for e in entrants]
    if len(set(names)) != len(names):
        raise ValueError("entrant names must be unique")
    baseline = baseline if baseline is not None else names[-1]
    if baseline not in names:
        raise ValueError(f"unknown baseline {baseline!r}")
    for e in entrants:
        policy_spec(e.kind)  # raises UnknownPolicyError before any run
    compiled = {
        w: cache.compiled(dag) if cache is not None else as_compiled(dag)
        for w, dag in workloads.items()
    }
    for w, c in compiled.items():
        for e in entrants:
            if e.order and len(e.order) != c.n:
                raise ValueError(
                    f"entrant {e.name!r} orders {len(e.order)} jobs but "
                    f"workload {w!r} has {c.n}"
                )
    total = len(workloads) * len(entrants)
    ledger = UnitLedger(checkpoint, telemetry)
    metrics: dict[tuple[str, str], MetricArrays] = {}
    for w in workloads:
        for e in entrants:
            payload = ledger.restore(
                f"entrant/{w}/{e.name}", w, (e.name,), params
            )
            if payload is not None:
                metrics[w, e.name] = MetricArrays.from_arrays(
                    payload["execution_time"],
                    payload["stalling_probability"],
                    payload["utilization"],
                )
                if progress is not None:
                    progress(len(metrics), total)
    ledger.restored_all()
    # Per unit: (order seconds, pull time) while in flight, then
    # (order seconds, sim seconds) once it lands.
    pulled: dict[tuple[str, str], tuple[float, float]] = {}
    seconds: dict[tuple[str, str], tuple[float, float]] = {}

    def units():
        # Every unit replays the same seed streams: a fresh root each.
        for w, dag in workloads.items():
            for e in entrants:
                if (w, e.name) in metrics:
                    continue
                started = time.perf_counter()
                factory = policy_factory(
                    e.kind, e.order or None, dag=dag, cache=cache
                )
                now = time.perf_counter()
                pulled[w, e.name] = (now - started, now)
                seedseq = np.random.SeedSequence(seed)
                yield (w, e.name), [
                    (compiled[w], factory, params, None, seedseq, n_runs)
                ]

    for key, results, elapsed in iter_units(
        units(),
        ParallelConfig(jobs=jobs),
        collect=telemetry is not None,
        retry=retry,
        faults=faults,
        metrics=telemetry.registry if telemetry is not None else None,
    ):
        w, name = key
        m = metrics[key] = MetricArrays(results[0])
        order_seconds, at = pulled.pop(key)
        seconds[key] = (order_seconds, time.perf_counter() - at)
        ledger.complete(
            f"entrant/{w}/{name}", w, (name,), params, results, elapsed,
            {
                "execution_time": m.execution_time.tolist(),
                "stalling_probability": m.stalling_probability.tolist(),
                "utilization": m.utilization.tolist(),
            },
        )
        if progress is not None:
            progress(len(metrics), total)
    rows = []
    for w in workloads:
        times = np.stack([metrics[w, e.name].execution_time for e in entrants])
        # Matched contests: each replication's win is split among the
        # entrants attaining its minimum.
        best = times == times.min(axis=0, keepdims=True)
        winners = best.sum(axis=0, keepdims=True)
        share = best / winners
        tied = best & (winners > 1)
        block = []
        for i, e in enumerate(entrants):
            m = metrics[w, e.name]
            order_seconds, sim_seconds = seconds.get((w, e.name), (None, None))
            block.append(
                LeagueRow(
                    workload=w,
                    n_jobs=compiled[w].n,
                    name=e.name,
                    mean_execution_time=float(m.execution_time.mean()),
                    mean_utilization=float(m.utilization.mean()),
                    mean_stalling=float(m.stalling_probability.mean()),
                    p_beats_baseline=(
                        None if e.name == baseline else sign_test(
                            m.execution_time,
                            metrics[w, baseline].execution_time,
                        ).p_value
                    ),
                    win_rate=float(share[i].mean()),
                    ties=int(tied[i].sum()),
                    order_seconds=order_seconds,
                    sim_seconds=sim_seconds,
                )
            )
        block.sort(key=lambda r: r.mean_execution_time)
        rows.extend(block)
    return rows


def render_league(rows: list[LeagueRow]) -> str:
    """Text table, one block per workload (headed by its name and size),
    best execution time first within a block; wall clocks are left out,
    so equal results render equal text."""
    blocks: dict[str, list[LeagueRow]] = {}
    for r in rows:
        blocks.setdefault(r.workload, []).append(r)
    lines = []
    for block in blocks.values():
        if lines:
            lines.append("")
        head = f"{block[0].workload} ({block[0].n_jobs} jobs)"
        width = max(22, len(head))
        lines.append(
            f"{head:<{width}s} {'exec time':>10s} {'util':>7s} {'stall':>7s} "
            f"{'win rate':>9s} {'ties':>5s} {'p(beats base)':>14s}"
        )
        for r in block:
            p = (
                "baseline" if r.p_beats_baseline is None
                else f"{r.p_beats_baseline:.4f}"
            )
            lines.append(
                f"{r.name:<{width}s} {r.mean_execution_time:>10.2f} "
                f"{r.mean_utilization:>7.3f} {r.mean_stalling:>7.3f} "
                f"{r.win_rate:>9.3f} {r.ties:>5d} {p:>14s}"
            )
    return "\n".join(lines)
