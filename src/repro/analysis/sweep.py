"""The (mu_BIT, mu_BS) performance sweep behind Figs. 6-9.

For every grid cell the three metrics (execution time, stalling
probability, utilization) are measured for PRIO and FIFO over ``p * q``
simulations each, folded into empirical sampling distributions (*p* means
of *q* runs) and compared as trimmed ratio distributions with 95%
confidence intervals — the methodology of Sec. 4.2.

Paper grids: ``mu_BIT`` in powers of 10 from 1e-3 to 1e3 (7 values) and
``mu_BS`` in powers of 2 from 1 to 65,536 (17 values), with p = q = 300.
Those take cluster time; :func:`quick_grid` and the p/q defaults shrink the
experiment to laptop scale while keeping every qualitative feature
(EXPERIMENTS.md records the exact settings per run).

The sweep hot path — thousands of replications per cell, both policies —
dispatches whole replication batches to the batched numpy kernel
(:mod:`repro.perf.kernel_batch`) whenever the cell's operating point
allows it: bit-identical to the per-replication engines, replication by
replication, just 3-12x faster depending on the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..dag.graph import Dag
from ..sim.compile import CompiledDag, as_compiled
from ..sim.engine import SimParams
from ..sim.parallel import ParallelConfig, clone_seedseq, resolve_parallel
from ..sim.replication import MetricArrays, iter_units, policy_factory
from ..stats.ratio import RatioStatistics, ratio_statistics
from ..stats.sampling import sampling_distribution_from_values
from ._ckpt import UnitLedger

__all__ = [
    "METRICS",
    "SweepConfig",
    "CellResult",
    "SweepResult",
    "ratio_sweep",
    "paper_grid",
    "quick_grid",
]

#: Metric names, in the order the figures present them (panels a, b, c).
METRICS = ("execution_time", "stalling_probability", "utilization")

#: A cell's two replication batches, in the order they are run and logged.
_SIDES = ("prio", "fifo")


def paper_grid() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The full grids of Sec. 4.2: 7 interarrival means x 17 batch sizes."""
    mu_bits = tuple(10.0 ** e for e in range(-3, 4))
    mu_bss = tuple(float(2 ** e) for e in range(0, 17))
    return mu_bits, mu_bss


def quick_grid() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A reduced grid covering the same regimes (frequent/rare arrivals,
    small/medium/large batches) at laptop cost."""
    mu_bits = (0.01, 0.1, 1.0, 10.0, 100.0)
    mu_bss = tuple(float(2 ** e) for e in (0, 2, 4, 6, 8, 10))
    return mu_bits, mu_bss


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings (defaults: quick grid, laptop-scale p and q)."""

    mu_bits: tuple[float, ...] = field(default_factory=lambda: quick_grid()[0])
    mu_bss: tuple[float, ...] = field(default_factory=lambda: quick_grid()[1])
    p: int = 12
    q: int = 4
    seed: int = 20060427
    batch_size_dist: str = "geometric"
    runtime_mean: float = 1.0
    runtime_std: float = 0.1
    #: Extended grid model (defaults off = exactly the paper's): worker
    #: churn and straggler injection, applied identically to both sides
    #: of every cell.
    failure_prob: float = 0.0
    failure_time_fraction: float = 0.5
    straggler_prob: float = 0.0
    straggler_factor: float = 10.0
    #: The numerator policy (any registered kind from
    #: :func:`repro.sim.policies.policy_names`): the ratio becomes
    #: policy / FIFO.  ``"prio"`` (the default) keeps the paper's sweep;
    #: static-permutation kinds (``upward-rank``, ``dagps``) derive their
    #: order from the dag, other kinds ignore ``prio_order`` entirely.
    #: ``"prio-live"`` is PRIO with live rescheduling
    #: (:class:`repro.live.policy.LivePrioPolicy`), so static-vs-live is
    #: two sweeps over identical seed streams.
    policy: str = "prio"
    #: Common random numbers: give PRIO and FIFO identical seed streams
    #: (identical batch arrivals) and compare *matched* samples x_i / y_i
    #: instead of the paper's all-pairs x_i / y_j (all-pairs would destroy
    #: the pairing).  Sharply narrows the CIs at small p*q; the paper's
    #: own methodology (the default) uses independent streams.
    paired: bool = False

    @classmethod
    def paper(cls, **overrides) -> "SweepConfig":
        """The paper's full configuration (p = q = 300, full grids)."""
        mu_bits, mu_bss = paper_grid()
        defaults = dict(mu_bits=mu_bits, mu_bss=mu_bss, p=300, q=300)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class CellResult:
    """PRIO/FIFO ratio statistics for one (mu_bit, mu_bs) cell.

    ``ratios[metric]`` is ``None`` when no interval can be reported (a
    denominator sample was zero — common for the stalling probability in
    easy regimes, shown as missing segments in the paper's figures).
    """

    mu_bit: float
    mu_bs: float
    ratios: dict[str, RatioStatistics | None]

    def ratio(self, metric: str) -> RatioStatistics | None:
        return self.ratios[metric]


@dataclass
class SweepResult:
    """All cells of one dag's sweep, row-major over (mu_bit, mu_bs)."""

    workload: str
    config: SweepConfig
    cells: list[CellResult]

    def cell(self, mu_bit: float, mu_bs: float) -> CellResult:
        for c in self.cells:
            if c.mu_bit == mu_bit and c.mu_bs == mu_bs:
                return c
        raise KeyError(f"no cell for mu_bit={mu_bit}, mu_bs={mu_bs}")

    def best_cell(self, metric: str = "execution_time") -> CellResult:
        """The cell where PRIO helps most (smallest median ratio)."""
        scored = [
            c for c in self.cells if c.ratios.get(metric) is not None
        ]
        if not scored:
            raise ValueError(f"no cell has a ratio for {metric!r}")
        return min(scored, key=lambda c: c.ratios[metric].median)


def _paired_ratio_statistics(s_num, s_den) -> RatioStatistics | None:
    """Matched-sample ratios x_i / y_i (common-random-numbers mode)."""
    import numpy as np

    from ..stats.ratio import trimmed_interval

    num = np.asarray(s_num, dtype=np.float64)
    den = np.asarray(s_den, dtype=np.float64)
    if np.any(den == 0.0):
        return None
    ratios = num / den
    lo, hi = trimmed_interval(ratios)
    return RatioStatistics(
        mean=float(ratios.mean()),
        std=float(ratios.std(ddof=0)),
        median=float(np.median(ratios)),
        ci_low=lo,
        ci_high=hi,
    )


def _cell_result(
    config: SweepConfig,
    mu_bit: float,
    mu_bs: float,
    prio_metrics: MetricArrays,
    fifo_metrics: MetricArrays,
) -> CellResult:
    """Fold one cell's metric arrays into ratio statistics."""
    ratios: dict[str, RatioStatistics | None] = {}
    for metric in METRICS:
        s_prio = sampling_distribution_from_values(
            prio_metrics.metric(metric), config.p, config.q
        )
        s_fifo = sampling_distribution_from_values(
            fifo_metrics.metric(metric), config.p, config.q
        )
        if config.paired:
            ratios[metric] = _paired_ratio_statistics(s_prio, s_fifo)
        else:
            ratios[metric] = ratio_statistics(s_prio, s_fifo)
    return CellResult(mu_bit=mu_bit, mu_bs=mu_bs, ratios=ratios)


def _cell_specs(config: SweepConfig):
    """Per-cell (mu_bit, mu_bs, params, seed_prio, seed_fifo), row-major.

    The spawn tree is built here, in grid order, so every sweep derives
    identical per-cell seeds.  In ``paired`` mode the FIFO seed is a clone
    of the PRIO seed (same entropy, no spawn history), so both policies
    spawn *identical* replication seeds — true common random numbers
    (spawning twice from one shared ``SeedSequence`` object would hand the
    two policies disjoint child trees).
    """
    root = np.random.SeedSequence(config.seed)
    specs = []
    for mu_bit in config.mu_bits:
        for mu_bs in config.mu_bss:
            params = SimParams(
                mu_bit=mu_bit,
                mu_bs=mu_bs,
                runtime_mean=config.runtime_mean,
                runtime_std=config.runtime_std,
                batch_size_dist=config.batch_size_dist,
                failure_prob=config.failure_prob,
                failure_time_fraction=config.failure_time_fraction,
                straggler_prob=config.straggler_prob,
                straggler_factor=config.straggler_factor,
            )
            if config.paired:
                seed_prio = root.spawn(1)[0]
                seed_fifo = clone_seedseq(seed_prio)
            else:
                seed_prio, seed_fifo = root.spawn(2)
            specs.append((mu_bit, mu_bs, params, seed_prio, seed_fifo))
    return specs


# --- checkpoint serialization -------------------------------------------
#
# A checkpointed cell stores exactly what an uninterrupted run would have
# produced: the ratio statistics (always) and, when telemetry is active,
# the per-replication SimResult rows needed to re-emit the replication
# records on resume (``UnitLedger`` adds those).  Floats survive the JSON
# round trip exactly, so restored cells are bit-identical to freshly
# computed ones.


def _stats_to_dict(stats: RatioStatistics | None) -> dict | None:
    if stats is None:
        return None
    return {
        "mean": stats.mean,
        "std": stats.std,
        "median": stats.median,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
        "confidence": stats.confidence,
    }


def _stats_from_dict(payload: dict | None) -> RatioStatistics | None:
    if payload is None:
        return None
    return RatioStatistics(**payload)


def _cell_payload(cell: CellResult) -> dict:
    return {
        "mu_bit": cell.mu_bit,
        "mu_bs": cell.mu_bs,
        "ratios": {m: _stats_to_dict(s) for m, s in cell.ratios.items()},
    }


def _cell_from_payload(payload: dict) -> CellResult:
    return CellResult(
        mu_bit=payload["mu_bit"],
        mu_bs=payload["mu_bs"],
        ratios={
            metric: _stats_from_dict(stats)
            for metric, stats in payload["ratios"].items()
        },
    )


def _emit_cell_telemetry(telemetry, workload: str, cell: CellResult) -> None:
    """One ``cell`` summary record: the per-metric median PRIO/FIFO ratios."""
    telemetry.emit(
        "cell",
        workload=workload,
        mu_bit=cell.mu_bit,
        mu_bs=cell.mu_bs,
        median_ratios={
            metric: (stats.median if stats is not None else None)
            for metric, stats in cell.ratios.items()
        },
    )


def ratio_sweep(
    dag: Dag | CompiledDag,
    prio_order: Sequence[int],
    config: SweepConfig = SweepConfig(),
    workload: str = "dag",
    *,
    progress=None,
    jobs: int = 1,
    parallel: ParallelConfig | None = None,
    telemetry=None,
    checkpoint=None,
    retry=None,
    faults=None,
    cache=None,
) -> SweepResult:
    """Run the PRIO-vs-FIFO sweep for one dag.

    ``prio_order`` is the PRIO schedule (from
    :func:`repro.core.prio.prio_schedule`); FIFO needs no order.  *dag*
    may be a :class:`~repro.dag.graph.Dag` or a
    :class:`~repro.sim.compile.CompiledDag`: any other numerator kind
    resolves from it through
    :func:`~repro.sim.replication.policy_factory` (and *cache*).
    *progress*, when given, is called with ``(done_cells, total_cells)``
    after each cell.

    Each cell is one unit of :func:`repro.sim.replication.iter_units`:
    its PRIO and FIFO batches.  At ``jobs=1`` they run in-process, one
    chunk per batch, and cells complete row-major.  ``jobs`` (or an
    explicit ``parallel`` config) adds one worker pool that fans out
    across cells *and* the replications within a cell.  Results are
    bit-identical either way; only the order in which cells *finish*
    (and hence progress callbacks fire) changes.

    *telemetry*, when given, is a
    :class:`~repro.obs.recorder.TelemetryRecorder`: it receives one
    ``replication`` record per simulation (policy ``"prio"`` or
    ``"fifo"``) and one ``cell`` summary record per grid cell, and its
    registry accumulates the simulator's event-loop counters.  Telemetry
    is observational only — the sweep's results stay bit-identical with
    it on or off.  A completed cell writes its ``prio`` replications, its
    ``fifo`` replications, then its ``cell`` record.

    Fault tolerance:

    * *checkpoint* — a :class:`~repro.robust.checkpoint.Checkpoint`
      (opened by the caller against the sweep's fingerprint).  Each
      completed cell is durably recorded; cells already in the
      checkpoint are restored instead of recomputed, and the resumed
      sweep's result is bit-identical to an uninterrupted run.  When
      telemetry is active, each cell's per-replication results ride
      along in the checkpoint so restored cells re-emit their
      ``replication`` records too (``elapsed_seconds`` becomes ``None``
      — the work was not redone).  Restore and record go through
      :class:`~repro.analysis._ckpt.UnitLedger`, as in the league and
      the calibration.
    * *retry* / *faults* — a
      :class:`~repro.robust.retry.RetryPolicy` and/or
      :class:`~repro.robust.faults.FaultPlan` for the parallel path's
      chunk executor (see :func:`repro.sim.parallel.iter_chunk_results`).
      Recovery cannot change results; ``jobs=1`` has no pool and
      ignores both.

    *cache* (a :class:`~repro.perf.cache.ScheduleCache`) memoizes the
    compiled dag across sweeps over the same structure; callers that also
    resolve ``prio_order`` through the cache skip recomputing the schedule
    per invocation.  Purely structural reuse — results are bit-identical
    with or without it.
    """
    par = resolve_parallel(jobs, parallel)
    compiled = cache.compiled(dag) if cache is not None else as_compiled(dag)
    count = config.p * config.q
    if config.policy == "prio":
        prio_factory = policy_factory("oblivious", order=prio_order)
    else:
        # Every other kind resolves from the dag, not from the caller's
        # PRIO schedule.
        prio_factory = policy_factory(config.policy, dag=dag, cache=cache)
    fifo_factory = policy_factory("fifo")
    specs = _cell_specs(config)
    total = len(specs)
    ledger = UnitLedger(checkpoint, telemetry)
    cells: list[CellResult | None] = [None] * total
    done = 0
    for index, (mu_bit, mu_bs, params, _, _) in enumerate(specs):
        payload = ledger.restore(f"cell/{index}", workload, _SIDES, params)
        if payload is None:
            continue
        if payload["mu_bit"] != mu_bit or payload["mu_bs"] != mu_bs:
            from ..robust.checkpoint import CheckpointError

            raise CheckpointError(
                f"checkpoint cell {index} is for "
                f"(mu_bit={payload['mu_bit']}, mu_bs={payload['mu_bs']}), "
                f"expected ({mu_bit}, {mu_bs})"
            )
        cells[index] = _cell_from_payload(payload)
        if telemetry is not None:
            _emit_cell_telemetry(telemetry, workload, cells[index])
        done += 1
        if progress is not None:
            progress(done, total)
    ledger.restored_all()

    def units():
        for index, (_, _, params, seed_prio, seed_fifo) in enumerate(specs):
            if cells[index] is None:
                yield index, [
                    (compiled, prio_factory, params, None, seed_prio, count),
                    (compiled, fifo_factory, params, None, seed_fifo, count),
                ]

    for index, results, elapsed in iter_units(
        units(),
        par,
        collect=telemetry is not None,
        retry=retry,
        faults=faults,
        metrics=telemetry.registry if telemetry is not None else None,
    ):
        mu_bit, mu_bs, params, _, _ = specs[index]
        cells[index] = _cell_result(
            config, mu_bit, mu_bs, *map(MetricArrays, results)
        )
        ledger.complete(
            f"cell/{index}", workload, _SIDES, params, results, elapsed,
            _cell_payload(cells[index]),
        )
        if telemetry is not None:
            _emit_cell_telemetry(telemetry, workload, cells[index])
        done += 1
        if progress is not None:
            progress(done, total)
    return SweepResult(workload=workload, config=config, cells=cells)
