"""Replication calibration: how many runs until a claim is certified?

The paper reports "at least 13% faster with 95% confidence" from
p = q = 300, noting they "increased q ... in order to narrow our
confidence intervals".  That note is load-bearing: the trimmed all-pairs
interval estimates the *quantiles* of the ratio of sample means, so
growing p alone converges it to a fixed nonzero width — only growing
**q** (averaging more measurements into each sample) tightens it.

``calibrate_cell`` therefore doubles q at a fixed p until the ratio CI is
narrower than a target (or confidently excludes 1), reusing every
simulation already run, and reports the trajectory — a planning tool for
sweeps and an honest statement of what a given budget can conclude.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..dag.graph import Dag
from ..sim.compile import as_compiled
from ..sim.engine import SimParams
from ..sim.parallel import ParallelConfig
from ..sim.replication import MetricArrays, iter_units, policy_factory
from ..stats.ratio import RatioStatistics, ratio_statistics
from ._ckpt import UnitLedger

__all__ = ["CalibrationStep", "CalibrationResult", "calibrate_cell"]


@dataclass(frozen=True)
class CalibrationStep:
    """CI state after one doubling of q."""

    p: int
    q: int
    stats: RatioStatistics

    @property
    def width(self) -> float:
        return self.stats.ci_high - self.stats.ci_low

    @property
    def runs_per_algorithm(self) -> int:
        return self.p * self.q


@dataclass(frozen=True)
class CalibrationResult:
    """The full doubling trajectory."""

    steps: tuple[CalibrationStep, ...]
    target_width: float
    converged: bool

    @property
    def final(self) -> CalibrationStep:
        return self.steps[-1]

    @property
    def runs_needed(self) -> int | None:
        """Simulations per algorithm at convergence (None if not reached)."""
        return self.final.runs_per_algorithm if self.converged else None

    def render(self) -> str:
        lines = [f"{'p':>5s} {'q':>5s} {'runs':>7s} {'median':>8s} "
                 f"{'CI':>18s} {'width':>7s}"]
        for s in self.steps:
            lines.append(
                f"{s.p:>5d} {s.q:>5d} {s.runs_per_algorithm:>7d} "
                f"{s.stats.median:>8.3f} "
                f"[{s.stats.ci_low:6.3f},{s.stats.ci_high:6.3f}] "
                f"{s.width:>7.3f}"
            )
        verdict = (
            f"converged at q={self.final.q} "
            f"({self.final.runs_per_algorithm} runs/algorithm)"
            if self.converged
            else "did not converge within the budget"
        )
        return "\n".join(lines + [verdict])


def calibrate_cell(
    dag: Dag,
    order: list[int],
    params: SimParams,
    *,
    target_width: float = 0.1,
    p: int = 20,
    start_q: int = 1,
    max_q: int = 64,
    seed: int = 0,
    metric: str = "execution_time",
    stop_when_excludes_one: bool = False,
    jobs: int = 1,
    workload: str = "dag",
    progress=None,
    telemetry=None,
    checkpoint=None,
    retry=None,
    faults=None,
    cache=None,
) -> CalibrationResult:
    """Double q (measurements per sample) until the CI is narrow enough.

    Each step reuses all previously simulated runs, so the total cost is
    at most ~2x the final step's.  With ``stop_when_excludes_one`` the
    trajectory also stops once the CI lies entirely on one side of 1 —
    enough to certify the direction of the effect.  Each step's new
    PRIO and FIFO replications are one unit of
    :func:`repro.sim.replication.iter_units`; *jobs* gives each step one
    worker pool for both sides (bit-identical to the serial trajectory).

    *progress*, when given, is called with each completed
    :class:`CalibrationStep` as the trajectory unfolds (the CLI prints a
    live line per doubling).  *telemetry*, when given, is a
    :class:`~repro.obs.recorder.TelemetryRecorder` receiving one
    ``replication`` record per new simulation and one ``stage`` record
    per doubling step; observational only, the trajectory is unchanged.

    *checkpoint* (a :class:`~repro.robust.checkpoint.Checkpoint`) records
    the cumulative metric vectors after each doubling; a resumed
    trajectory restores completed steps (advancing the seed spawn tree
    exactly as a fresh run would, so later steps stay bit-identical) and
    simulates only what is missing; a resumed run writes one
    ``checkpoint`` ``restore`` record with the restored step count.
    *retry* / *faults* configure the fault-tolerant parallel executor
    (see :func:`repro.sim.parallel.iter_chunk_results`).

    *cache* (a :class:`~repro.perf.cache.ScheduleCache`) memoizes the
    compiled dag across calibration runs; bit-identical either way.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if start_q < 1 or max_q < start_q:
        raise ValueError("need 1 <= start_q <= max_q")
    compiled = cache.compiled(dag) if cache is not None else as_compiled(dag)
    prio_factory = policy_factory("oblivious", order=order)
    fifo_factory = policy_factory("fifo")
    root = np.random.SeedSequence(seed)
    seq_prio, seq_fifo = root.spawn(2)

    prio_vals: list[float] = []
    fifo_vals: list[float] = []
    steps: list[CalibrationStep] = []
    q = start_q
    converged = False
    par = ParallelConfig(jobs=jobs)
    ledger = UnitLedger(checkpoint, telemetry)
    while True:
        step_started = time.perf_counter()
        need = p * q - len(prio_vals)
        key = f"step/q{q}"
        payload = ledger.restore(key, workload, ("prio", "fifo"), params)
        if payload is not None:
            # Restored step: advance the spawn tree exactly as a fresh
            # run would (spawning is stateful), then reuse its values.
            if need > 0:
                seq_prio = seq_prio.spawn(2)[1]
                seq_fifo = seq_fifo.spawn(2)[1]
            prio_vals[:] = payload["prio_vals"]
            fifo_vals[:] = payload["fifo_vals"]
        elif need > 0:
            extra_p, seq_prio = seq_prio.spawn(2)
            extra_f, seq_fifo = seq_fifo.spawn(2)
            ((_, results, elapsed),) = iter_units(
                [(key, [
                    (compiled, prio_factory, params, None, extra_p, need),
                    (compiled, fifo_factory, params, None, extra_f, need),
                ])],
                par,
                collect=telemetry is not None,
                retry=retry,
                faults=faults,
                metrics=telemetry.registry if telemetry is not None else None,
            )
            prio_vals.extend(MetricArrays(results[0]).metric(metric))
            fifo_vals.extend(MetricArrays(results[1]).metric(metric))
            ledger.complete(
                key, workload, ("prio", "fifo"), params, results, elapsed,
                {
                    "prio_vals": [float(v) for v in prio_vals],
                    "fifo_vals": [float(v) for v in fifo_vals],
                },
            )
        # Interleave so each of the p samples mixes old and new runs.
        s_prio = np.asarray(prio_vals).reshape(q, p).mean(axis=0)
        s_fifo = np.asarray(fifo_vals).reshape(q, p).mean(axis=0)
        stats = ratio_statistics(s_prio, s_fifo)
        if stats is None:
            raise ValueError(
                f"metric {metric!r} has zero denominators at this cell"
            )
        step = CalibrationStep(p=p, q=q, stats=stats)
        steps.append(step)
        if telemetry is not None:
            telemetry.stage(
                f"calibrate q={q}",
                time.perf_counter() - step_started,
                workload=workload,
                p=p,
                q=q,
                median=stats.median,
                ci_low=stats.ci_low,
                ci_high=stats.ci_high,
                width=step.width,
            )
        if progress is not None:
            progress(step)
        excludes_one = stats.ci_high < 1.0 or stats.ci_low > 1.0
        if step.width <= target_width or (
            stop_when_excludes_one and excludes_one
        ):
            converged = True
            break
        if q >= max_q:
            break
        q = min(2 * q, max_q)
    ledger.restored_all()
    return CalibrationResult(
        steps=tuple(steps), target_width=target_width, converged=converged
    )
