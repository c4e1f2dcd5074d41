"""``sweep-cells``: the paper's evaluation, one grid cell at a time.

Closed loop, serial.  Each cell compiles its dag, orders it with
``prio_schedule``, runs ``p * q`` replications for PRIO and for FIFO and
folds them into ratio statistics, as ``ratio_sweep`` does per cell.  A
pass covers seven operating points on ``sdss-small`` and on
``montage-small``.  Three are clean and run on the batched kernel (the
fast path), at p = q = 16.  Four have worker churn
(``failure_prob=0.05``), which bypasses the kernel through its
per-replication fallback (the slow path), at p = q = 8: a churn cell
costs about four times a clean one per replication, and at a quarter of
the replications a run holds eight churn cells, enough for the slow
path's mean to repeat from run to run (two full-size ones did not).
The seed drives the cells' replication streams and their order in a
pass.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from repro.analysis.sweep import METRICS
from repro.core.prio import prio_schedule
from repro.sim.compile import CompiledDag
from repro.sim.engine import SimParams, simulate
from repro.sim.replication import policy_factory, run_replications
from repro.stats.ratio import ratio_statistics
from repro.stats.sampling import sampling_distribution_from_values
from repro.workloads.registry import get_workload

from inputs import rng_for
from measure import Workload, closed_loop, self_peak_rss_mb
from spans import HARNESS, paired_replay, spanner

DAGS = ("sdss-small", "montage-small")
#: (mu_bit, mu_bs, failure_prob): three clean points across the arrival
#: and batch-size regimes of ``quick_grid()``, and four churn points.
GRID = ((0.1, 16.0, 0.0), (1.0, 64.0, 0.0), (10.0, 256.0, 0.0),
        (0.1, 16.0, 0.05), (1.0, 16.0, 0.05), (1.0, 64.0, 0.05), (10.0, 256.0, 0.05))
P_CLEAN = 16  # p = q of a clean cell
P_CHURN = 8  # p = q of a churn cell
PASS_SECONDS = 6.0  # one pass (14 cells) on the reference host


class SweepCells(Workload):
    name = "sweep-cells"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.sizes = (4, 2) if ctx.quick else (P_CLEAN, P_CHURN)  # p = q: clean, churn
        self.passes = 1 if ctx.quick else ctx.per_round(PASS_SECONDS)
        self.dags = {}
        self.cells = []
        self.stats = {}  # cell index -> ratio statistics (as lists)
        self.first_reps = {}  # cell index -> what check() needs to re-run rep 0
        self.batch_spans = []  # traced run: span index of each replication batch

    def work(self) -> dict:
        clean, churn = self.sizes
        return {"passes_per_round": self.passes, "cells_per_pass": len(DAGS) * len(GRID),
                "replications_per_side": {"clean": clean * clean, "churn": churn * churn}}

    def prepare(self) -> None:
        """One pass of cells in a seeded order with seeded replication
        streams; every pass repeats it."""
        rng = rng_for(self.ctx.seed, self.name)
        specs = [(dag, point) for dag in DAGS for point in GRID]
        one_pass = [
            (index, *specs[i], int(rng.integers(2**63)))
            for index, i in enumerate(rng.permutation(len(specs)))
        ]
        self.cells = one_pass * self.passes

    def setup(self) -> float:
        """Build and compile both dags, order them and run a warm-up
        cell on each, with as many replications as a timed clean cell.  (A
        16-replication warm-up made set-up so short that host slowdowns
        of 0.1-0.2 s moved its median by up to 37% between sets of
        runs.)"""
        began = time.perf_counter()
        for name in DAGS:
            dag = get_workload(name)
            compiled = CompiledDag.from_dag(dag)
            order = prio_schedule(dag).schedule
            params = SimParams(mu_bit=1.0, mu_bs=16.0)
            for kind, seed in (("oblivious", 1), ("fifo", 2)):
                factory = policy_factory(kind, order=order if kind != "fifo" else None)
                run_replications(compiled, factory, params, self.sizes[0] ** 2, seed)
            self.dags[name] = dag
        return time.perf_counter() - began

    def _cell(self, cell, tracer=None):
        index, name, (mu_bit, mu_bs, failure_prob), entropy = cell
        span = spanner(tracer)
        churn = failure_prob > 0.0
        dag = self.dags[name]
        p = q = self.sizes[churn]
        count = p * q
        with span(HARNESS):
            with span("sim.compile"):
                compiled = CompiledDag.from_dag(dag)
            with span("core.prio"):
                order = prio_schedule(dag).schedule
            params = SimParams(mu_bit=mu_bit, mu_bs=mu_bs, failure_prob=failure_prob)
            seeds = np.random.SeedSequence(entropy).spawn(2)
            factories = (policy_factory("oblivious", order=order), policy_factory("fifo"))
            side_metrics = []
            for factory, seed in zip(factories, seeds):
                if tracer is not None:
                    self.batch_spans.append(len(tracer.spans))
                with span("sim.churn" if churn else "sim.clean"):
                    side_metrics.append(
                        run_replications(compiled, factory, params, count, seed)
                    )
            with span("stats.ratio"):
                stats = {}
                for metric in METRICS:
                    samples = [
                        sampling_distribution_from_values(m.metric(metric), p, q)
                        for m in side_metrics
                    ]
                    stats[metric] = ratio_statistics(*samples)
        summary = {
            metric: None if s is None else [s.mean, s.std, s.median, s.ci_low, s.ci_high]
            for metric, s in stats.items()
        }
        if self.stats.setdefault(index, summary) != summary:
            self.fail(f"cell {index}: a repeated pass gave other ratio statistics")
        if index not in self.first_reps:
            self.first_reps[index] = (
                compiled, params, factories, seeds,
                [{metric: float(m.metric(metric)[0]) for metric in METRICS}
                 for m in side_metrics],
            )
        return ("slow" if churn else "fast"), 2 * count

    def measure(self):
        return closed_loop(self.cells, self._cell, self.speed)

    def replay(self, tracer, wraps):
        one_pass = self.cells[: len(self.cells) // self.passes]
        return paired_replay(one_pass, self._cell, tracer, wraps)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def digest(self) -> str:
        text = json.dumps([self.stats[i] for i in sorted(self.stats)])
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self) -> list[str]:
        """Replication 0 of every batch, re-run on its own through
        ``simulate``, must equal what the batched run returned, and every
        reported ratio must be finite and positive."""
        failures = []
        for index, (compiled, params, factories, seeds, firsts) in self.first_reps.items():
            for side, factory, seed, first in zip(("prio", "fifo"), factories, seeds, firsts):
                child = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (0,))
                rng = np.random.default_rng(child)
                result = simulate(compiled, factory(rng), params, rng)
                again = {metric: float(getattr(result, metric)) for metric in METRICS}
                if again != first:
                    failures.append(f"cell {index} {side}: replication 0 differs")
            for metric, values in self.stats[index].items():
                if values is None:  # a zero denominator: no interval
                    continue
                if not np.all(np.isfinite(values)) or values[2] <= 0.0:
                    failures.append(f"cell {index}: bad {metric} ratio {values}")
        return failures

    def layer_counts(self, ops: int, tracer) -> dict:
        """``perf.batched_ratio``: replication batches that ran entirely
        in the lockstep kernel, over all batches."""
        bypassed = set()
        for name, _, _, parent, _ in tracer.spans:
            if name in ("perf.scalar", "sim.engine"):
                while parent >= 0 and tracer.spans[parent][0] not in ("sim.clean", "sim.churn"):
                    parent = tracer.spans[parent][3]
                bypassed.add(parent)
        batched = sum(1 for start in self.batch_spans if start not in bypassed)
        return {"perf.batched_ratio": batched / len(self.batch_spans)}
