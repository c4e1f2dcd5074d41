"""Extension — the grand policy league: every policy x every workload.

The paper compares two algorithms on four workloads.  The registry now
holds a policy zoo (PRIO, FIFO, RANDOM, upward-rank, DAGPS), and the
arena build path produces synthetic dags far beyond the paper's sizes —
so the league generalizes into a tournament: every policy races every
workload under common random numbers, per-replication contests are
aggregated into win rates, and the one-time scheduling cost (the cost
the paper amortizes) is reported per dag size.

Measurements, written to ``benchmarks/results/BENCH_league.json``
(schema 2):

* **Registry block** — the paper's four workloads (small variants), all
  five CLI policies with a static order or no state (``prio-live`` sits
  out: its per-completion rescheduling is benched in BENCH_live.json).
* **Arena block** — synthetic families built straight into
  :class:`CompiledDag`: layered at 10^3/10^4/10^5 jobs (scheduling cost
  vs size) plus fork-join and chain-bundle at 10^5.  Every policy plays
  every arena dag: ``prio`` converts the compiled dag to an object dag
  once, and that conversion counts toward its ``order_seconds``.  The
  static orders ride the batched kernel, which is what keeps 10^5-job
  cells tractable.  ``REPRO_BENCH_FULL=1`` adds a
  chain-bundle round at 10^6 jobs and deepens the replication counts.

The JSON payload is written *before* the acceptance gates run, so CI
uploads the numbers even when a gate trips.  Gates: at least 4 policies
and a >= 10^5-job workload in the table; win rates sum to one within
every workload; PRIO's mean execution time beats FIFO's across the
registry workloads (the paper's headline result, tournament edition).
"""

import json
from pathlib import Path

import numpy as np
from common import banner, full_fidelity

from repro.analysis.league import grand_league, render_grand_league
from repro.robust import write_atomic
from repro.sim.engine import SimParams
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import arena_family

RESULTS = Path(__file__).parent / "results"

REGISTRY_WORKLOADS = (
    "airsn-small", "inspiral-small", "montage-small", "sdss-small",
    # Ingested corpora (generated DAGMan trees through the importer).
    "nipype-small", "cax-small",
)
POLICIES = ("prio", "fifo", "random", "upward-rank", "dagps")

#: Registry block at the paper's headline cell; arena block at the sweep
#: grid's central cell (wide batches keep the step count proportional to
#: n / mu_bs, which is what makes 10^5-job rounds affordable).
REGISTRY_PARAMS = SimParams(mu_bit=1.0, mu_bs=16.0)
ARENA_PARAMS = SimParams(mu_bit=1.0, mu_bs=256.0)


def _cell_dict(cell) -> dict:
    return {
        "workload": cell.workload,
        "n_jobs": cell.n_jobs,
        "policy": cell.policy,
        "mean_execution_time": cell.mean_execution_time,
        "mean_utilization": cell.mean_utilization,
        "mean_stalling": cell.mean_stalling,
        "win_rate": cell.win_rate,
        "order_seconds": cell.order_seconds,
        "sim_seconds": cell.sim_seconds,
    }


def test_grand_league(benchmark):
    registry_runs = 40 if full_fidelity() else 16
    arena_runs = 16 if full_fidelity() else 6

    registry_dags = {name: get_workload(name) for name in REGISTRY_WORKLOADS}
    arena_dags = {
        "layered-1e3": arena_family(
            "layered", 1_000, rng=np.random.default_rng(20060427)
        ),
        "layered-1e4": arena_family(
            "layered", 10_000, rng=np.random.default_rng(20060428)
        ),
        "layered-1e5": arena_family(
            "layered", 100_000, rng=np.random.default_rng(20060429)
        ),
        "fork-join-1e5": arena_family("fork-join", 100_000),
        "chain-bundle-1e5": arena_family("chain-bundle", 100_000),
    }
    if full_fidelity():
        arena_dags["chain-bundle-1e6"] = arena_family(
            "chain-bundle", 1_000_000
        )

    def run():
        registry = grand_league(
            registry_dags,
            POLICIES,
            REGISTRY_PARAMS,
            n_runs=registry_runs,
            seed=17,
        )
        arena = grand_league(
            arena_dags, POLICIES, ARENA_PARAMS, n_runs=arena_runs, seed=17
        )
        return registry, arena

    registry, arena = benchmark.pedantic(run, rounds=1, iterations=1)

    print(banner(
        f"grand league: {len(POLICIES)} policies, "
        f"{len(registry_dags) + len(arena_dags)} workloads"
    ))
    print(render_grand_league(registry))
    print()
    print(render_grand_league(arena))

    cells = list(registry.cells) + list(arena.cells)
    overall: dict[str, list[float]] = {}
    for cell in cells:
        overall.setdefault(cell.policy, []).append(cell.win_rate)
    payload = {
        "schema": 2,
        "bench": "league",
        "policies": list(POLICIES),
        "registry_runs": registry_runs,
        "arena_runs": arena_runs,
        "registry_params": {"mu_bit": 1.0, "mu_bs": 16.0},
        "arena_params": {"mu_bit": 1.0, "mu_bs": 256.0},
        "seed": 17,
        "cells": [_cell_dict(c) for c in cells],
        "win_rates": {
            policy: float(np.mean(rates))
            for policy, rates in overall.items()
        },
        # One-time scheduling cost per dag size: the paper's amortization
        # argument at tournament scale.
        "order_seconds_by_size": [
            {
                "workload": c.workload,
                "n_jobs": c.n_jobs,
                "policy": c.policy,
                "order_seconds": c.order_seconds,
            }
            for c in cells
            if c.policy in ("prio", "upward-rank", "dagps")
        ],
    }
    # Write before the gates: CI uploads this artifact to diagnose
    # failures, so a tripped gate must not erase the numbers.
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "BENCH_league.json"
    write_atomic(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")

    # --- acceptance gates -------------------------------------------------
    assert len({c.policy for c in cells}) >= 4
    assert max(c.n_jobs for c in cells) >= 100_000
    for wname in set(c.workload for c in cells):
        block = [c for c in cells if c.workload == wname]
        total = sum(c.win_rate for c in block)
        assert abs(total - 1.0) < 1e-9, (
            f"win rates in {wname} sum to {total}, not 1"
        )
    prio_mean = np.mean([
        c.mean_execution_time
        for c in registry.cells
        if c.policy == "prio"
    ])
    fifo_mean = np.mean([
        c.mean_execution_time
        for c in registry.cells
        if c.policy == "fifo"
    ])
    assert prio_mean < fifo_mean, (
        f"PRIO ({prio_mean:.2f}) did not beat FIFO ({fifo_mean:.2f}) "
        "across the registry workloads"
    )
