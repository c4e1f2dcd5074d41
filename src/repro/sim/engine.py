"""Event-driven simulator of the paper's stochastic grid model (Sec. 4.1).

One simulation executes a single dag:

* worker batches arrive (first at time 0, then exponential interarrival
  with mean ``mu_bit``); each batch carries ``~size-dist(mu_bs)`` one-job
  requests;
* on arrival the server assigns ``min(batch, eligible-unassigned)`` jobs
  according to the scheduling policy; by default **unserved workers are
  lost** (no rollover — they are assumed intercepted by other
  computations);
* an assigned job completes after a Normal(1, 0.1) runtime, upon which its
  children may become eligible;
* a batch that arrives while at least one job is unexecuted-and-unassigned
  but finds no eligible job *stalls*.

The three metrics of the paper are produced per run:

* **execution time** — completion time of the last job;
* **stalling** — stalled batches / batches arrived up to and including the
  batch that assigned the last job;
* **utilization** — number of jobs / worker requests arrived up to and
  including that same batch.

Beyond the paper's model (its Sec. 4.1 explicitly scopes these out; the
conclusions call for them), three extensions are provided:

* **worker churn** — with probability ``failure_prob`` an assigned worker
  quits partway through (after ``failure_time_fraction`` of the sampled
  runtime); the job returns to the eligible pool and must be reassigned;
* **straggler injection** — with probability ``straggler_prob`` an
  assignment runs ``straggler_factor`` times its sampled duration (the
  worker is slow, not dead: the job still completes);
* **request rollover** — ``rollover=True`` keeps unserved workers waiting
  at the server instead of losing them; they are served as soon as jobs
  become eligible.

Pass an :class:`~repro.sim.trace.ExecutionTrace` to record the time series
of the eligible pool, running jobs, wasted workers and (in rollover mode)
the waiting pool; pass a :class:`~repro.obs.metrics.MetricsRegistry` as
``metrics`` to collect event-loop counters.  Both are purely
observational: they never draw from the generator, so results are
bit-identical with or without them.

This loop is the reference engine and the oracle of the one fast
engine, the batched replication kernel
(:mod:`repro.perf.kernel_batch`): the replication layer hands it whole
batches of replications, and its results and generator end states are
pinned bit-identical to this loop, replication by replication.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..dag.graph import Dag
from .arrivals import BatchArrivals
from .compile import CompiledDag, as_compiled
from .policies import Policy, make_policy
from .runtime import RuntimeSampler

__all__ = ["SimParams", "SimResult", "simulate", "make_policy"]


@dataclass(frozen=True)
class SimParams:
    """Knobs of the system model.

    ``mu_bit`` — mean batch interarrival time; ``mu_bs`` — mean batch
    size.  ``failure_prob``/``failure_time_fraction``,
    ``straggler_prob``/``straggler_factor`` and ``rollover`` enable the
    extended grid model; at their defaults the simulator is exactly the
    paper's.  Straggler draws happen only when ``straggler_prob > 0``,
    so enabling the other extensions consumes the generator identically
    whether or not this build knows about stragglers.
    """

    mu_bit: float
    mu_bs: float
    runtime_mean: float = 1.0
    runtime_std: float = 0.1
    batch_size_dist: str = "geometric"
    failure_prob: float = 0.0
    failure_time_fraction: float = 0.5
    straggler_prob: float = 0.0
    straggler_factor: float = 10.0
    rollover: bool = False

    def __post_init__(self):
        if self.mu_bit <= 0:
            raise ValueError("mu_bit (mean batch interarrival) must be positive")
        if self.mu_bs < 1:
            raise ValueError("mu_bs (mean batch size) must be at least 1")
        if self.runtime_mean <= 0:
            raise ValueError("runtime_mean must be positive")
        if self.runtime_std < 0:
            raise ValueError("runtime_std must be non-negative")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if not 0.0 < self.failure_time_fraction <= 1.0:
            raise ValueError("failure_time_fraction must be in (0, 1]")
        if not 0.0 <= self.straggler_prob < 1.0:
            raise ValueError("straggler_prob must be in [0, 1)")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be at least 1")


def _empty_result(trace=None, metrics=None) -> "SimResult":
    """Shared epilogue for zero-job dags.

    The trace/telemetry conventions hold even when there is nothing to
    simulate: the documented pre-assignment t=0 snapshot (an empty
    eligible pool, nothing running) is recorded and ``engine.runs`` is
    incremented, so empty dags never vanish from telemetry.  The batched
    kernel returns the same result for each of its replications.
    """
    if trace is not None:
        trace.record(0.0, 0, 0, 0, 0, 0)
    if metrics is not None:
        metrics.counter("engine.runs").inc()
    return SimResult(0.0, 0, 0, 0, 0)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated execution.

    ``unserved_workers`` is the number of workers still waiting at the
    server when the last job completed — nonzero only in rollover mode,
    where unserved requests queue instead of being lost; it closes the
    audit ``requests = jobs executed + wasted + unserved`` for the
    rollover model.
    """

    execution_time: float
    n_jobs: int
    batches_until_last_assignment: int
    stalled_batches: int
    requests_until_last_assignment: int
    n_failures: int = 0
    unserved_workers: int = 0
    n_stragglers: int = 0

    @property
    def stalling_probability(self) -> float:
        """Stalled fraction of batches up to the last assignment."""
        if self.batches_until_last_assignment == 0:
            return 0.0
        return self.stalled_batches / self.batches_until_last_assignment

    @property
    def utilization(self) -> float:
        """Jobs executed per worker request ("satisfied/requested")."""
        if self.requests_until_last_assignment == 0:
            return 0.0
        return self.n_jobs / self.requests_until_last_assignment


def simulate(
    dag: Dag | CompiledDag,
    policy: Policy,
    params: SimParams,
    rng: np.random.Generator,
    *,
    trace=None,
    runtime_scale: np.ndarray | None = None,
    metrics=None,
) -> SimResult:
    """Run one simulated execution of *dag* under *policy*.

    *policy* must be freshly constructed (it accumulates the eligible set).
    Determinism: identical inputs and generator state yield identical
    results.  *trace*, when given, is an
    :class:`~repro.sim.trace.ExecutionTrace` that receives one sample per
    event (plus the pre-assignment t=0 state).  *runtime_scale* relaxes
    the paper's equal-duration assumption: job *u*'s duration is the
    sampled Normal times ``runtime_scale[u]`` (see
    :func:`repro.workloads.runtimes.stage_runtime_scale`).  *metrics*,
    when given, is a :class:`~repro.obs.metrics.MetricsRegistry` receiving
    event-loop counters (batches, stalls, failures, events) and peak
    gauges (completion-heap size, eligible pool); neither *trace* nor
    *metrics* ever touches *rng*, so enabling them cannot change the
    result.

    This is the reference engine, the oracle every fast path is pinned
    to.  Whole replication batches reach the batched kernel
    (:mod:`repro.perf.kernel_batch`) through
    :func:`repro.sim.replication.run_replications`; a single call here
    always runs this loop.
    """
    compiled = as_compiled(dag)
    n = compiled.n
    if n == 0:
        return _empty_result(trace, metrics)
    children = compiled.child_lists()
    remaining = compiled.indegree.copy()

    arrivals = BatchArrivals(
        params.mu_bit, params.mu_bs, rng, size_dist=params.batch_size_dist
    )
    runtimes = RuntimeSampler(
        rng, mean=params.runtime_mean, std=params.runtime_std
    )
    failure_prob = params.failure_prob
    straggler_prob = params.straggler_prob
    straggler_factor = params.straggler_factor
    rollover = params.rollover
    if runtime_scale is not None:
        runtime_scale = np.asarray(runtime_scale, dtype=np.float64)
        if runtime_scale.shape != (n,):
            raise ValueError(
                f"runtime_scale must have one entry per job ({n}), got "
                f"shape {runtime_scale.shape}"
            )
        if (runtime_scale <= 0).any():
            raise ValueError("runtime_scale entries must be positive")

    for u in range(n):
        if remaining[u] == 0:
            policy.push(u)

    # (time, job, is_failure) completion events.
    completions: list[tuple[float, int, bool]] = []
    n_assigned = 0
    n_executed = 0
    n_running = 0
    n_failures = 0
    n_stragglers = 0
    batches = 0
    stalled = 0
    requests = 0
    waiting = 0  # rolled-over workers (only when rollover=True)
    wasted = 0
    makespan = 0.0
    now = 0.0
    # Snapshots taken each time the last unassigned job gets assigned
    # (failures can re-open assignment, so the snapshot may be retaken).
    batches_at_last = 0
    stalled_at_last = 0
    requests_at_last = 0

    heappush = heapq.heappush
    heappop = heapq.heappop

    # The pre-assignment t=0 state: the eligible pool holds every source
    # job before the first batch is served, so peak("eligible") reflects
    # dags whose source count exceeds the first batch's size.
    if trace is not None:
        trace.record(0.0, len(policy), 0, 0, 0, 0)

    track = metrics is not None
    n_events = 0
    peak_heap = 0
    peak_eligible = len(policy) if track else 0

    def assign(t: float, capacity: int) -> int:
        """Hand out up to *capacity* eligible jobs at time *t*."""
        nonlocal n_assigned, n_running, makespan, n_stragglers
        nonlocal batches_at_last, stalled_at_last, requests_at_last
        take = min(capacity, len(policy))
        if take <= 0:
            return 0
        durations = runtimes.draw(take)
        # Draw order is part of the random-stream contract: durations,
        # then failure flags, then straggler flags — each block skipped
        # entirely when its mode is off.
        if failure_prob > 0.0:
            fails = rng.random(take) < failure_prob
        if straggler_prob > 0.0:
            slow = rng.random(take) < straggler_prob
        for i in range(take):
            job = policy.pop()
            duration = float(durations[i])
            if runtime_scale is not None:
                duration *= float(runtime_scale[job])
            if straggler_prob > 0.0 and slow[i]:
                duration *= straggler_factor
                n_stragglers += 1
            if failure_prob > 0.0 and fails[i]:
                finish = t + duration * params.failure_time_fraction
                heappush(completions, (finish, job, True))
            else:
                finish = t + duration
                if finish > makespan:
                    makespan = finish
                heappush(completions, (finish, job, False))
        n_assigned += take
        n_running += take
        if n_assigned == n:
            batches_at_last = batches
            stalled_at_last = stalled
            requests_at_last = requests
        return take

    def process_completion() -> None:
        nonlocal n_executed, n_running, n_assigned, n_failures, now
        t, job, failed = heappop(completions)
        now = t
        n_running -= 1
        if failed:
            # The worker quit: the job is eligible again and must be
            # reassigned; the worker itself is gone.
            n_failures += 1
            n_assigned -= 1
            policy.push(job)
        else:
            n_executed += 1
            # Completion is observed before the newly eligible children
            # are pushed, so a reprioritizing policy ranks them against
            # the post-completion remnant.
            policy.on_complete(job)
            for v in children[job]:
                remaining[v] -= 1
                if remaining[v] == 0:
                    policy.push(v)

    while n_executed < n:
        if track:
            n_events += 1
            if len(completions) > peak_heap:
                peak_heap = len(completions)
            if len(policy) > peak_eligible:
                peak_eligible = len(policy)
        # Batches stay relevant while jobs still need assignment; with
        # churn enabled any running job may yet fail and need a future
        # worker, so the arrival stream must keep advancing with the clock
        # (skipping it would assign resurrected jobs to past batches).
        take_batches = (
            n_assigned < n
            or failure_prob > 0.0
            or (rollover and waiting > 0)
        )
        if take_batches:
            batch_time = arrivals.peek_time()
            if completions and completions[0][0] <= batch_time:
                process_completion()
                if rollover and waiting > 0:
                    waiting -= assign(now, waiting)
                if trace is not None:
                    trace.record(
                        now, len(policy), n_running, n_executed, wasted, waiting
                    )
                continue
            t, b = arrivals.next_batch()
            now = t
            batches += 1
            requests += b
            if n_assigned < n and len(policy) == 0:
                stalled += 1
            capacity = b + (waiting if rollover else 0)
            served = assign(t, capacity)
            if rollover:
                waiting = capacity - served
            else:
                wasted += b - served
            if trace is not None:
                trace.record(
                    now, len(policy), n_running, n_executed, wasted, waiting
                )
        else:
            process_completion()
            # Failures may re-open assignment while batches are ignored;
            # rolled-over workers (none unless rollover) or the next batch
            # will pick the job up on the next loop iteration.
            if trace is not None:
                trace.record(
                    now, len(policy), n_running, n_executed, wasted, waiting
                )

    if metrics is not None:
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.events").inc(n_events)
        metrics.counter("engine.batches").inc(batches)
        metrics.counter("engine.stalled_batches").inc(stalled)
        metrics.counter("engine.requests").inc(requests)
        metrics.counter("engine.failures").inc(n_failures)
        metrics.counter("engine.stragglers").inc(n_stragglers)
        metrics.counter("engine.wasted_workers").inc(wasted)
        metrics.gauge("engine.peak_heap").set(peak_heap)
        metrics.gauge("engine.peak_eligible").set(peak_eligible)

    return SimResult(
        execution_time=makespan,
        n_jobs=n,
        batches_until_last_assignment=batches_at_last,
        stalled_batches=stalled_at_last,
        requests_until_last_assignment=requests_at_last,
        n_failures=n_failures,
        unserved_workers=waiting,
        n_stragglers=n_stragglers,
    )
