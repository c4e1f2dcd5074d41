"""Hot-path performance layer: schedule caching and the fast kernels.

Three independent mechanisms, all with a hard bit-identity guarantee
against the code paths they replace:

* :class:`~repro.perf.cache.ScheduleCache` — schedules (PRIO, FIFO,
  ablation variants) and compiled dags are computed once per unique dag
  and reused across replications, sweep cells, league rounds and resumed
  runs.  Keys are :meth:`repro.dag.graph.Dag.fingerprint` content hashes;
  an optional on-disk store (``directory=``) makes the cache survive
  process boundaries and CLI invocations.
* :func:`~repro.perf.kernel.simulate_fast` — an array-compiled
  specialization of the reference event loop in
  :mod:`repro.sim.engine` (integer job ids, flat adjacency, preallocated
  eligibility frontier, no per-event method dispatch).
  :func:`repro.sim.engine.simulate` dispatches to it automatically for
  the policies it supports and falls back to the reference engine
  otherwise; both paths consume the random stream identically, so
  results are bit-identical.
* :func:`~repro.perf.kernel_batch.simulate_batch` — a batched
  replication kernel that runs *all* replications of a
  (dag, policy, parameter) cell in lockstep as struct-of-arrays numpy
  state, collapsing the event loop to one iteration per batch arrival
  shared by every replication.
  :func:`repro.sim.replication.run_replications` and the parallel chunk
  workers dispatch whole batches to it automatically on the
  pre-telemetry hot path; :func:`~repro.perf.kernel_batch.batch_supported`
  is the predicate.  Worker churn runs in lockstep too; only request
  rollover falls back to per-replication :func:`simulate_fast` — every
  path is exact, replication by replication.

The equivalence suite (``tests/perf/``) holds all three guarantees under
property-based random dags and the paper workloads.
"""

from .cache import ScheduleCache, cached_schedule, schedule_algorithms
from .kernel import kernel_supported, simulate_fast
from .kernel_batch import batch_supported, simulate_batch

__all__ = [
    "ScheduleCache",
    "cached_schedule",
    "schedule_algorithms",
    "kernel_supported",
    "simulate_fast",
    "batch_supported",
    "simulate_batch",
]
