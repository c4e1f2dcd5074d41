"""Hot-path performance layer: schedule caching and the fast engine.

Two independent mechanisms, both with a hard bit-identity guarantee
against the code paths they replace:

* :class:`~repro.perf.cache.ScheduleCache` — schedules (PRIO, FIFO,
  ablation variants) and compiled dags are computed once per unique dag
  and reused across replications, sweep cells, league rounds and resumed
  runs.  Keys are :meth:`repro.dag.graph.Dag.fingerprint` content hashes;
  an optional on-disk store (``directory=``) makes the cache survive
  process boundaries and CLI invocations.
* :func:`~repro.perf.kernel_batch.simulate_batch` — the one fast
  simulation engine: a batched replication kernel that runs *all*
  replications of a (dag, policy, parameter) cell in lockstep as
  struct-of-arrays numpy state, collapsing the event loop to one
  iteration per batch arrival shared by every replication.
  :func:`repro.sim.replication.run_replications` and the parallel chunk
  workers dispatch whole batches to it automatically on the
  pre-telemetry hot path; :func:`~repro.perf.kernel_batch.batch_supported`
  is the predicate.  Worker churn runs in lockstep too; request
  rollover, straggler injection, telemetry runs and single simulations
  run on the reference loop (:func:`repro.sim.engine.simulate`), the
  oracle the kernel is pinned to replication by replication.

The equivalence suite (``tests/perf/``) holds both guarantees under
property-based random dags and the paper workloads.
"""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".cache": ("ScheduleCache", "cached_schedule", "schedule_algorithms"),
    ".kernel_batch": ("batch_supported", "simulate_batch"),
})

__all__ = [
    "ScheduleCache",
    "cached_schedule",
    "schedule_algorithms",
    "batch_supported",
    "simulate_batch",
]
