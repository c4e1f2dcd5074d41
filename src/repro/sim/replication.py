"""Replicated simulation runs with reproducible seeding.

The sweep experiments need ``p * q`` independent replications per
(dag, policy, parameter) cell.  Seeds are derived from a
``numpy.random.SeedSequence`` spawn tree so every replication is independent
and the whole experiment is reproducible from a single root seed.

Every batch runs through the chunk driver of :mod:`repro.sim.parallel`;
pass ``jobs=N`` to give it a pool of worker processes.  The spawn tree
is built in the parent and results are reassembled in spawn order, so
for a fixed root seed ``jobs=1`` and ``jobs=N`` return
**bit-identical** :class:`MetricArrays`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..dag.graph import Dag
from .compile import CompiledDag, as_compiled, as_dag
from .engine import SimParams, SimResult, make_policy
from .parallel import ParallelConfig, iter_chunk_results, run_chunk
from .policies import Policy, policy_spec

__all__ = [
    "IncompleteBatchError",
    "MetricArrays",
    "iter_units",
    "run_replications",
    "policy_factory",
]


class IncompleteBatchError(RuntimeError):
    """A replication batch is missing results for some indices.

    Raised when assembling :class:`MetricArrays` from a batch where some
    replications never produced a result — the robust executor exhausted
    its retries for those chunks and left their slots empty.  Carries the
    missing replication indices (``missing``) and the batch size
    (``total``) so callers and logs can say exactly what is absent
    instead of crashing on an attribute of ``None``.
    """

    def __init__(self, missing: Sequence[int], total: int):
        self.missing = tuple(missing)
        self.total = int(total)
        shown = ", ".join(str(i) for i in self.missing[:10])
        if len(self.missing) > 10:
            shown += f", ... ({len(self.missing) - 10} more)"
        super().__init__(
            f"replication batch incomplete: {len(self.missing)} of "
            f"{self.total} replications have no result (indices {shown}). "
            "The fault-tolerant executor exhausted its retries for the "
            "chunks covering them; re-run the batch, or resume the sweep "
            "from its checkpoint (--resume) to redo only the unfinished "
            "cells."
        )


class MetricArrays:
    """Per-replication metric vectors from a batch of simulations."""

    __slots__ = ("execution_time", "stalling_probability", "utilization")

    def __init__(self, results: Sequence[SimResult]):
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise IncompleteBatchError(missing, len(results))
        self.execution_time = np.array(
            [r.execution_time for r in results], dtype=np.float64
        )
        self.stalling_probability = np.array(
            [r.stalling_probability for r in results], dtype=np.float64
        )
        self.utilization = np.array(
            [r.utilization for r in results], dtype=np.float64
        )

    @classmethod
    def from_arrays(
        cls, execution_time, stalling_probability, utilization
    ) -> "MetricArrays":
        """Rebuild from stored metric vectors (checkpoint resume).

        Values restored from a checkpoint round-trip exactly (JSON uses
        shortest-repr floats), so a resumed batch is bit-identical to
        the one originally measured.
        """
        arrays = cls.__new__(cls)
        arrays.execution_time = np.asarray(execution_time, dtype=np.float64)
        arrays.stalling_probability = np.asarray(
            stalling_probability, dtype=np.float64
        )
        arrays.utilization = np.asarray(utilization, dtype=np.float64)
        if not (
            len(arrays.execution_time)
            == len(arrays.stalling_probability)
            == len(arrays.utilization)
        ):
            raise ValueError("metric vectors must have equal lengths")
        return arrays

    def __len__(self) -> int:
        return len(self.execution_time)

    def metric(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown metric {name!r}") from None


class PolicyFactory:
    """Picklable policy factory: a fresh policy per replication.

    The replication's generator is passed in so the random policy draws
    from the same reproducible stream as the rest of its simulation.  A
    plain class (not a closure) so instances survive the pickling boundary
    of the worker-process pool.  Build one with :func:`policy_factory`,
    which resolves *order* and *dag* for the kind.
    """

    __slots__ = ("kind", "order", "dag")

    def __init__(self, kind: str, order: list[int] | None, dag: Dag | None):
        self.kind = kind
        self.order = order
        #: only for dag-consuming kinds (``consumes_dag`` in the registry);
        #: :class:`~repro.dag.graph.Dag` is plain picklable data, so the
        #: factory still crosses the worker-process boundary.
        self.dag = dag

    @property
    def batch_kind(self) -> str | None:
        """Kernel dispatch class for the batched kernel (or ``None``).

        ``"fifo"`` for FIFO; ``"oblivious"`` for any static-permutation
        kind whose order is materialized on this factory; ``None`` when
        the batched kernel must not engage (random draws, live
        reprioritization, or an oblivious kind without an order).
        """
        batch_kind = policy_spec(self.kind).batch_kind
        if batch_kind == "oblivious" and self.order is None:
            return None
        return batch_kind

    def __call__(self, rng: np.random.Generator) -> Policy:
        return make_policy(self.kind, order=self.order, rng=rng, dag=self.dag)

    def __getstate__(self):
        return (self.kind, self.order, self.dag)

    def __setstate__(self, state):
        self.kind, self.order, self.dag = state


def policy_factory(
    kind: str,
    order: Sequence[int] | None = None,
    *,
    dag: Dag | CompiledDag | None = None,
    cache=None,
) -> PolicyFactory:
    """A factory producing a fresh *kind* policy per replication.

    The one place a registered kind becomes a policy.  A static kind
    (``static`` in the registry: ``prio``, ``upward-rank``, ``dagps``)
    given a *dag* but no *order* resolves its order **once**, through
    :func:`repro.perf.cache.cached_schedule` under its own name: every
    replication shares the permutation (the paper's amortization
    argument), worker processes receive the order instead of
    re-deriving it, and :attr:`PolicyFactory.batch_kind` advertises the
    batched kernel's oblivious dispatch class.  The factory keeps the
    dag only for kinds that consume it (``prio-live``), as an object
    :class:`~repro.dag.graph.Dag` — a :class:`CompiledDag` is converted
    once with :meth:`CompiledDag.to_dag`.

    *dag* may be either form.  *cache* (a
    :class:`~repro.perf.cache.ScheduleCache`) memoizes the order, as in
    :func:`run_replications`; policies are identical with or without it.
    Unknown kinds raise :class:`~repro.sim.policies.UnknownPolicyError`.
    """
    spec = policy_spec(kind)
    if order is None and spec.static and dag is not None:
        from ..perf.cache import cached_schedule

        order = cached_schedule(dag, kind, cache=cache)
    if not spec.consumes_dag:
        dag = None
    return PolicyFactory(
        kind,
        list(order) if order is not None else None,
        as_dag(dag) if dag is not None else None,
    )


def iter_units(
    units,
    par: ParallelConfig,
    *,
    collect: bool = False,
    retry=None,
    faults=None,
    metrics=None,
):
    """Run units of replication batches through the chunk driver.

    *units* is an iterable of ``(key, batches)``; each batch is
    ``(compiled, build_policy, params, runtime_scale, seedseq, count)``.
    Each chunk spawns its child seeds only when the loop pulls it, so
    the seeds held are those of the chunks in flight; without a pool one
    unit's results are held at a time, and a consumer that stops
    iterating stops the remaining units.  With a pool every unit's
    chunks share that one pool.

    Yields ``(key, results, elapsed)`` once a unit's last chunk lands
    (in completion order with a pool, in *units* order without):
    *results* holds one list of :class:`SimResult` per batch in spawn
    order; *elapsed* one list of per-replication wall clocks per batch,
    all ``None`` unless *collect* (the telemetry flag of
    :func:`~repro.sim.parallel.run_chunk`).  *retry*, *faults* and
    *metrics* pass through to
    :func:`~repro.sim.parallel.iter_chunk_results`; each chunk's
    registry snapshot is merged into *metrics*.
    """
    state: dict[int, tuple] = {}  # unit -> (key, results, elapsed)
    pending: dict[int, int] = {}  # unit -> chunks still out

    def tasks():
        for unit, (key, batches) in enumerate(units):
            results, elapsed, plan = [], [], []
            # shared: (compiled, build_policy, params, runtime_scale)
            for number, (*shared, seedseq, count) in enumerate(batches):
                results.append([None] * count)
                elapsed.append([None] * count)
                # An empty batch still runs one (empty) chunk, so its
                # unit reports back.
                spans = par.chunked(range(count)) or [range(0)]
                plan.append((number, shared, seedseq, spans))
            state[unit] = (key, results, elapsed)
            pending[unit] = sum(len(spans) for *_, spans in plan)
            for number, shared, seedseq, spans in plan:
                for chunk_no, span in enumerate(spans):
                    # spawn() continues the child numbering, so spawning
                    # chunk by chunk as the loop pulls gives the same
                    # children as one spawn(count) up front.
                    chunk = list(zip(span, seedseq.spawn(len(span))))
                    yield (unit, number, chunk_no), (*shared, chunk, collect)

    for (unit, number, _), (chunk_results, snapshot) in iter_chunk_results(
        run_chunk, tasks(), par, retry=retry, faults=faults, metrics=metrics
    ):
        _, results, elapsed = state[unit]
        for index, result, seconds in chunk_results:
            results[number][index] = result
            elapsed[number][index] = seconds
        if metrics is not None and snapshot is not None:
            metrics.merge_snapshot(snapshot)
        pending[unit] -= 1
        if not pending[unit]:
            del pending[unit]
            yield state.pop(unit)


def run_replications(
    dag: Dag | CompiledDag,
    build_policy: Callable[[np.random.Generator], Policy],
    params: SimParams,
    count: int,
    seed: int | np.random.SeedSequence = 0,
    *,
    runtime_scale=None,
    jobs: int = 1,
    metrics=None,
    on_replication: Callable[[int, SimResult, float | None], None] | None = None,
    retry=None,
    faults=None,
    cache=None,
) -> MetricArrays:
    """Run *count* independent simulations; returns per-run metrics.

    The one-unit, one-batch case of :func:`iter_units`.  ``jobs`` gives
    the chunk driver a worker pool; at ``jobs=1`` (or for a single
    replication) the batch runs in-process as one chunk.  Results are
    bit-identical either way for the same *seed*.  With worker
    processes, *build_policy* must be picklable — the factories from
    :func:`policy_factory` are.

    *retry* (a :class:`~repro.robust.retry.RetryPolicy`) and *faults*
    (a :class:`~repro.robust.faults.FaultPlan`) switch the pool loop onto
    its error path: crashed, failed or hung chunks are retried with
    backoff against rebuilt pools, degrading to in-process execution
    when the pool is unhealthy.  Replications are pure
    functions of their seeds, so recovery never changes the metrics.
    (In-process runs have no pool; both are ignored when ``jobs=1``.)

    Telemetry hooks (both observational — neither touches any generator,
    so results are bit-identical with or without them; either keeps the
    batch on the per-replication reference loop):

    * *metrics* — a :class:`~repro.obs.metrics.MetricsRegistry` receiving
      the simulator's event-loop counters (each chunk's counters are
      merged back into it) plus the pool loop's recovery counters;
    * *on_replication* — called as ``on_replication(rep, result,
      elapsed_seconds)`` once per replication, in replication order, after
      the batch (``elapsed_seconds`` is the wall-clock of that simulation).

    *cache* (a :class:`~repro.perf.cache.ScheduleCache`) memoizes the
    compiled form of *dag* so repeated batches over the same structure —
    sweep cells, league rounds, resumed runs — share one
    :class:`CompiledDag` and its warmed adjacency views.  Caching is
    purely structural reuse: metrics are bit-identical with or without it.
    """
    compiled = cache.compiled(dag) if cache is not None else as_compiled(dag)
    seedseq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    # A lone replication is not worth a pool.
    par = ParallelConfig(jobs=jobs if count > 1 else 1)
    batch = (compiled, build_policy, params, runtime_scale, seedseq, count)
    ((_, (results,), (elapsed,)),) = iter_units(
        [(None, [batch])],
        par,
        collect=metrics is not None or on_replication is not None,
        retry=retry,
        faults=faults,
        metrics=metrics,
    )
    if on_replication is not None:
        for rep, result in enumerate(results):
            on_replication(rep, result, elapsed[rep])
    return MetricArrays(results)
