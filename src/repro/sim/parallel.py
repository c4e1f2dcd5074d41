"""The replication driver: chunked tasks, optionally over a worker pool.

The sweep experiments run ``p * q`` independent simulations per grid cell;
every replication depends only on its own child :class:`~numpy.random.SeedSequence`,
so the batch is embarrassingly parallel.  Every batch runs as chunk tasks
(:func:`run_chunk`) through :func:`iter_chunk_results`, the one place
that chooses between a :class:`concurrent.futures.ProcessPoolExecutor`
and running the tasks in-process.  Results are **bit-identical** either
way:

* the parent process spawns the child sequences from the root seed
  (``SeedSequence.spawn`` is stateful, so the spawn tree is built exactly
  once, in the parent);
* children are partitioned into contiguous index-tagged chunks, so each
  submitted task amortizes pickling one shared :class:`CompiledDag` +
  :class:`SimParams` payload over many replications;
* tasks return ``(index, SimResult)`` pairs and the caller reassembles
  them in index order, so out-of-order completion cannot reorder metrics.

``ParallelConfig(jobs=1)`` (the default everywhere) has no pool: each
batch is one chunk, run in-process, so the batched kernel still gets all
of its replications in lockstep.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .compile import CompiledDag
from .engine import simulate

__all__ = [
    "ParallelConfig",
    "iter_chunk_results",
    "run_chunk",
    "clone_seedseq",
]

#: Target number of chunks per worker when ``chunk_size`` is not forced.
#: Several chunks per worker keeps the pool load-balanced when replication
#: runtimes vary, while still amortizing the per-task pickling cost.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan replications out across worker processes.

    ``jobs`` — worker process count (1 = no pool: tasks run in-process).
    ``chunk_size`` — replications per submitted task (None = automatic:
    about :data:`_CHUNKS_PER_WORKER` chunks per worker; ignored without
    a pool, where a batch is always one chunk).
    ``start_method`` — multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"``; None = the platform default).

    Determinism does not depend on any of these knobs: for a fixed root
    seed every setting yields bit-identical metrics.
    """

    jobs: int = 1
    chunk_size: int | None = None
    start_method: str | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")

    @property
    def enabled(self) -> bool:
        """Whether a worker pool is used at all."""
        return self.jobs > 1

    def resolve_chunk_size(self, count: int) -> int:
        """Replications per task for a batch of *count* replications.

        Without a pool the whole batch is one task, so the batched kernel
        runs every replication in lockstep.
        """
        if not self.enabled:
            return max(1, count)
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(count / (self.jobs * _CHUNKS_PER_WORKER)))

    def chunked(self, entries: list) -> list[list]:
        """Partition index-tagged entries into contiguous task chunks."""
        size = self.resolve_chunk_size(len(entries))
        return [entries[i: i + size] for i in range(0, len(entries), size)]

    def executor(self) -> ProcessPoolExecutor:
        """A fresh pool honouring ``jobs`` and ``start_method``."""
        import multiprocessing

        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method is not None
            else None
        )
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)


def resolve_parallel(
    jobs: int | None, parallel: ParallelConfig | None
) -> ParallelConfig:
    """Merge the ``jobs=N`` shorthand and an explicit config (which wins)."""
    if parallel is not None:
        return parallel
    return ParallelConfig(jobs=1 if jobs is None else jobs)


def iter_chunk_results(
    fn, tasks, par: ParallelConfig, *, retry=None, faults=None, metrics=None
):
    """Yield ``(key, fn(*args))`` for each ``(key, args)`` task as results
    complete.

    The single driver behind ``run_replications``, the sweep and
    ``prio curves``.  Without a pool the tasks run here, lazily and in
    submission order: a consumer that stops iterating (an exception from
    a progress callback, say) stops the remaining tasks too.  *retry* and
    *faults* need a pool and are ignored without one.

    With a pool, its lifetime is owned here: on *any* exit —
    clean completion, a worker exception, Ctrl-C in the consumer, or the
    consumer abandoning the iterator — the pool is shut down and pending
    futures are cancelled, so an error mid-batch can never leak live
    worker processes or block draining a queue of doomed chunks.

    With *retry* (a :class:`~repro.robust.retry.RetryPolicy`) or *faults*
    (a :class:`~repro.robust.faults.FaultPlan`) the robust executor takes
    over: failed or timed-out chunks are retried with backoff against
    rebuilt pools, degrading to in-process execution when the pool is
    unhealthy (recovery counters land in *metrics* when given).  Results
    are bit-identical either way — chunks are pure functions of their
    arguments, and callers reassemble by key.
    """
    if not par.enabled:
        for key, args in tasks:
            yield key, fn(*args)
        return
    if retry is not None or faults is not None:
        from ..robust.retry import run_robust_chunks

        yield from run_robust_chunks(
            fn, tasks, par, retry=retry, faults=faults, metrics=metrics
        )
        return
    executor = par.executor()
    try:
        futures = {executor.submit(fn, *args): key for key, args in tasks}
        for future in as_completed(futures):
            yield futures[future], future.result()
        executor.shutdown(wait=True)
    finally:
        # Reached with futures still pending only on error/early exit:
        # cancel them instead of blocking until every doomed chunk ran.
        executor.shutdown(wait=False, cancel_futures=True)


def clone_seedseq(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """A fresh sequence with the same entropy/key but no spawn history.

    ``SeedSequence.spawn`` is stateful; cloning lets two call sites spawn
    *identical* child trees (the common-random-numbers pairing of the
    sweep's ``paired`` mode).
    """
    return np.random.SeedSequence(
        entropy=seq.entropy,
        spawn_key=seq.spawn_key,
        pool_size=seq.pool_size,
    )


#: Per-process memo of *unpickled* compiled dags, keyed by content
#: fingerprint.  Every pool task pickles its own copy of the (shared)
#: compiled dag; canonicalizing copies against this memo as they are
#: unpickled (:meth:`CompiledDag.__reduce__`) lets all chunks for the same
#: dag share one object — and therefore one warmed ``child_lists``
#: adjacency view — per worker process instead of rebuilding it chunk by
#: chunk.  In-process tasks pickle nothing, so they never fill it.
_WORKER_COMPILED: dict[str, CompiledDag] = {}
_WORKER_COMPILED_MAX = 64


def _unpickle_compiled(*fields):
    """Rebuild a pickled :class:`CompiledDag`, canonical per content."""
    compiled = CompiledDag(*fields)
    key = compiled.fingerprint
    if key is None:
        return compiled
    cached = _WORKER_COMPILED.get(key)
    # The fingerprint ignores child order, which the simulation does not:
    # share the memoized instance only with an identical copy.
    if (
        cached is not None
        and np.array_equal(cached.indptr, compiled.indptr)
        and np.array_equal(cached.children, compiled.children)
    ):
        return cached
    if cached is None and len(_WORKER_COMPILED) >= _WORKER_COMPILED_MAX:
        _WORKER_COMPILED.clear()
    _WORKER_COMPILED[key] = compiled
    return compiled


def run_chunk(compiled, build_policy, params, runtime_scale, entries, collect=False):
    """The task every replication batch runs as, in a pool worker or
    in-process: simulate one chunk of index-tagged replications.

    *entries* is ``[(index, SeedSequence), ...]``; returns
    ``(results, snapshot)`` where *results* is
    ``[(index, SimResult, elapsed_seconds), ...]`` so the caller can
    reassemble the batch in spawn order regardless of task completion
    order.  Module-level so it is picklable under every start method.

    With ``collect=False`` (the default) no clock is read, every elapsed
    slot and *snapshot* are ``None``, and the chunk is first offered to
    the batched kernel (:func:`repro.perf.kernel_batch.dispatch_batch`),
    which is bit-identical to the per-replication reference loop below.
    ``collect=True`` is the one place telemetry keeps that loop, since
    per-event counters and per-replication wall clocks only exist there:
    each replication is timed and simulated under a chunk-local
    :class:`~repro.obs.metrics.MetricsRegistry` whose
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` comes back as
    *snapshot* for the caller to merge.  Telemetry never touches the
    generator, so results are bit-identical either way.
    """
    registry = None
    if collect:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    else:
        from ..perf.kernel_batch import dispatch_batch

        batched = dispatch_batch(
            compiled,
            build_policy,
            params,
            runtime_scale,
            [child_seq for _index, child_seq in entries],
        )
        if batched is not None:
            return (
                [
                    (index, result, None)
                    for (index, _seq), result in zip(entries, batched)
                ],
                None,
            )
    out = []
    for index, child_seq in entries:
        rng = np.random.default_rng(child_seq)
        policy = build_policy(rng)
        started = time.perf_counter() if collect else None
        result = simulate(
            compiled,
            policy,
            params,
            rng,
            runtime_scale=runtime_scale,
            metrics=registry,
        )
        elapsed = time.perf_counter() - started if collect else None
        out.append((index, result, elapsed))
    return out, registry.snapshot() if registry is not None else None
