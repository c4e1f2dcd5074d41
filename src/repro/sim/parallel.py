"""The replication driver: chunked tasks, optionally over a worker pool.

The sweep experiments run ``p * q`` independent simulations per grid cell;
every replication depends only on its own child :class:`~numpy.random.SeedSequence`,
so the batch is embarrassingly parallel.  Every batch runs as chunk tasks
(:func:`run_chunk`) through :func:`iter_chunk_results`, the one place
that chooses between a :class:`concurrent.futures.ProcessPoolExecutor`
and running the tasks in-process, and the one pool loop: it pulls
chunks lazily, keeps a bounded window of them in flight, and handles
retries, pool rebuilds and serial degradation as its error path.
Results are **bit-identical** either way:

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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from ..robust.retry import RetryPolicy, _invoke
from .compile import CompiledDag
from .engine import simulate

__all__ = [
    "ParallelConfig",
    "iter_chunk_results",
    "run_chunk",
    "clone_seedseq",
]

#: Target number of chunks per worker.  Several chunks per worker keeps
#: the pool load-balanced when replication runtimes vary, while still
#: amortizing the per-task pickling cost.
#: The pool loop keeps twice that per worker in flight: one two-sided
#: sweep cell's chunks.
_CHUNKS_PER_WORKER = 4


class _PoolStalled(Exception):
    """No chunk completed within the progress deadline."""


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan replications out across worker processes.

    ``jobs`` is the worker process count (1 = no pool: tasks run
    in-process).  A pool splits each batch into about
    :data:`_CHUNKS_PER_WORKER` chunks per worker.

    Determinism does not depend on it: for a fixed root seed every
    setting yields bit-identical metrics.
    """

    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

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
        return max(1, math.ceil(count / (self.jobs * _CHUNKS_PER_WORKER)))

    def chunked(self, entries: list) -> list[list]:
        """Partition *entries* (a list, or a range of replication
        indices) into contiguous task chunks."""
        size = self.resolve_chunk_size(len(entries))
        return [entries[i: i + size] for i in range(0, len(entries), size)]

    def executor(self) -> ProcessPoolExecutor:
        """A fresh pool of ``jobs`` workers."""
        return ProcessPoolExecutor(max_workers=self.jobs)


def iter_chunk_results(
    fn, tasks, par: ParallelConfig, *, retry=None, faults=None, metrics=None
):
    """Yield ``(key, fn(*args))`` for each ``(key, args)`` task as results
    complete.

    The one pool loop, behind ``run_replications``, the sweep and
    ``prio curves``.  Without a pool the tasks run here, lazily and in
    order: a consumer that stops iterating (an exception from a progress
    callback, say) stops the remaining tasks too.  *retry* and *faults*
    need a pool and are ignored without one.

    With a pool, tasks are still pulled lazily: at most
    ``2 * jobs * _CHUNKS_PER_WORKER`` chunks (one two-sided sweep cell)
    are pulled but not yet yielded, so the parent never holds more
    than that window of chunk arguments, however long *tasks* is.
    Chunks are numbered in the order they are pulled, which is the
    numbering a :class:`~repro.robust.faults.FaultPlan` addresses, and
    keys must be unique (a duplicate raises ``ValueError`` when pulled).
    The pool's lifetime is owned here: on *any* exit — clean
    completion, a worker exception, Ctrl-C in the consumer, or the
    consumer abandoning the iterator — it is shut down and pending
    futures are cancelled, so an error mid-batch can never leak live
    worker processes or block draining a queue of doomed chunks.

    With neither *retry* nor *faults* a chunk's exception propagates at
    once.  With either (a :class:`~repro.robust.retry.RetryPolicy`
    whose defaults apply when only *faults* is given), failure takes the
    loop's error path instead: a failed chunk is retried with backoff; a
    ``BrokenProcessPool`` or a progress-deadline stall rebuilds the pool,
    charges each in-flight chunk an attempt and resubmits it; a chunk out
    of attempts runs in-process; past ``max_pool_rebuilds`` the in-flight
    chunks run in-process in number order and the remaining tasks are
    pulled and run in-process too.  A chunk whose in-process attempt
    fails still raises.  Recovery counters land in *metrics* when given.
    Results are bit-identical either way — chunks are pure functions of
    their arguments, and callers reassemble by key.
    """
    if not par.enabled:
        for key, args in tasks:
            yield key, fn(*args)
        return
    robust = retry is not None or faults is not None
    policy = retry if retry is not None else RetryPolicy()
    window = 2 * par.jobs * _CHUNKS_PER_WORKER
    source = iter(tasks)
    seen: set = set()
    inflight: dict[int, tuple] = {}  # number -> (key, args), not yet yielded
    attempts: dict[int, int] = {}  # number -> attempts charged
    futures: dict = {}  # future -> number
    executor = None
    rebuilds = 0

    def count(name: str, amount: int = 1) -> None:
        if metrics is not None:
            metrics.counter(name).inc(amount)

    def pull():
        """Number and hold the next task; None once *tasks* is exhausted."""
        for key, args in source:
            if key in seen:
                raise ValueError("task keys must be unique")
            number = len(seen)
            seen.add(key)
            inflight[number] = (key, args)
            attempts[number] = 0
            return number
        return None

    def spec(number):
        return None if faults is None else faults.spec(number, attempts[number])

    def submit(number):
        args = inflight[number][1]
        futures[executor.submit(_invoke, fn, args, spec(number))] = number

    def finish(number, result):
        del attempts[number]
        return inflight.pop(number)[0], result

    def run_serial(number):
        """The last resort: run the chunk in this process."""
        count("robust.degraded_serial")
        args = inflight[number][1]
        return finish(number, _invoke(fn, args, spec(number), in_worker=False))

    try:
        while True:
            if executor is None:
                degraded = rebuilds > policy.max_pool_rebuilds
                for number in sorted(inflight):
                    if degraded or attempts[number] >= policy.max_attempts:
                        yield run_serial(number)
                if degraded:
                    while (number := pull()) is not None:
                        yield run_serial(number)
                    return
            try:
                if executor is None:
                    executor = par.executor()
                    for number in sorted(inflight):
                        submit(number)
                while len(inflight) < window and (number := pull()) is not None:
                    submit(number)
                if not futures:
                    break
                done, _ = wait(
                    futures, timeout=policy.timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    count("robust.timeout", len(futures))
                    raise _PoolStalled
                for future in sorted(done, key=futures.__getitem__):
                    number = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception:
                        if not robust:
                            raise
                        attempts[number] += 1
                        count("robust.retry")
                        if attempts[number] >= policy.max_attempts:
                            yield run_serial(number)
                        else:
                            time.sleep(policy.delay(attempts[number] - 1))
                            submit(number)
                    else:
                        yield finish(number, result)
            except (BrokenProcessPool, _PoolStalled):
                if not robust:
                    raise
                # The pool is gone (a worker died) or hung (no progress):
                # tear it down, charge every in-flight chunk one attempt,
                # back off; the next pass rebuilds and resubmits.
                rebuilds += 1
                count("robust.pool_rebuild")
                count("robust.retry", len(inflight))
                for number in inflight:
                    attempts[number] += 1
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None
                futures.clear()
                time.sleep(policy.delay(rebuilds - 1))
        executor.shutdown(wait=True)
    finally:
        # Reached with futures still pending only on error/early exit:
        # cancel them instead of blocking until every doomed chunk ran.
        if executor is not None:
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
