"""Content-addressed schedule cache: compute each order once per dag.

The paper stresses that ``prio`` runs once per dag and its cost is
amortized over the whole computation — but the evaluation harness was
re-running the pipeline far more often than that: every sweep driver, CLI
invocation and league round recomputed the same schedule for the same
dag.  :class:`ScheduleCache` keys schedules by
:meth:`repro.dag.graph.Dag.fingerprint` (a canonical hash of the
adjacency, label-invariant but id-sensitive) so any consumer asking for
the same algorithm over the same structure gets the memoized order back.
Either dag form works: a :class:`~repro.sim.compile.CompiledDag` carries
the same fingerprint as the object dag it was built from (arena dags
compute it directly), so both forms share entries.

The fingerprint hashes the arcs in sorted order, but FIFO and the
topological order enqueue children in *stored* order, and so does the
compiled CSR.  Those entries add a digest of the stored child order to
their key (:data:`_CHILD_ORDER`), so two dags with the same arcs listed
differently never share them.  PRIO, upward rank and DAGPS depend on the
arc set alone and pay nothing extra.

Lookups go by key, so a caller can ask before any dag exists.
:func:`schedule_key` keys the object dag, the compiled dag and the wire
form ``(n, arcs)`` of :func:`repro.dag.io_json.decode_dag` alike: the
wire fingerprint is :func:`~repro.dag.graph.fingerprint_arcs` over the
sorted arcs, and its child-order digest groups the arcs stably by parent,
which is how ``Dag(n, arcs)`` stores them.  The service answers a
``/schedule`` hit this way, with no ``Dag`` built
(:mod:`repro.serve.protocol`).  A hit skips only checks that an invalid
payload cannot pass.  The hashed stream ``dag-v1:n;u>v;u>v...`` is
injective on ``n`` and a sorted list of integer pairs, and a key is
stored only for a dag that passed validation (ids in range, no self-loop,
no duplicate arc, acyclic).  A payload that hashes to a stored key
therefore has exactly that dag's node count and arc set, with the trust
in SHA-256 every fingerprint already carries; for a given arc set the
child-order digest then pins the per-parent order.  The ids must be
actual integers for this to hold (``True`` would format as ``1``), which
the strict decode ensures.

Two tiers:

* an **in-memory LRU** (always on) for reuse within a process — sweep
  cells, league entrants, report workloads;
* an optional **on-disk store** (``directory=``) for reuse across
  processes and CLI invocations — files are content-addressed by the
  cache key's digest and written with
  :func:`repro.robust.io.write_atomic`, so concurrent writers and crashes
  can never tear an entry; a damaged or stale entry is treated as a miss
  and rewritten.

Because the key pins everything the algorithm reads — the adjacency over
node ids, the child order where it matters, and every algorithm knob — a
cache hit returns byte-for-byte the order the compute path would have
produced: cached and uncached runs are interchangeable, which the
equivalence suite asserts end to end.

Counters: when a :class:`~repro.obs.metrics.MetricsRegistry` is attached
(``metrics=``), every hit lands in ``cache.hit`` and every stored
computation in ``cache.miss`` (disk hits additionally in
``cache.disk_hit``).

The cache is one of the two reuse mechanisms benchmarked by
``benchmarks/test_bench_cache.py`` (with the batched simulation kernel,
:mod:`repro.perf.kernel_batch`); a cached PRIO schedule is exactly what
:func:`~repro.perf.kernel_batch.simulate_batch` validates once and then
shares across a whole replication batch.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from collections.abc import Callable
from operator import itemgetter
from pathlib import Path

import numpy as np

from ..dag.graph import Dag, fingerprint_arcs
from ..sim.compile import CompiledDag, as_compiled, as_dag

__all__ = [
    "ScheduleCache",
    "cached_schedule",
    "schedule_algorithms",
    "schedule_key",
]

_SCHEMA = 1


def _compute_prio(dag: Dag | CompiledDag, **kwargs) -> list[int]:
    from ..core.prio import prio_schedule

    return prio_schedule(as_dag(dag), **kwargs).schedule


def _compute_fifo(dag: Dag | CompiledDag, **kwargs) -> list[int]:
    from ..core.fifo import fifo_schedule

    return fifo_schedule(as_dag(dag), **kwargs)


def _compute_topological(dag: Dag | CompiledDag, **kwargs) -> list[int]:
    return as_dag(dag).topological_order()


def _compute_upward_rank(dag: Dag | CompiledDag, **kwargs) -> list[int]:
    from ..sim.rank import upward_rank_order

    return upward_rank_order(dag, **kwargs)


def _compute_dagps(dag: Dag | CompiledDag, **kwargs) -> list[int]:
    from ..sim.rank import dagps_order

    return dagps_order(dag, **kwargs)


#: Algorithm name -> ``fn(dag, **kwargs) -> order``, the one table of
#: order computations (a registered policy marked ``static`` is served
#: from the entry under its own name).  Every function accepts either
#: dag form: ``upward-rank`` and ``dagps`` run on the CSR directly, the
#: others convert a compiled dag once with ``CompiledDag.to_dag``.
#: ``prio`` accepts the full :func:`repro.core.prio.prio_schedule` knob
#: set; ``upward-rank`` and ``dagps`` accept :mod:`repro.sim.rank`'s
#: ``weights``.  Every knob is part of the cache key, so ablation
#: variants never collide — and because the *algorithm name* is part of
#: the key too, the same dag under ``prio``, ``upward-rank`` and
#: ``dagps`` occupies three distinct cache slots.
_ALGORITHMS: dict[str, Callable[..., list[int]]] = {
    "prio": _compute_prio,
    "fifo": _compute_fifo,
    "topological": _compute_topological,
    "upward-rank": _compute_upward_rank,
    "dagps": _compute_dagps,
}

#: Algorithms that read each job's children in stored order.
_CHILD_ORDER = frozenset({"fifo", "topological"})


def _compute(algorithm: str) -> Callable[..., list[int]]:
    try:
        return _ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown schedule algorithm {algorithm!r}; "
            f"choose from {schedule_algorithms()}"
        ) from None


#: The wire form of a dag: ``(n, arcs)`` with *arcs* the ``(parent,
#: child)`` int pairs in payload order, as
#: :func:`repro.dag.io_json.decode_dag` returns them.
Wire = tuple[int, list[tuple[int, int]]]


def _fingerprint(dag: Dag | CompiledDag | Wire) -> str | None:
    if isinstance(dag, CompiledDag):
        return dag.fingerprint
    if isinstance(dag, Dag):
        return dag.fingerprint()
    n, arcs = dag
    return fingerprint_arcs(n, sorted(arcs))


def _child_order(dag: Dag | CompiledDag | Wire) -> str:
    """Digest of every job's children in stored order.

    Together with the fingerprint (which pins the arc set, hence the
    out-degrees) it pins the CSR ``children`` array, so a dag and its
    compiled form get the same digest.  Wire arcs are grouped stably by
    parent, which is the order ``Dag(n, arcs)`` stores children in.
    An id outside int32 raises ``OverflowError``.
    """
    if isinstance(dag, CompiledDag):
        kids = np.ascontiguousarray(dag.children, dtype=np.int32)
    elif isinstance(dag, Dag):
        kids = np.fromiter(
            (v for _, v in dag.arcs()), dtype=np.int32, count=dag.narcs
        )
    else:
        _, arcs = dag
        kids = np.fromiter(
            (v for _, v in sorted(arcs, key=itemgetter(0))),
            dtype=np.int32,
            count=len(arcs),
        )
    return hashlib.sha256(kids.tobytes()).hexdigest()


def schedule_key(
    dag: Dag | CompiledDag | Wire, algorithm: str, kwargs: dict
) -> tuple | None:
    """The cache key of the *algorithm* order for *dag*, in any form.

    ``(fingerprint, algorithm, kwargs JSON)``, plus the child-order
    digest for :data:`_CHILD_ORDER` algorithms.  A valid wire form gets
    the key of ``Dag(n, arcs)``; None for a compiled dag without a
    fingerprint.
    """
    fingerprint = _fingerprint(dag)
    if fingerprint is None:
        return None
    kwargs_json = json.dumps(kwargs, sort_keys=True, default=str)
    key = (fingerprint, algorithm, kwargs_json)
    if algorithm in _CHILD_ORDER:
        key += (_child_order(dag),)
    return key


def schedule_algorithms() -> tuple[str, ...]:
    """Names accepted by :meth:`ScheduleCache.schedule`."""
    return tuple(_ALGORITHMS)


class ScheduleCache:
    """LRU + optional on-disk store for per-dag schedules and compiled dags.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity (schedules and compiled dags count
        separately toward it).
    directory:
        Optional on-disk store.  Created on first write.  Only schedules
        are persisted (compiled dags are cheap to rebuild and
        numpy-backed); entries are JSON files named by the key digest.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        ``cache.hit`` / ``cache.miss`` / ``cache.disk_hit`` counters.
        Can also be attached later via :meth:`attach_metrics`.

    Instances are safe to share across threads and cheap to pickle: the
    pickled form carries only the configuration (capacity + directory),
    so a worker process unpickles an empty cache that re-reads the shared
    on-disk store instead of shipping the parent's memory.  The sharded
    serving tier (``prio serve --shards N``) relies on exactly this:
    each scheduler shard unpickles its own empty LRU, and because
    requests are consistent-hashed by dag identity, every shard's LRU
    warms on — and stays hot for — its stable subset of the keyspace.
    """

    def __init__(
        self,
        *,
        max_entries: int = 256,
        directory: str | Path | None = None,
        metrics=None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        self._metrics = metrics
        self._lock = threading.Lock()
        self._memory: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- pickling: configuration only ---------------------------------
    def __getstate__(self):
        return {"max_entries": self.max_entries, "directory": self.directory}

    def __setstate__(self, state):
        self.__init__(
            max_entries=state["max_entries"], directory=state["directory"]
        )

    def attach_metrics(self, metrics) -> None:
        """Route subsequent hit/miss counts into *metrics* (or None)."""
        self._metrics = metrics

    def stats(self) -> dict:
        """JSON-ready counters snapshot (served by ``GET /metrics``)."""
        with self._lock:
            entries = len(self._memory)
        total = self.hits + self.misses
        return {
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "hit_rate": self.hits / total if total else 0.0,
        }

    # -- internals -----------------------------------------------------

    def _count(self, hit: bool, from_disk: bool = False) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if from_disk:
            self.disk_hits += 1
        if self._metrics is not None:
            self._metrics.counter("cache.hit" if hit else "cache.miss").inc()
            if from_disk:
                self._metrics.counter("cache.disk_hit").inc()

    def _memory_get(self, key: tuple):
        with self._lock:
            try:
                value = self._memory[key]
            except KeyError:
                return None
            self._memory.move_to_end(key)
            return value

    def _memory_put(self, key: tuple, value) -> None:
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _entry_path(self, key: tuple) -> Path:
        digest = hashlib.sha256("|".join(key).encode()).hexdigest()
        return self.directory / f"schedule-{digest}.json"

    def _disk_get(self, key: tuple, n: int) -> list[int] | None:
        path = self._entry_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != _SCHEMA
            or payload.get("fingerprint") != key[0]
            or payload.get("n") != n
        ):
            return None
        schedule = payload.get("schedule")
        if not isinstance(schedule, list) or len(schedule) != n:
            return None
        return [int(u) for u in schedule]

    def _disk_put(self, key: tuple, n: int, schedule: list[int]) -> None:
        from ..robust.io import write_atomic

        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _SCHEMA,
            "fingerprint": key[0],
            "algorithm": key[1],
            "kwargs": key[2],
            "n": n,
            "schedule": schedule,
        }
        write_atomic(self._entry_path(key), json.dumps(payload))

    # -- public API ----------------------------------------------------

    def lookup(self, key: tuple, n: int) -> list[int] | None:
        """The order stored under *key* for a dag of *n* jobs (memory,
        then disk), or None.

        Counts a hit; a miss is counted by the :meth:`store` of the
        computed order, so a computation that fails counts nothing.
        Returns a fresh list (callers mutate orders — e.g. appending
        sinks — so the cached copy must stay pristine).
        """
        order = self._memory_get(key)
        if order is not None:
            self._count(hit=True)
            return list(order)
        if self.directory is not None:
            order = self._disk_get(key, n)
            if order is not None:
                self._memory_put(key, order)
                self._count(hit=True, from_disk=True)
                return list(order)
        return None

    def store(self, key: tuple, n: int, order: list[int]) -> None:
        """Keep a copy of *order*, computed for a dag of *n* jobs, under
        *key* (memory, and disk when configured); counts the miss."""
        order = list(order)
        self._memory_put(key, order)
        if self.directory is not None:
            self._disk_put(key, n, order)
        self._count(hit=False)

    def schedule(
        self, dag: Dag | CompiledDag, algorithm: str = "prio", **kwargs
    ) -> list[int]:
        """The *algorithm* order for *dag* (either form), computed at most
        once.

        Returns a fresh list on every call.  A compiled dag built by hand
        from raw arrays has no fingerprint to key it by, so its order is
        computed every time.
        """
        compute = _compute(algorithm)
        key = schedule_key(dag, algorithm, kwargs)
        if key is None:
            self._count(hit=False)
            return list(compute(dag, **kwargs))
        order = self.lookup(key, dag.n)
        if order is None:
            order = list(compute(dag, **kwargs))
            self.store(key, dag.n, order)
        return order

    def compiled(self, dag: Dag | CompiledDag) -> CompiledDag:
        """The :class:`~repro.sim.compile.CompiledDag` for *dag*, memoized.

        Keyed by fingerprint and child order, so an object dag and its
        compiled form share one entry (and its warmed adjacency views),
        and a hit has exactly the CSR arrays of *dag*.  A compiled dag
        without a fingerprint passes through.  Compiled dags stay in
        memory only.
        """
        fingerprint = _fingerprint(dag)
        if fingerprint is None:
            return dag
        key = ("__compiled__", fingerprint, _child_order(dag))
        cached = self._memory_get(key)
        if cached is not None:
            self._count(hit=True)
            return cached
        compiled = as_compiled(dag)
        self._memory_put(key, compiled)
        self._count(hit=False)
        return compiled


def cached_schedule(
    dag: Dag | CompiledDag,
    algorithm: str = "prio",
    cache: ScheduleCache | None = None,
    **kwargs,
) -> list[int]:
    """The *algorithm* order for *dag* (either form), through *cache*
    when given.

    With ``cache=None`` this is exactly the direct compute path — the
    helper exists so call sites can thread an optional cache without
    branching.
    """
    if cache is not None:
        return cache.schedule(dag, algorithm, **kwargs)
    return list(_compute(algorithm)(dag, **kwargs))
