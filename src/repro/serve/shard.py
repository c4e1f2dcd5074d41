"""Sharded multi-process dispatch: one GIL per shard, one cache per shard.

A single asyncio process tops out when request *compute* — dag parsing,
fingerprinting, schedule lookup, simulation — saturates its GIL.  This
module crosses the process boundary while keeping every contract of the
in-process service:

* **Consistent hashing by dag identity.**  Requests are routed by the
  canonical JSON of their ``dag`` field — two requests describing the
  same dag (hence the same :meth:`~repro.dag.graph.Dag.fingerprint`)
  always land on the same shard, so each shard's
  :class:`~repro.perf.cache.ScheduleCache` LRU stays hot for *its* dags
  instead of every shard thrashing over all of them.  The
  :class:`HashRing` keeps the key→shard mapping stable when shards are
  added or removed (only ~1/N of keys move).
* **Bit-identity by construction.**  A shard worker runs exactly
  :func:`~repro.serve.dispatch.compute_response` — the same function
  local dispatch runs in a thread — and ships back the finished
  canonical bytes, which the frontend writes verbatim.  The per-shard
  caches cannot diverge responses because a cache can only change *when*
  a schedule is computed, never what it is.
* **Supervision via the robust machinery's vocabulary.**  The
  :class:`~repro.robust.retry.RetryPolicy` from
  :class:`~repro.serve.limits.ServiceLimits` gives every request its
  deadline and retry budget (:func:`~repro.robust.retry.retry_async`); a
  dead shard (worker process killed, OOM, crashed) fails its pending
  requests with :class:`ShardDied` — a retryable ``ConnectionError`` —
  and is respawned on the next request, mirroring the pool rebuilds of
  :func:`~repro.sim.parallel.iter_chunk_results`.  After
  ``RetryPolicy.max_pool_rebuilds`` respawns a shard is declared
  unhealthy and its requests degrade to in-process compute — slower,
  but the service keeps answering.
* **Graceful drain.**  :meth:`ShardedDispatcher.drain` (called after the
  in-flight gate has drained, so no request is outstanding) sends every
  worker a drain sentinel, joins it, and only then lets the process
  exit.

The parent's cache is pickled into each worker — and
:class:`~repro.perf.cache.ScheduleCache` pickles as *configuration
only*, so every shard starts with an empty LRU over the same shared
on-disk tier rather than a copy of the parent's memory.
"""

from __future__ import annotations

import asyncio
import bisect
import concurrent.futures
import hashlib
import itertools
import json
import logging
import multiprocessing
import threading

from ..robust.retry import retry_async
from . import errors
from .dispatch import Dispatcher, _OrphanedDeadline, compute_response
from .errors import ServeError

__all__ = [
    "HashRing",
    "ShardDied",
    "ShardedDispatcher",
    "dag_shard_key",
    "routing_key",
]

log = logging.getLogger("repro.serve.shard")


class ShardDied(ConnectionError):
    """A shard worker process died with requests outstanding.

    Subclasses :class:`ConnectionError` so the default ``retryable``
    predicate of :func:`~repro.robust.retry.retry_async` re-dispatches
    the request to the respawned worker within the retry budget.
    """


def dag_shard_key(body: bytes) -> bytes:
    """The routing key for a request body: its dag's canonical identity.

    Equal dags serialize to equal canonical JSON (sorted keys), so this
    groups requests exactly as hashing ``Dag.fingerprint()`` would —
    without the frontend paying full dag construction and validation,
    which is precisely the work sharding moves off the accept loop.
    Bodies without a usable ``dag`` field (malformed JSON, missing
    field) hash as raw bytes: any shard can produce their 400.
    """
    try:
        payload = json.loads(body)
    except ValueError:
        return body
    if not isinstance(payload, dict) or "dag" not in payload:
        return body
    try:
        return json.dumps(
            payload["dag"], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError):
        return body


def routing_key(path: str, body: bytes) -> bytes:
    """The consistent-hash key for one request.

    Session-family requests (``POST /session``, ``POST /advance``,
    ``GET /session/{id}``) route by the **session token** — the
    canonical-JSON hash of the dag payload that
    :func:`~repro.live.store.session_token` computes and that prefixes
    every session id — so a session's create, every advance, and every
    read land on the same shard, whose worker holds the live state.
    Everything else routes by :func:`dag_shard_key`.  A session request
    whose token cannot be extracted (malformed body, bad id shape)
    hashes deterministically on what it carried: any shard can produce
    its structured 400/404.
    """
    if path.startswith("/session/"):
        token = path[len("/session/"):].split(".", 1)[0]
        return b"session:" + token.encode("utf-8", "replace")
    if path in ("/session", "/advance"):
        try:
            payload = json.loads(body)
        except ValueError:
            return body
        if not isinstance(payload, dict):
            return body
        if path == "/session":
            if "dag" not in payload:
                return body
            try:
                from ..live.store import session_token

                token = session_token(payload["dag"])
            except (TypeError, ValueError):
                return body
        else:
            session_id = payload.get("session")
            if not isinstance(session_id, str):
                return body
            token = session_id.split(".", 1)[0]
        return b"session:" + token.encode("utf-8", "replace")
    return dag_shard_key(body)


class HashRing:
    """Consistent hashing: keys → shard indices, stable under resizing.

    ``replicas`` virtual nodes per shard are placed on a 2^64 ring at
    SHA-256-derived positions; a key maps to the first virtual node at
    or after its own position.  128 virtual nodes per shard keep the
    per-shard share of any realistic key population within a few
    percent of uniform.  Adding or removing one shard remaps only
    the keys adjacent to its virtual nodes (~1/N of the space), so a
    resized pool keeps most per-shard caches hot.
    """

    def __init__(self, shards: int, *, replicas: int = 128):
        if shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one replica per shard")
        self.shards = shards
        self.replicas = replicas
        points = []
        for shard in range(shards):
            for replica in range(replicas):
                digest = hashlib.sha256(
                    b"shard:%d:replica:%d" % (shard, replica)
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [owner for _, owner in points]

    def lookup(self, key: bytes) -> int:
        """The shard index owning *key*."""
        digest = hashlib.sha256(key).digest()
        position = int.from_bytes(digest[:8], "big")
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0
        return self._owners[index]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _shard_worker_main(
    conn, index, cache, sim_jobs, retry, stall, max_jobs, session_dir=None
) -> None:
    """A shard worker: serially serve framed requests until drained.

    Runs in a fresh (spawned) process.  *cache* arrives through
    :class:`~repro.perf.cache.ScheduleCache`'s config-only pickling, so
    this worker's LRU starts empty and warms on its own key subset.
    *session_dir* backs this worker's
    :class:`~repro.live.store.SessionStore`: sessions are routed here by
    token, and because every advance is checkpointed under that
    directory, a respawned worker recovers each of its sessions from
    disk with byte-identical state.
    Messages: ``("req", rid, path, body)`` → ``("res", rid, ok,
    payload)``; ``("stats", rid)`` → ``("stats", rid, dict)``;
    ``("drain",)`` ends the loop (every previously sent request has
    already been answered — the worker is serial).
    """
    import signal

    from ..live.store import SessionStore

    # The frontend owns interactive shutdown; a Ctrl-C aimed at the
    # parent must not kill workers mid-request.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    sessions = SessionStore(directory=session_dir)
    served = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # frontend went away; nothing left to answer
        kind = message[0]
        if kind == "drain":
            break
        if kind == "stats":
            stats = {
                "served": served,
                "cache": cache.stats() if cache is not None else None,
                "sessions": sessions.stats(),
            }
            try:
                conn.send(("stats", message[1], stats))
            except (BrokenPipeError, OSError):
                break
            continue
        _, rid, path, body = message
        served += 1
        try:
            response = compute_response(
                path,
                body,
                cache=cache,
                sim_jobs=sim_jobs,
                retry=retry,
                stall=stall,
                sessions=sessions,
                max_jobs=max_jobs,
            )
        except ServeError as exc:
            reply = ("err", rid, exc.code, exc.message, exc.headers)
        except BaseException:
            log.exception("shard %d: request %d failed", index, rid)
            reply = ("err", rid, "internal", "internal server error", {})
        else:
            reply = ("res", rid, True, response)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# Parent-side shard handle
# ----------------------------------------------------------------------


class _ShardHandle:
    """Frontend-side state for one worker: process, pipe, pending futures."""

    def __init__(self, index: int, dispatcher: "ShardedDispatcher"):
        self.index = index
        self.dispatcher = dispatcher
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.alive = False
        self.degraded = False
        self.restarts = 0
        self.pending: dict[int, asyncio.Future] = {}
        self.orphaned: set[int] = set()
        self.draining = False
        self._respawn_lock = asyncio.Lock()
        self._reader: threading.Thread | None = None
        # One sender thread per shard keeps Connection.send off the
        # event loop (a full pipe buffer blocks) while preserving
        # per-shard FIFO order.
        self._sender = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}-send"
        )

    # -- lifecycle -----------------------------------------------------

    def spawn(self) -> None:
        """Start (or restart) the worker process and its reader thread."""
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                self.index,
                self.dispatcher.cache,
                self.dispatcher.sim_jobs,
                self.dispatcher.limits.retry,
                self.dispatcher.stall,
                self.dispatcher.limits.max_dag_jobs(),
                self.dispatcher.session_dir,
            ),
            name=f"repro-serve-shard-{self.index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.alive = True
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn,),
            name=f"repro-shard-{self.index}-read",
            daemon=True,
        )
        self._reader.start()

    async def ensure_running(self) -> None:
        """Respawn a dead shard (pool rebuild) or mark it degraded."""
        if self.alive or self.degraded:
            return
        async with self._respawn_lock:
            if self.alive or self.degraded:
                return
            policy = self.dispatcher.limits.retry
            if self.restarts >= policy.max_pool_rebuilds:
                # Mirrors iter_chunk_results: past the rebuild budget the
                # pool is unhealthy; degrade to in-process compute.
                self.degraded = True
                self.dispatcher.metrics.counter(
                    f"serve.shard.{self.index}.degraded"
                ).inc()
                log.warning(
                    "shard %d exceeded %d rebuilds; degrading to "
                    "in-process compute",
                    self.index,
                    policy.max_pool_rebuilds,
                )
                return
            self.restarts += 1
            self.dispatcher.metrics.counter(
                f"serve.shard.{self.index}.restarts"
            ).inc()
            log.warning("respawning dead shard %d", self.index)
            await asyncio.get_running_loop().run_in_executor(None, self.spawn)

    async def drain(self) -> None:
        """Flush and stop the worker: drain sentinel, join, close."""
        self.draining = True
        loop = asyncio.get_running_loop()
        if self.conn is not None and self.alive:
            try:
                await loop.run_in_executor(
                    self._sender, self.conn.send, ("drain",)
                )
            except (OSError, ValueError):
                pass
        if self.process is not None:
            await loop.run_in_executor(None, lambda: self.process.join(10))
            if self.process.is_alive():  # pragma: no cover - hung worker
                self.process.terminate()
                await loop.run_in_executor(None, lambda: self.process.join(5))
        self.alive = False
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._sender.shutdown(wait=False)

    # -- request path --------------------------------------------------

    async def send(self, message) -> None:
        if not self.alive or self.conn is None:
            raise ShardDied(f"shard {self.index} is not running")
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._sender, self.conn.send, message)
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise ShardDied(
                f"shard {self.index} pipe closed while sending"
            ) from exc

    # -- reader thread -> event loop ----------------------------------

    def _read_loop(self, conn) -> None:
        """Pump worker replies onto the event loop until EOF."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            self._threadsafe(self._on_message, message)
        self._threadsafe(self._on_death, conn)

    def _threadsafe(self, callback, *args) -> None:
        """call_soon_threadsafe guarded against a closed/finished loop —
        the same shutdown race fixed in ServerThread.stop."""
        loop = self.dispatcher._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop already closed; shutdown is past accounting

    def _on_message(self, message) -> None:
        rid = message[1]
        future = self.pending.pop(rid, None)
        if rid in self.orphaned:
            # The client got its 504 long ago; the work has now actually
            # finished, so release the slot it was holding.
            self.orphaned.discard(rid)
            self.dispatcher._orphan_resolved()
            return
        if future is None or future.done():
            return
        kind = message[0]
        if kind == "res":
            future.set_result(message[3])
        elif kind == "err":
            _, _, code, text, headers = message
            future.set_exception(ServeError(code, text, headers=headers))
        elif kind == "stats":
            future.set_result(message[2])

    def _on_death(self, conn) -> None:
        """The worker's pipe reached EOF: fail pendings, free orphans."""
        if conn is not self.conn:
            return  # stale reader from a previous incarnation
        if not self.alive or self.draining:
            return  # orderly drain, not a death
        self.alive = False
        self.dispatcher.metrics.counter(
            f"serve.shard.{self.index}.deaths"
        ).inc()
        for rid, future in list(self.pending.items()):
            if not future.done():
                future.set_exception(
                    ShardDied(f"shard {self.index} died mid-request")
                )
        self.pending.clear()
        for _rid in list(self.orphaned):
            self.dispatcher._orphan_resolved()
        self.orphaned.clear()

    def stats(self) -> dict:
        return {
            "alive": self.alive,
            "degraded": self.degraded,
            "restarts": self.restarts,
            "pending": len(self.pending),
            "orphaned": len(self.orphaned),
        }


# ----------------------------------------------------------------------
# The sharded dispatcher
# ----------------------------------------------------------------------


class ShardedDispatcher(Dispatcher):
    """Consistent-hash requests across N scheduler worker processes.

    Same admission/deadline/orphan contract as
    :class:`~repro.serve.dispatch.LocalDispatcher`; the compute side is
    a pool of supervised worker processes, each owning a private
    :class:`~repro.perf.cache.ScheduleCache` over its stable key subset.
    """

    def __init__(self, *, shards: int, **kwargs):
        super().__init__(**kwargs)
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self.ring = HashRing(shards)
        self.handles = [_ShardHandle(i, self) for i in range(shards)]
        self._rid = itertools.count(1)
        self._fallback: concurrent.futures.ThreadPoolExecutor | None = None
        self._degraded_sessions = None  # lazy SessionStore, degraded path

    async def start(self) -> None:
        await super().start()
        loop = asyncio.get_running_loop()
        # Spawn everything first, then let the workers import in
        # parallel; the pipes buffer any requests that arrive early.
        await asyncio.gather(
            *(
                loop.run_in_executor(None, handle.spawn)
                for handle in self.handles
            )
        )
        self._fallback = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.limits.compute_workers(),
            thread_name_prefix="repro-serve-degraded",
        )

    async def drain(self) -> None:
        await asyncio.gather(*(handle.drain() for handle in self.handles))
        if self._fallback is not None:
            self._fallback.shutdown(wait=True)
            self._fallback = None

    # -- introspection -------------------------------------------------

    def cache_stats(self) -> dict | None:
        """Aggregate worker cache stats are fetched asynchronously by
        :meth:`shard_stats`; the frontend holds no cache of its own."""
        return None

    async def shard_stats(self, timeout: float = 2.0) -> dict:
        """Per-shard health + worker-reported counters for /metrics."""
        async def one(handle: _ShardHandle) -> dict:
            view = handle.stats()
            if not handle.alive:
                return view
            rid = next(self._rid)
            future = asyncio.get_running_loop().create_future()
            handle.pending[rid] = future
            try:
                await handle.send(("stats", rid))
                worker = await asyncio.wait_for(future, timeout)
                view.update(worker)
            except (asyncio.TimeoutError, ShardDied):
                handle.pending.pop(rid, None)
                view["stale"] = True
            return view

        results = await asyncio.gather(
            *(one(handle) for handle in self.handles)
        )
        return {str(i): view for i, view in enumerate(results)}

    # -- the compute hook ----------------------------------------------

    async def _compute(self, path: str, body: bytes) -> bytes:
        # One shard owns every key: skip parsing the body for one.
        index = (
            self.ring.lookup(routing_key(path, body)) if self.shards > 1 else 0
        )
        handle = self.handles[index]
        self.metrics.counter(f"serve.shard.{index}.requests").inc()
        last: tuple[int, asyncio.Future] | None = None

        async def attempt() -> bytes:
            nonlocal last
            await handle.ensure_running()
            if handle.degraded:
                return await self._compute_degraded(path, body)
            rid = next(self._rid)
            future = asyncio.get_running_loop().create_future()
            handle.pending[rid] = future
            last = (rid, future)
            try:
                await handle.send(("req", rid, path, body))
                return await future
            except asyncio.CancelledError:
                # Deadline (or drain) cancelled the wait; dispatch()
                # decides whether this becomes an orphan.
                raise
            except ShardDied:
                handle.pending.pop(rid, None)
                raise

        def on_retry(attempt_no, exc) -> None:
            self.metrics.counter("serve.retry").inc()
            self.metrics.counter(f"serve.shard.{index}.retries").inc()

        try:
            return await retry_async(
                lambda: attempt(), self.limits.retry, on_retry=on_retry
            )
        except asyncio.TimeoutError:
            # If the worker had already answered, _on_message popped the
            # rid; if it is still in pending, the worker is still
            # computing — keep the slot until its (discarded) answer
            # arrives.  (The future itself is cancelled by the deadline,
            # so only pending-membership can tell the two apart.)
            if last is not None and last[0] in handle.pending:
                rid = last[0]
                handle.pending.pop(rid, None)
                handle.orphaned.add(rid)
                self._orphan_began()
                raise _OrphanedDeadline from None
            raise
        except ShardDied as exc:
            # Retry budget exhausted while the shard stayed dead.
            raise errors.bad_gateway(
                f"scheduler shard {index} died mid-request; retry"
            ) from exc

    async def _compute_degraded(self, path: str, body: bytes) -> bytes:
        """In-process fallback for a shard past its rebuild budget.

        Session requests get a frontend-side store over the same
        checkpoint directory: with persistence on, the dead shard's
        sessions are recovered from disk and keep answering (the dead
        worker cannot race it — it is not running).
        """
        self.metrics.counter("serve.degraded_requests").inc()
        if self._degraded_sessions is None:
            from ..live.store import SessionStore

            self._degraded_sessions = SessionStore(
                directory=self.session_dir, metrics=self.metrics
            )
        return await asyncio.wrap_future(
            self._fallback.submit(
                compute_response,
                path,
                body,
                cache=None,
                sim_jobs=self.sim_jobs,
                retry=self.limits.retry,
                stall=self.stall,
                sessions=self._degraded_sessions,
                max_jobs=self.limits.max_dag_jobs(),
            )
        )
