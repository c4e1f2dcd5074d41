"""The dispatch layer: admission, deadlines and the compute core.

:mod:`repro.serve.app` owns the *transport* (sockets, HTTP parsing,
response writing); everything between "a request body arrived" and "here
are the canonical response bytes" lives here, behind the
:class:`Dispatcher` interface, so the compute side can cross a process
boundary (:class:`~repro.serve.shard.ShardedDispatcher`) without the
transport noticing.

The contract every implementation must keep:

* **admission** — a slot is taken from the :class:`~repro.serve.limits.
  InflightGate` before any work starts, or the request is answered
  ``429`` immediately;
* **deadline** — the :class:`~repro.robust.retry.RetryPolicy` from
  :class:`~repro.serve.limits.ServiceLimits` bounds each request
  (``504`` on expiry) and retries transient failures;
* **orphan accounting** — a request that blows its deadline may leave
  its computation running (a thread cannot be killed, a shard worker is
  mid-compute).  The in-flight slot is *kept held* until that orphaned
  work actually resolves, so ``max_inflight`` bounds genuinely
  concurrent compute, not just attached clients; the ``serve.orphaned``
  gauge exposes how much detached work is draining.
* **bytes** — the returned value is exactly
  ``encode(<payload builder>(...))`` from :mod:`repro.serve.protocol`;
  the transport writes it verbatim, which is what makes local and
  sharded responses byte-identical.

:func:`compute_response` is that last bullet as a plain synchronous
function — the single compute path shared by :class:`LocalDispatcher`
(in a worker thread) and the shard worker processes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import time

from ..live.session import SequenceError, SessionError
from ..live.store import SessionExists, SessionStore
from ..obs.metrics import MetricsRegistry
from ..robust.retry import retry_async
from . import errors, protocol
from .limits import InflightGate, ServiceLimits

__all__ = ["Dispatcher", "LocalDispatcher", "compute_response"]

log = logging.getLogger("repro.serve")


def compute_response(
    path: str,
    body: bytes,
    *,
    cache=None,
    sim_jobs: int = 1,
    retry=None,
    stall: float = 0.0,
    sessions: SessionStore | None = None,
) -> bytes:
    """Decode, validate, compute and canonically encode one request.

    This is the whole compute side of the service as a synchronous
    function of ``(path, body)`` plus configuration — no event loop, no
    sockets — so the exact same code runs in a local worker thread and
    in a shard worker process, and the bytes cannot diverge between the
    two.  Raises :class:`~repro.serve.errors.ServeError` for every
    documented failure.

    ``stall`` injects a deterministic per-request delay before the
    computation (load testing: it models a latency-bound backend the
    way :mod:`repro.robust.faults` models failing workers).

    ``sessions`` is the :class:`~repro.live.store.SessionStore` backing
    the live-rescheduling endpoints (``/session``, ``/advance``,
    ``GET /session/{id}``); the store is long-lived process state — the
    stateful exception in an otherwise pure request→bytes function.
    """
    if path.startswith("/session/"):
        # GET: the session id rides in the path, not the body.
        if sessions is None:
            raise errors.internal("session store not configured")
        session_id = path[len("/session/"):]
        summary = sessions.summary(session_id)
        if summary is None:
            raise errors.unknown_session(session_id)
        return protocol.encode(protocol.session_payload(summary))
    request = protocol.decode_body(body)
    if stall > 0.0:
        time.sleep(stall)
    if path == "/schedule":
        wire, algorithm = protocol.parse_schedule_request(request)
        payload = protocol.schedule_payload(wire, algorithm, cache=cache)
    elif path == "/session":
        if sessions is None:
            raise errors.internal("session store not configured")
        dag_payload, name = protocol.parse_session_request(request)
        try:
            session = sessions.create(dag_payload, name=name)
        except SessionExists as exc:
            raise errors.conflict(str(exc)) from None
        except SessionError as exc:
            raise errors.invalid_request(str(exc)) from None
        except ValueError as exc:
            raise errors.invalid_dag(str(exc)) from None
        payload = protocol.session_payload(session.state_summary())
    elif path == "/advance":
        if sessions is None:
            raise errors.internal("session store not configured")
        session_id, seq, events = protocol.parse_advance_request(request)
        try:
            delta = sessions.advance(session_id, events, seq=seq)
        except KeyError:
            raise errors.unknown_session(session_id) from None
        except SequenceError as exc:
            raise errors.conflict(str(exc)) from None
        except SessionError as exc:
            raise errors.invalid_request(str(exc)) from None
        payload = protocol.advance_payload(delta)
    elif path == "/simulate":
        sim = protocol.parse_simulate_request(request)
        try:
            payload = protocol.simulate_payload(
                sim.dag,
                sim.params,
                sim.seed,
                sim.policy,
                sim.replications,
                cache=cache,
                jobs=sim_jobs if sim.replications > 1 else 1,
                retry=retry if sim_jobs > 1 else None,
            )
        except (TypeError, ValueError) as exc:
            raise errors.invalid_request(
                f"simulation rejected the request: {exc}"
            ) from None
    else:  # the transport routes; this is defensive
        raise errors.not_found(path)
    return protocol.encode(payload)


class _OrphanedDeadline(Exception):
    """A deadline expired while the computation is still running.

    Internal control flow between a :class:`Dispatcher` implementation
    and :meth:`Dispatcher.dispatch`: the implementation has already
    registered a resolution callback, and the in-flight slot must stay
    held until it fires.
    """


class Dispatcher:
    """Admission + deadline + orphan bookkeeping around a compute backend.

    Subclasses implement :meth:`_compute` (and may raise
    :class:`_OrphanedDeadline` after arranging for
    :meth:`_orphan_resolved_threadsafe` to be called exactly once when
    the detached work finishes).
    """

    def __init__(
        self,
        *,
        cache=None,
        limits: ServiceLimits | None = None,
        metrics: MetricsRegistry | None = None,
        sim_jobs: int = 1,
        stall: float = 0.0,
        session_dir=None,
    ):
        if sim_jobs < 1:
            raise ValueError("sim_jobs must be at least 1")
        if stall < 0.0:
            raise ValueError("stall must be non-negative")
        self.cache = cache
        self.limits = limits if limits is not None else ServiceLimits()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sim_jobs = sim_jobs
        self.stall = stall
        #: directory for durable session checkpoints (None = in-memory
        #: sessions only; they die with the process/worker).
        self.session_dir = session_dir
        self.gate = InflightGate(self.limits.max_inflight)
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind to the serving loop; called by the transport before accept."""
        self._loop = asyncio.get_running_loop()

    async def drain(self) -> None:
        """Flush backend resources; called after the gate has drained."""

    # -- introspection -------------------------------------------------

    @property
    def orphaned(self) -> int:
        """Requests that timed out but whose compute is still running."""
        return int(self.metrics.gauge("serve.orphaned").value)

    def cache_stats(self) -> dict | None:
        """The ``cache`` section of ``GET /metrics`` (None when uncached)."""
        return self.cache.stats() if self.cache is not None else None

    async def shard_stats(self) -> dict | None:
        """Per-shard detail for ``GET /metrics`` (None for local dispatch)."""
        return None

    # -- the dispatch contract -----------------------------------------

    async def dispatch(self, path: str, body: bytes) -> bytes:
        """Admission-gated, deadline-bounded compute of one request."""
        if not self.gate.try_acquire():
            raise errors.overloaded(self.limits.max_inflight)
        self._observe_inflight()
        held = False
        try:
            return await self._compute(path, body)
        except _OrphanedDeadline:
            # The computation is detached but still running: its slot is
            # released by _orphan_resolved(), not here.
            held = True
            raise errors.deadline_exceeded(
                self.limits.retry.timeout
            ) from None
        except asyncio.TimeoutError:
            raise errors.deadline_exceeded(
                self.limits.retry.timeout
            ) from None
        finally:
            if not held:
                self._release_slot()

    async def _compute(self, path: str, body: bytes) -> bytes:
        raise NotImplementedError

    # -- slot and orphan bookkeeping (event-loop confined) -------------

    def _observe_inflight(self) -> None:
        self.metrics.gauge("serve.in_flight").set(self.gate.inflight)

    def _release_slot(self) -> None:
        self.gate.release()
        self._observe_inflight()

    def _orphan_began(self) -> None:
        gauge = self.metrics.gauge("serve.orphaned")
        gauge.set(gauge.value + 1)
        self.metrics.counter("serve.orphaned.total").inc()

    def _orphan_resolved(self) -> None:
        gauge = self.metrics.gauge("serve.orphaned")
        gauge.set(max(0.0, gauge.value - 1))
        self._release_slot()

    def _orphan_resolved_threadsafe(self) -> None:
        """Resolve one orphan from any thread; safe during teardown.

        The serving loop may already be closed when a long-orphaned
        computation finally finishes (the same shutdown race guarded in
        :meth:`repro.serve.app.ServerThread.stop`) — in that case there
        is nothing left to account to.
        """
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._orphan_resolved)
        except RuntimeError:
            pass  # loop closed mid-shutdown; the process is exiting


class LocalDispatcher(Dispatcher):
    """In-process dispatch: compute in a dedicated bounded thread pool.

    The pool is *dedicated* (never the loop's default executor) and
    *bounded* by ``ServiceLimits.compute_threads``: a request that blows
    its deadline leaves its thread running (an orphan), and because the
    orphan keeps its in-flight slot, admission — not the pool — is what
    bounds concurrent compute.  Repeated timeouts therefore saturate
    into clean ``429``s instead of invisibly starving a shared executor.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self.sessions = SessionStore(
            directory=self.session_dir, metrics=self.metrics
        )

    async def start(self) -> None:
        await super().start()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.limits.compute_workers(),
            thread_name_prefix="repro-serve-compute",
        )

    async def drain(self) -> None:
        if self._executor is not None:
            # The gate drained first, so no work (orphaned or admitted)
            # is outstanding; shutdown is immediate.
            self._executor.shutdown(wait=True)
            self._executor = None

    async def _compute(self, path: str, body: bytes) -> bytes:
        if self._executor is None:
            raise RuntimeError("dispatcher not started")
        last: concurrent.futures.Future | None = None

        def attempt():
            nonlocal last
            last = self._executor.submit(
                compute_response,
                path,
                body,
                cache=self.cache,
                sim_jobs=self.sim_jobs,
                retry=self.limits.retry,
                stall=self.stall,
                sessions=self.sessions,
            )
            return asyncio.wrap_future(last)

        try:
            return await retry_async(
                attempt,
                self.limits.retry,
                on_retry=lambda attempt_no, exc: self.metrics.counter(
                    "serve.retry"
                ).inc(),
            )
        except asyncio.TimeoutError:
            if last is not None and not last.done():
                # The thread is still computing: account the orphan and
                # release the slot only when it finishes.  (A queued
                # task that was successfully cancelled resolves the
                # callback immediately, so nothing leaks either way.)
                self._orphan_began()
                last.add_done_callback(
                    lambda _f: self._orphan_resolved_threadsafe()
                )
                raise _OrphanedDeadline from None
            raise
