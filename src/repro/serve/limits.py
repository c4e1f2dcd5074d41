"""Admission control for the scheduling service.

Two mechanisms, both deliberately boring:

* :class:`ServiceLimits` — the static budget every request is held to:
  maximum body size (bytes), maximum concurrently-processing requests,
  an I/O deadline for reading a request off the socket (so a client that
  sends half a body and stalls cannot pin a connection open), and the
  :class:`~repro.robust.retry.RetryPolicy` that gives each request its
  processing deadline and transient-retry budget.
* :class:`InflightGate` — a counting gate with *try* semantics: a request
  either gets a slot immediately or is answered ``429 overloaded`` —
  the service never queues invisible work (queueing would just move the
  overload into memory).  The gate also knows how to *drain*: shutdown
  closes the listener, then awaits :meth:`InflightGate.drained` so every
  admitted request finishes before the process exits.

The gate is asyncio-single-threaded: all acquire/release happen on the
event loop, so a plain integer is race-free and cheaper than a lock.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..robust.retry import RetryPolicy

__all__ = ["ServiceLimits", "InflightGate", "WIRE_BYTES_PER_JOB"]

#: Body bytes each job of a wire dag is taken to cost.  A job's label and
#: arcs take 21-36 bytes in the labelled encoding of every registry
#: workload, but an isolated job costs none: ``{"n": 300000}`` is a
#: 60-byte body that asks for seconds of compute and a 2 MB answer.  So
#: a dag may declare at most ``max_body_bytes // WIRE_BYTES_PER_JOB``
#: jobs (262,144 at the 8 MiB default).
WIRE_BYTES_PER_JOB = 32


@dataclass(frozen=True)
class ServiceLimits:
    """Per-request budgets enforced by the server.

    ``max_inflight`` — concurrently processing requests before 429s.
    ``max_body_bytes`` — Content-Length ceiling (413 above it); it also
    bounds the ``n`` a wire dag may declare (:meth:`max_dag_jobs`).
    ``io_timeout`` — seconds allowed for reading the request head and
    body off the socket (a stalled or truncated client gets a 400, never
    a hung connection).
    ``retry`` — the :class:`~repro.robust.retry.RetryPolicy` applied to
    request processing: ``timeout`` is the per-request deadline (504 when
    exceeded), ``max_attempts``/``base_delay`` govern transient retries
    (and, for sharded dispatch, ``max_pool_rebuilds`` bounds how often a
    dead shard is respawned before it degrades to in-process compute).
    ``compute_threads`` — dedicated compute-pool size for local dispatch
    (``None`` = ``max_inflight``; see :meth:`compute_workers`).
    """

    max_inflight: int = 64
    max_body_bytes: int = 8 * 1024 * 1024
    io_timeout: float = 10.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=1, timeout=30.0)
    )
    compute_threads: int | None = None

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be at least 1")
        if self.io_timeout <= 0:
            raise ValueError("io_timeout must be positive")
        if self.compute_threads is not None and self.compute_threads < 1:
            raise ValueError("compute_threads must be at least 1 (or None)")

    def max_dag_jobs(self) -> int:
        """Largest ``n`` a wire dag may declare: the jobs a maximal body
        pays for at :data:`WIRE_BYTES_PER_JOB` bytes each (413 above
        it, before any ``Dag`` is built)."""
        return self.max_body_bytes // WIRE_BYTES_PER_JOB

    def compute_workers(self) -> int:
        """Size of the dedicated compute pool backing local dispatch.

        Defaults to ``max_inflight`` so an admitted request can never
        queue behind the pool — admission (and orphan accounting, which
        keeps a timed-out request's slot held until its thread actually
        finishes) is the single mechanism bounding concurrent compute.
        """
        if self.compute_threads is not None:
            return self.compute_threads
        return self.max_inflight


class InflightGate:
    """Bounded admission with try-acquire and drain-awaiting.

    ``async with gate:`` is not offered on purpose: admission must be
    able to *fail fast* (429) rather than wait, so the API is an explicit
    :meth:`try_acquire` / :meth:`release` pair — callers pair them in a
    ``try/finally`` so an exploding handler can never leak a slot.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def inflight(self) -> int:
        """Requests currently holding a slot."""
        return self._inflight

    def try_acquire(self) -> bool:
        """Take a slot if one is free; never waits."""
        if self._inflight >= self.capacity:
            return False
        self._inflight += 1
        self._idle.clear()
        return True

    def release(self) -> None:
        if self._inflight <= 0:
            raise RuntimeError("release without a matching acquire")
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    async def drained(self, timeout: float | None = None) -> bool:
        """Wait until no request holds a slot; False if *timeout* expired."""
        if timeout is None:
            await self._idle.wait()
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True
