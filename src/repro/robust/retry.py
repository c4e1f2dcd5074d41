"""Retry with exponential backoff, progress deadlines and graceful
degradation for worker-pool chunk execution.

The sweep experiments fan replication chunks out over a
``ProcessPoolExecutor``; at production scale a worker is eventually
OOM-killed, a chunk hangs on a sick node, or the pool's machinery itself
breaks.  :class:`RetryPolicy` says how hard to fight, and the one pool
loop, :func:`repro.sim.parallel.iter_chunk_results`, applies it as its
error path (every chunk runs through :func:`_invoke`), so one bad chunk
cannot sink hours of completed work:

* every chunk failure (a worker exception) is retried with exponential
  backoff up to ``RetryPolicy.max_attempts`` times;
* a progress deadline (``RetryPolicy.timeout``) declares the pool hung
  when **no** chunk completes within it; the pool is torn down, rebuilt,
  and the in-flight chunks resubmitted — likewise on
  ``BrokenProcessPool`` (a worker died hard).  Only in-flight chunks
  are charged an attempt: the loop holds a bounded window of pulled
  chunks, and chunks still in the task iterator were never attempted;
* after ``max_pool_rebuilds`` rebuilds the pool is declared unhealthy:
  the in-flight chunks, then every remaining task, run serially in the
  parent process — slow, but the batch completes;
* a chunk that exhausts its pool attempts gets one final in-process
  attempt before its failure is allowed to propagate.

None of this can change results: chunks are pure functions of their
submitted arguments (each replication depends only on its own
``SeedSequence``), so re-running a chunk — in a new pool or in-process —
is bit-identical to the first attempt.  Recovery actions are counted in
an optional :class:`~repro.obs.metrics.MetricsRegistry` under
``robust.retry``, ``robust.timeout``, ``robust.pool_rebuild`` and
``robust.degraded_serial``.

:class:`~repro.robust.faults.FaultPlan` hooks into the same loop to
*inject* failures deterministically — the test suite and the CI chaos
job drive every path above on purpose.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .faults import InjectedFault

__all__ = ["RetryPolicy", "retry_async"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for a chunk before giving up on the pool.

    ``max_attempts`` — pool attempts per chunk before the final
    in-process attempt.  ``base_delay``/``max_delay`` — exponential
    backoff between attempts: ``min(max_delay, base_delay * 2**n)``.
    ``timeout`` — progress deadline in seconds: if no chunk completes
    within it the pool is declared hung and rebuilt (``None`` disables;
    set it above the worst-case chunk runtime).  ``max_pool_rebuilds`` —
    rebuilds tolerated before the pool is declared unhealthy and the
    in-flight and remaining chunks run serially in-process.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    timeout: float | None = None
    max_pool_rebuilds: int = 2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (counting from 0)."""
        return min(self.max_delay, self.base_delay * (2.0 ** attempt))


def _default_retryable(exc: BaseException) -> bool:
    """Transient by default: I/O trouble and broken pools, never logic bugs."""
    return isinstance(exc, (OSError, BrokenProcessPool))


async def retry_async(factory, policy: RetryPolicy | None = None, *,
                      retryable=None, on_retry=None):
    """Await ``factory()`` under *policy*'s deadline/retry contract.

    Each attempt awaits a **fresh** awaitable from *factory* with
    ``policy.timeout`` as its deadline (``None`` = no deadline).  A
    deadline expiry raises :class:`asyncio.TimeoutError` immediately — a
    deadline is a promise to the caller, not a transient to paper over.
    Failures for which ``retryable(exc)`` is true (default: ``OSError``
    and ``BrokenProcessPool``) are retried with ``policy.delay`` backoff
    up to ``policy.max_attempts`` total attempts; anything else — and the
    last retryable failure — propagates unchanged.  ``on_retry(attempt,
    exc)`` is called before each backoff sleep (metrics hooks).

    This is the single-call analogue of the pool loop's error path in
    :func:`~repro.sim.parallel.iter_chunk_results`: the service layer
    wraps each request handler with it so one :class:`RetryPolicy`
    describes both batch and request semantics.
    """
    policy = policy if policy is not None else RetryPolicy(max_attempts=1)
    retryable = retryable if retryable is not None else _default_retryable
    for attempt in range(policy.max_attempts):
        try:
            awaitable = factory()
            if policy.timeout is not None:
                return await asyncio.wait_for(awaitable, policy.timeout)
            return await awaitable
        except (asyncio.TimeoutError, asyncio.CancelledError):
            raise
        except Exception as exc:
            if attempt + 1 >= policy.max_attempts or not retryable(exc):
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            await asyncio.sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _invoke(fn, args, spec, in_worker: bool = True):
    """Run one chunk, applying an injected fault first when scheduled.

    Module-level so it is picklable under every start method.  A
    ``kill`` fault exits the worker process hard (the parent sees
    ``BrokenProcessPool``); outside a worker it raises instead, so a
    fault plan can never take the parent down.
    """
    if spec is not None:
        kind, value = spec
        if kind == "delay":
            time.sleep(value)
        elif kind == "fail":
            raise InjectedFault("injected chunk failure")
        elif kind == "kill":
            if in_worker:
                os._exit(17)
            raise InjectedFault("injected worker kill (outside a worker)")
        else:  # pragma: no cover - FaultPlan cannot produce other kinds
            raise ValueError(f"unknown fault kind {kind!r}")
    return fn(*args)
