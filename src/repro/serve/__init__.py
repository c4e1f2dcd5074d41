"""The scheduling service: the prio stack as a long-running network daemon.

The paper's ``prio`` tool runs once per workflow; the ROADMAP's
production-scale north star needs the same machinery resident behind a
socket, amortizing schedule computation across millions of requests.
This package is that daemon — stdlib-only asyncio JSON-over-HTTP:

* :class:`~repro.serve.app.PrioService` — the transport: ``POST
  /schedule``, ``POST /simulate``, ``GET /healthz``, ``GET /metrics``;
  request size limits, structured error responses and graceful SIGTERM
  drain.
* :mod:`~repro.serve.dispatch` — the :class:`Dispatcher` interface
  behind the transport: bounded in-flight admission with 429
  backpressure, per-request deadlines via
  :class:`~repro.robust.retry.RetryPolicy`, orphan accounting for work
  that outlives its 504, and :func:`compute_response` — the single
  synchronous compute path every backend runs.
* :mod:`~repro.serve.shard` — :class:`ShardedDispatcher`: consistent-
  hash requests by dag identity across N supervised scheduler worker
  processes (``prio serve --shards N``), one GIL and one hot schedule
  cache per shard, byte-identical responses.
* :mod:`~repro.serve.protocol` — the wire codec **and** the in-process
  reference implementations; the server serves exactly
  ``encode(schedule_payload(...))``, which is what makes the bit-identity
  contract (HTTP result == library result, byte for byte) testable.
* :mod:`~repro.serve.limits` — :class:`ServiceLimits` and the in-flight
  gate.
* :mod:`~repro.serve.errors` — the documented error-code vocabulary.
* :class:`~repro.serve.app.ServerThread` — run the real server on a
  background thread (how the end-to-end suite and the serve benchmark
  boot it).
* :class:`~repro.serve.client.ServeClient` — a minimal stdlib
  ``http.client`` wrapper for talking to the service.

CLI: ``prio serve --host --port --cache-dir --max-inflight --shards
--telemetry``.
"""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".app": ("PrioService", "ServerThread"),
    ".client": ("ServeClient",),
    ".dispatch": ("Dispatcher", "LocalDispatcher", "compute_response"),
    ".errors": ("ERROR_CODES", "ServeError"),
    ".limits": ("InflightGate", "ServiceLimits"),
    ".protocol": (
        "WIRE_FORMAT",
        "encode",
        "schedule_payload",
        "simulate_payload",
    ),
    ".shard": ("HashRing", "ShardedDispatcher", "dag_shard_key"),
})

__all__ = [
    "ERROR_CODES",
    "Dispatcher",
    "HashRing",
    "InflightGate",
    "LocalDispatcher",
    "PrioService",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "ServiceLimits",
    "ShardedDispatcher",
    "WIRE_FORMAT",
    "compute_response",
    "dag_shard_key",
    "encode",
    "schedule_payload",
    "simulate_payload",
]
