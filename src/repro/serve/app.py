"""The scheduling service: asyncio JSON-over-HTTP, stdlib only.

:class:`PrioService` is the *transport*: it owns the sockets, HTTP/1.1
parsing, response writing and process lifecycle, and hands every decoded
request to a :class:`~repro.serve.dispatch.Dispatcher` — the
routing/admission/encoding core — which is where the compute happens:

* :class:`~repro.serve.dispatch.LocalDispatcher` (default) computes in a
  dedicated bounded thread pool inside this process;
* :class:`~repro.serve.shard.ShardedDispatcher` (``shards=N``)
  consistent-hashes requests by dag identity across N supervised
  scheduler worker processes, one GIL and one hot
  :class:`~repro.perf.cache.ScheduleCache` per shard.

Endpoints:

* ``POST /schedule`` — dag (JSON wire format) → priority order, served
  through the schedule cache;
* ``POST /simulate`` — dag + params + seed → one
  :class:`~repro.sim.engine.SimResult`, or (``replications > 1``) a
  metric-vector summary via the parallel executor;
* ``POST /session`` / ``POST /advance`` / ``GET /session/{id}`` — live
  rescheduling sessions (:mod:`repro.live`): create a stateful session
  over a dag, feed it event batches, read its state; sessions are
  routed by dag identity to one shard and (with ``session_dir``)
  survive shard respawn via fingerprinted checkpoints;
* ``GET /healthz`` — liveness (never gated, works under full load);
* ``GET /metrics`` — registry snapshot, latency percentiles, cache
  counters, in-flight and orphan gauges, per-shard health.

Operational contract:

* admission is a bounded in-flight gate — saturation answers ``429``
  immediately instead of queueing invisible work; a request that blows
  its deadline answers ``504`` but its slot stays held until the
  orphaned computation actually finishes, so ``max_inflight`` bounds
  real concurrent compute (``serve.orphaned`` gauges the detached work);
* every request runs under the limits'
  :class:`~repro.robust.retry.RetryPolicy`: its ``timeout`` is the
  per-request deadline (``504`` when blown), its attempt budget retries
  transient failures — including a shard that died mid-request;
* request bodies are size-capped (``413``) and read under an I/O
  deadline; conflicting framing headers (duplicate ``Content-Length``,
  or ``Content-Length`` next to ``Transfer-Encoding``) are rejected with
  a structured ``400`` rather than silently resolved — request smuggling
  is a parser disagreement, and this parser refuses to disagree with
  itself;
* failures are structured JSON error objects
  (:mod:`repro.serve.errors`) — never a traceback over the wire;
* ``SIGTERM``/``SIGINT`` drain gracefully: stop accepting, let every
  connection that has *started* a request finish it (only idle
  keep-alive connections are cancelled), flush orphaned work, then
  flush every shard and exit;
* responses are **bit-identical** to the in-process library calls in
  :mod:`repro.serve.protocol` — local and sharded dispatch both serve
  exactly ``encode(<payload builder>(...))``, nothing else.

The HTTP surface is deliberately minimal (HTTP/1.1, keep-alive,
``Content-Length`` bodies only) — enough for any stdlib/curl client
without pulling in a framework the container may not have.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time

from ..obs.metrics import MetricsRegistry
from ..perf.cache import ScheduleCache
from . import errors, protocol
from .dispatch import Dispatcher, LocalDispatcher
from .errors import ServeError
from .limits import ServiceLimits

__all__ = ["PrioService", "ServerThread"]

log = logging.getLogger("repro.serve")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    504: "Gateway Timeout",
}

#: Endpoint -> allowed method (routing + 405 Allow headers).
#: ``GET /session/{id}`` is the one prefix route, handled in _dispatch.
_ROUTES = {
    "/schedule": "POST",
    "/simulate": "POST",
    "/session": "POST",
    "/advance": "POST",
    "/healthz": "GET",
    "/metrics": "GET",
}

#: Endpoints handled by the dispatcher (gated compute).
_DISPATCHED = ("/schedule", "/simulate", "/session", "/advance")

#: Headers whose duplication changes message framing; a request carrying
#: conflicting copies is rejected outright (smuggling defense) instead of
#: letting a later value silently overwrite an earlier one.
_SINGLETON_HEADERS = ("content-length", "transfer-encoding")

#: Maximum request-head bytes (request line + headers).
_MAX_HEAD = 64 * 1024


class PrioService:
    """The service transport: sockets, HTTP, lifecycle, observation.

    Parameters
    ----------
    cache:
        :class:`~repro.perf.cache.ScheduleCache` serving ``/schedule``
        and warming compiled dags for ``/simulate``; ``None`` disables
        caching (every request recomputes — bit-identical, just slower).
        With ``shards``, each worker unpickles its own empty copy of the
        configuration (sharing any on-disk tier).
    limits:
        :class:`ServiceLimits`; defaults are production-sane.
    metrics:
        :class:`~repro.obs.metrics.MetricsRegistry` for the ``serve.*``
        instruments; created internally when omitted.  The cache's
        ``cache.*`` counters are routed into the same registry.
    sim_jobs:
        Worker processes for replication batches on ``/simulate``
        (results are bit-identical for any value).
    shards:
        ``0`` (default) dispatches in-process; ``N >= 1`` builds a
        :class:`~repro.serve.shard.ShardedDispatcher` over N scheduler
        worker processes.
    stall:
        Deterministic per-request compute delay in seconds (load
        testing; models a latency-bound backend).
    session_dir:
        Directory for durable live-session checkpoints (``/session`` /
        ``/advance``); ``None`` keeps sessions in memory only, where a
        shard respawn loses them.
    dispatcher:
        Explicit :class:`~repro.serve.dispatch.Dispatcher` instance,
        overriding ``shards``/``stall`` construction.
    telemetry:
        Optional :class:`~repro.obs.recorder.TelemetryRecorder`; one
        ``stage`` record per request (latency, status, error code).
    """

    def __init__(
        self,
        *,
        cache: ScheduleCache | None = None,
        limits: ServiceLimits | None = None,
        metrics: MetricsRegistry | None = None,
        sim_jobs: int = 1,
        shards: int = 0,
        stall: float = 0.0,
        session_dir=None,
        dispatcher: Dispatcher | None = None,
        telemetry=None,
    ):
        if sim_jobs < 1:
            raise ValueError("sim_jobs must be at least 1")
        if shards < 0:
            raise ValueError("shards must be non-negative")
        self.cache = cache
        self.limits = limits if limits is not None else ServiceLimits()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sim_jobs = sim_jobs
        self.telemetry = telemetry
        if cache is not None:
            cache.attach_metrics(self.metrics)
        if dispatcher is None:
            kwargs = dict(
                cache=cache,
                limits=self.limits,
                metrics=self.metrics,
                sim_jobs=sim_jobs,
                stall=stall,
                session_dir=session_dir,
            )
            if shards > 0:
                from .shard import ShardedDispatcher

                dispatcher = ShardedDispatcher(shards=shards, **kwargs)
            else:
                dispatcher = LocalDispatcher(**kwargs)
        self.dispatcher = dispatcher
        self.address: tuple[str, int] | None = None
        self.draining = False
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = None  # asyncio.Event, created on the serving loop
        #: connection task -> True while a request is being processed
        #: (read head through written response); False while idle in
        #: keep-alive.  Drain cancels only idle connections.
        self._conn_busy: dict[asyncio.Task, bool] = {}

    @property
    def gate(self):
        """The dispatcher's admission gate (tests and dashboards)."""
        return self.dispatcher.gate

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``self.address`` holds the real port."""
        self._shutdown = asyncio.Event()
        await self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=_MAX_HEAD
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    def request_shutdown(self) -> None:
        """Begin graceful drain (idempotent; safe from signal handlers)."""
        if self._shutdown is not None and not self._shutdown.is_set():
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown`, then drain and return.

        Drain order: stop accepting; cancel *idle* keep-alive
        connections but let every connection that has already started a
        request — even one still reading its body or waiting for
        admission — finish it and receive its response; wait for
        orphaned computations to resolve; flush every shard.
        """
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._shutdown.wait()
        self.draining = True
        self._server.close()
        await self._server.wait_closed()
        for task, busy in list(self._conn_busy.items()):
            if not busy:
                task.cancel()
        if self._conn_busy:
            # Busy connections finish their current request (bounded by
            # the I/O and processing deadlines) and then exit their
            # keep-alive loop because draining is set.  The grace bound
            # is belt-and-braces for a peer that stalls mid-response.
            grace = self.limits.io_timeout + (
                self.limits.retry.timeout or 0.0
            ) + 30.0
            _done, stragglers = await asyncio.wait(
                list(self._conn_busy), timeout=grace
            )
            for task in stragglers:  # pragma: no cover - pathological peer
                task.cancel()
            if stragglers:  # pragma: no cover
                await asyncio.gather(*stragglers, return_exceptions=True)
        await self.gate.drained()  # flush orphaned computations
        await self.dispatcher.drain()

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        install_signal_handlers: bool = False,
        ready=None,
    ) -> None:
        """Start, optionally wire SIGTERM/SIGINT to drain, serve, drain."""
        await self.start(host, port)
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-main thread or exotic platform
        if ready is not None:
            ready()
        await self.serve_until_shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_busy[task] = False
        self.metrics.counter("serve.connections").inc()
        try:
            await self._serve_connection(task, reader, writer)
        except asyncio.CancelledError:
            pass  # drain closing an idle keep-alive connection
        except Exception:  # pragma: no cover - defensive
            log.exception("connection handler failed")
        finally:
            self._conn_busy.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, task, reader, writer) -> None:
        keep_alive = True
        while keep_alive and not self.draining:
            self._conn_busy[task] = False
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), self.limits.io_timeout
                )
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    self._conn_busy[task] = True
                    await self._send_error(
                        reader, writer, errors.truncated_body(
                            "connection closed mid-request-head"
                        ), keep_alive=False,
                    )
                return  # clean close between requests
            except (asyncio.LimitOverrunError, ValueError):
                self._conn_busy[task] = True
                await self._send_error(
                    reader,
                    writer,
                    errors.payload_too_large(_MAX_HEAD, _MAX_HEAD),
                    keep_alive=False,
                )
                return
            except asyncio.TimeoutError:
                return  # idle keep-alive connection; close quietly
            except (ConnectionError, OSError):
                return
            # From here the request has started: drain must not cancel
            # this task until the response (or error) is written.
            self._conn_busy[task] = True
            keep_alive = await self._serve_request(head, reader, writer)

    async def _serve_request(self, head: bytes, reader, writer) -> bool:
        """Handle one parsed-head request; returns keep-alive."""
        started = time.perf_counter()
        method, path, keep_alive = "?", "?", True
        status = 500
        code = None
        try:
            # Head/body phase: a failure here (malformed request line,
            # conflicting framing headers, bad Content-Length, oversized
            # or truncated body) leaves the stream unsynchronized, so
            # the connection must close.
            try:
                method, path, headers, keep_alive = self._parse_head(head)
                body = await self._read_body(reader, headers)
            except ServeError as exc:
                keep_alive = False
                raise
            # Dispatch phase: the request was fully consumed; structured
            # failures are answered and the connection stays usable.
            payload = await self._dispatch(method, path, body)
            status = 200
            await self._send(writer, 200, payload, keep_alive=keep_alive)
        except ServeError as exc:
            status, code = exc.status, exc.code
            await self._send_error(reader, writer, exc, keep_alive=keep_alive)
        except (ConnectionError, OSError):
            return False
        except Exception:
            log.exception("unhandled error serving %s %s", method, path)
            status, code = 500, "internal"
            keep_alive = False
            await self._send_error(
                reader, writer, errors.internal(), keep_alive=False
            )
        self._observe(method, path, status, code, time.perf_counter() - started)
        return keep_alive and not self.draining

    def _parse_head(self, head: bytes):
        try:
            text = head.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            raise errors.invalid_request("malformed HTTP request line") from None
        if not version.startswith("HTTP/1."):
            raise errors.invalid_request(f"unsupported protocol {version!r}")
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise errors.invalid_request(f"malformed header line {line!r}")
            name = name.strip().lower()
            value = value.strip()
            if name in headers:
                # A repeated framing header is a smuggling vector: two
                # parsers that disagree on which copy wins disagree on
                # where the message ends.  Refuse, never reconcile.
                if name in _SINGLETON_HEADERS:
                    raise errors.invalid_request(
                        f"duplicate {name} header"
                    )
                headers[name] = f"{headers[name]}, {value}"
            else:
                headers[name] = value
        if "transfer-encoding" in headers and "content-length" in headers:
            raise errors.invalid_request(
                "Transfer-Encoding alongside Content-Length is not allowed"
            )
        path = target.split("?", 1)[0]
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and not version.endswith("/1.0")
        return method.upper(), path, headers, keep_alive

    async def _read_body(self, reader, headers) -> bytes:
        if "transfer-encoding" in headers:
            raise errors.invalid_request(
                "chunked bodies are not supported; send Content-Length"
            )
        raw = headers.get("content-length", "0")
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            raise errors.invalid_request(
                f"invalid Content-Length {raw!r}"
            ) from None
        if length > self.limits.max_body_bytes:
            raise errors.payload_too_large(length, self.limits.max_body_bytes)
        if length == 0:
            return b""
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), self.limits.io_timeout
            )
        except asyncio.IncompleteReadError as exc:
            raise errors.truncated_body(
                f"request body ended after {len(exc.partial)} of "
                f"{length} bytes"
            ) from None
        except asyncio.TimeoutError:
            raise errors.truncated_body(
                f"request body not received within {self.limits.io_timeout:g}s"
            ) from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes) -> bytes:
        allowed = _ROUTES.get(path)
        if allowed is None and path.startswith("/session/"):
            allowed = "GET"  # GET /session/{id}: session state lookup
        if allowed is None:
            raise errors.not_found(path)
        if method != allowed:
            raise errors.method_not_allowed(method, path, allowed)
        if path == "/healthz":
            return protocol.encode(self._health_payload())
        if path == "/metrics":
            return protocol.encode(await self._metrics_payload())
        return await self.dispatcher.dispatch(path, body)

    def _health_payload(self) -> dict:
        return {
            "format": protocol.WIRE_FORMAT,
            "kind": "health",
            "status": "ok",
            "draining": self.draining,
        }

    async def _metrics_payload(self) -> dict:
        latency = {}
        for path in _DISPATCHED:
            timer = self.metrics.timer(f"serve.latency.{path}")
            if timer.count:
                latency[path] = {
                    "p50": timer.quantile(0.5),
                    "p95": timer.quantile(0.95),
                    "mean": timer.mean,
                    "count": timer.count,
                }
        return {
            "format": protocol.WIRE_FORMAT,
            "kind": "metrics",
            "metrics": self.metrics.snapshot(),
            "latency": latency,
            "cache": self.dispatcher.cache_stats(),
            "in_flight": self.gate.inflight,
            "orphaned": self.dispatcher.orphaned,
            "shards": await self.dispatcher.shard_stats(),
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    # Response writing and accounting
    # ------------------------------------------------------------------

    async def _send(self, writer, status, body: bytes, *,
                    keep_alive: bool, headers: dict | None = None) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()

    async def _send_error(self, reader, writer, exc: ServeError, *,
                          keep_alive: bool) -> None:
        try:
            await self._send(
                writer,
                exc.status,
                protocol.encode(exc.payload()),
                keep_alive=keep_alive,
                headers=exc.headers,
            )
            if not keep_alive:
                await self._linger(reader, writer)
        except (ConnectionError, OSError):
            pass  # client is already gone

    async def _linger(self, reader, writer) -> None:
        """Half-close, then discard what the client still sends, up to one
        more maximal request or ``io_timeout``.  Closing a socket with
        unread bytes in it makes the kernel reset the connection, and the
        reset can destroy the error response before the client reads it
        (a client still sending an oversized body, say)."""
        if writer.can_write_eof():
            writer.write_eof()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.limits.io_timeout
        budget = self.limits.max_body_bytes + _MAX_HEAD
        try:
            while budget > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(budget, 65536)), deadline - loop.time()
                )
                if not chunk:
                    return
                budget -= len(chunk)
        except asyncio.TimeoutError:
            pass

    def _observe(self, method, path, status, code, seconds) -> None:
        self.metrics.counter("serve.requests").inc()
        if path in _ROUTES:
            self.metrics.counter(f"serve.requests.{path}").inc()
            self.metrics.timer(f"serve.latency.{path}").add(seconds)
        self.metrics.counter(f"serve.responses.{status}").inc()
        if code is not None:
            self.metrics.counter(f"serve.errors.{code}").inc()
        if self.telemetry is not None:
            self.telemetry.stage(
                f"request:{path}", seconds,
                method=method, status=status,
                **({"error_code": code} if code else {}),
            )


class ServerThread:
    """Run a :class:`PrioService` on a background thread (tests, benches,
    embedding in synchronous programs).

    ``with ServerThread(service) as (host, port): ...`` starts the real
    server on an ephemeral port and guarantees a graceful drain on exit.
    ``ServerThread(shards=4)`` is shorthand for wrapping a fresh sharded
    :class:`PrioService`.
    """

    def __init__(self, service: PrioService | None = None, *,
                 host: str = "127.0.0.1", port: int = 0, shards: int = 0):
        if service is not None and shards:
            raise ValueError("pass shards= only when ServerThread builds "
                             "the service")
        self.service = (
            service if service is not None else PrioService(shards=shards)
        )
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise RuntimeError("server failed to start within 120s")
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        return self.service.address

    def _main(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            await self.service.run(
                self.host, self.port, ready=self._ready.set
            )

        try:
            asyncio.run(body())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failure = exc
            self._ready.set()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain and join; idempotent, and safe against the loop
        finishing (or closing) between the liveness check and the
        cross-thread signal."""
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.service.request_shutdown)
            except RuntimeError:
                # The loop completed (or closed) after the is_alive()
                # check — the thread is already on its way out; joining
                # below is all that is left to do.
                pass
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - hung drain
            raise RuntimeError("server thread did not stop in time")
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
