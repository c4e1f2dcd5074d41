"""Shared machinery of the two workloads that go through the server.

Requests carry the bytes an in-process call produced before the timed
window (``expected``); every wire response is compared with them.  The
traced run replays the same request bodies in-process through
``compute_response`` -- the function the shard runs -- after routing
them the way the frontend does, and compares its bytes too.

Around each round's window the server's ``GET /metrics`` is read twice;
the difference gives the time its frontend spent handling the window's
requests (from reading the body to writing the reply).  Transport is
the client's send-to-reply time minus that: measured on its own, not
derived from the replay.  The shard computes one request at a time, so
a request sent while the other connection's is in flight waits for it;
the client's timestamps give that wait (``measure.overlap_wait``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass

from repro.serve.dispatch import compute_response
from repro.serve.shard import HashRing, routing_key

from measure import Workload, overlap_wait
from spans import paired_replay, spanner
from server import HttpConnection, ServerProcess


@dataclass(eq=False)
class Request:
    path: str
    body: bytes
    expected: bytes
    cls: str  # "fast", "slow", or "create" (timed, kept out of the series)
    work: int


class WireWorkload(Workload):
    wire = True
    uses_session_dir = False
    connections = 2

    def __init__(self, ctx):
        super().__init__(ctx)
        self.server: ServerProcess | None = None
        self.spawns = 0
        self.warm_requests: list[Request] = []
        self.response_digests: dict = {}  # id(request) -> sha256 of its bytes
        # Over all rounds' windows: ops, their send-to-reply seconds
        # ("wire_s"), how long they waited for each other ("wait_s"),
        # the frontend's handling seconds ("handled_s") and the shard's
        # cache counters.
        self.server_totals: Counter = Counter()
        self._conns: list[HttpConnection] = []

    # -- server lifecycle ----------------------------------------------

    def setup(self) -> float:
        """Spawn a server, wait for /healthz, run the warm-up pass."""
        self.close()
        self.spawns += 1
        workdir = self.ctx.workdir / f"server-{self.spawns}"
        self.server = ServerProcess(
            self.ctx.root, workdir,
            workdir / "sessions" if self.uses_session_dir else None,
        )
        started = self.server.start()
        began = time.perf_counter()
        asyncio.run(self._sequential(self.warm_requests))
        return started + time.perf_counter() - began

    async def _sequential(self, requests) -> None:
        conn = HttpConnection(self.server.host, self.server.port)
        try:
            for request in requests:
                await self._post(conn, request)
        finally:
            await conn.close()

    async def _post(self, conn: HttpConnection, request: Request) -> None:
        try:
            status, body = await conn.request("POST", request.path, request.body)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            self.fail(f"{request.path}: transport error {exc!r}")
            return
        self.response_digests[id(request)] = hashlib.sha256(body).hexdigest()
        if status != 200:
            self.fail(f"{request.path}: HTTP {status}: {body[:200]!r}")
        elif body != request.expected:
            self.fail(f"{request.path}: response bytes differ from in-process encode")

    async def send(self, conn_index: int, request: Request):
        await self._post(self._conns[conn_index], request)
        return request.cls, request.work

    async def load(self):
        """One round's timed requests over ``self._conns`` -> Window."""
        raise NotImplementedError

    async def _server_counts(self) -> dict:
        """The frontend's handling time of the workload's paths and the
        shard's cache counters so far, from ``GET /metrics``."""
        conn = HttpConnection(self.server.host, self.server.port)
        try:
            _, body = await conn.request("GET", "/metrics")
        finally:
            await conn.close()
        view = json.loads(body)
        timers = view["metrics"]["timers"]
        paths = {request.path for request in self.window_requests()}
        cache = (view.get("shards") or {}).get("0", {}).get("cache") or {}
        return {
            "handled_s": sum(timers.get(f"serve.latency.{path}", {}).get("total", 0.0)
                             for path in paths),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
        }

    def measure(self):
        async def run():
            before = await self._server_counts()
            self._conns = [
                HttpConnection(self.server.host, self.server.port)
                for _ in range(self.connections)
            ]
            try:
                window = await self.load()
            finally:
                for conn in self._conns:
                    await conn.close()
            after = await self._server_counts()
            for key in before:
                self.server_totals[key] += after[key] - before[key]
            self.server_totals["wire_s"] += sum(op.service for op in window.ops)
            self.server_totals["wait_s"] += overlap_wait(window.ops)
            self.server_totals["ops"] += len(window.ops)
            return window

        return asyncio.run(run())

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- results -------------------------------------------------------

    def digest(self) -> str:
        h = hashlib.sha256()
        for request in self.window_requests():
            h.update(self.response_digests.get(id(request), "missing").encode())
        return h.hexdigest()

    # -- in-process replay -----------------------------------------------

    def replay_state(self, label: str) -> dict:
        """Keyword arguments of ``compute_response`` for one replay."""
        raise NotImplementedError

    def replay(self, tracer, wraps):
        """Replay one round's request bodies in-process, routed as the
        frontend routes them and computed by ``compute_response`` as the
        shard computes them, against two fresh server states (one for
        the untraced and one for the traced run of each request), and
        assert the bytes equal the wire's."""
        states = {}
        for traced in (False, True):
            states[traced] = self.replay_state("traced" if traced else "untraced")
            for request in self.warm_requests:
                compute_response(request.path, request.body, **states[traced])
        ring = HashRing(1)

        def one(request, tracer):
            span = spanner(tracer)
            with span("serve.route"):
                ring.lookup(routing_key(request.path, request.body))
            with span("serve.compute"):
                body = compute_response(
                    request.path, request.body, **states[tracer is not None]
                )
            if body != request.expected:
                self.fail(f"replay {request.path}: bytes differ from the wire")
            return request.cls, request.work

        return paired_replay(self.window_requests(), one, tracer, wraps)

    def window_requests(self) -> list[Request]:
        raise NotImplementedError
