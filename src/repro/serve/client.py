"""A minimal stdlib client for the scheduling service.

``http.client`` plus the wire codec — no dependencies, usable from
tests, benchmarks and user scripts alike.  The client deliberately
exposes the raw response (status + bytes) next to the decoded payload:
the end-to-end suite's bit-identity assertions compare *bytes*, and any
convenience that re-serializes would hide exactly the bugs the contract
exists to catch.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass

from ..dag.graph import Dag
from ..dag.io_json import dag_to_json
from ..sim.engine import SimParams

__all__ = ["ServeClient", "ServeResponse"]


@dataclass(frozen=True)
class ServeResponse:
    """One HTTP exchange: status, raw body bytes, decoded payload."""

    status: int
    body: bytes

    @property
    def payload(self) -> dict:
        return json.loads(self.body.decode("utf-8"))

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def error_code(self) -> str | None:
        """The structured error code, or None on success."""
        if self.ok:
            return None
        return self.payload.get("error", {}).get("code")


class ServeClient:
    """Talk to a :class:`~repro.serve.app.PrioService` over HTTP/1.1.

    One persistent keep-alive connection per client instance; not
    thread-safe (use one client per thread — which is exactly what the
    concurrency tests do).
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> ServeResponse:
        """One exchange; transparently reconnects if the server closed."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(
                    method, path, body=body,
                    headers={"Content-Type": "application/json"}
                    if body is not None
                    else {},
                )
                response = conn.getresponse()
                data = response.read()
                return ServeResponse(response.status, data)
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def post_json(self, path: str, payload: dict) -> ServeResponse:
        return self.request(
            "POST", path, json.dumps(payload).encode("utf-8")
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> ServeResponse:
        return self.request("GET", "/healthz")

    def metrics(self) -> ServeResponse:
        return self.request("GET", "/metrics")

    def schedule(self, dag: Dag, algorithm: str = "prio") -> ServeResponse:
        body = {"dag": dag_to_json(dag), "algorithm": algorithm}
        return self.post_json("/schedule", body)

    def create_session(
        self, dag: Dag, *, name: str = "default"
    ) -> ServeResponse:
        body = {"dag": dag_to_json(dag), "name": name}
        return self.post_json("/session", body)

    def advance(self, session_id: str, seq: int, events: list) -> ServeResponse:
        return self.post_json(
            "/advance", {"session": session_id, "seq": seq, "events": events}
        )

    def get_session(self, session_id: str) -> ServeResponse:
        return self.request("GET", f"/session/{session_id}")

    def simulate(
        self,
        dag: Dag,
        params: SimParams,
        seed: int = 0,
        policy: str = "prio",
        replications: int = 1,
    ) -> ServeResponse:
        body = {
            "dag": dag_to_json(dag),
            "params": {"mu_bit": params.mu_bit, "mu_bs": params.mu_bs},
            "seed": seed,
            "policy": policy,
            "replications": replications,
        }
        extras = {
            "runtime_mean": params.runtime_mean,
            "runtime_std": params.runtime_std,
            "batch_size_dist": params.batch_size_dist,
            "failure_prob": params.failure_prob,
            "failure_time_fraction": params.failure_time_fraction,
            "straggler_prob": params.straggler_prob,
            "straggler_factor": params.straggler_factor,
            "rollover": params.rollover,
        }
        defaults = SimParams(mu_bit=params.mu_bit, mu_bs=params.mu_bs)
        for name, value in extras.items():
            if value != getattr(defaults, name):
                body["params"][name] = value
        return self.post_json("/simulate", body)
