"""Protocol robustness: every malformed input maps to its documented code.

The server's failure vocabulary (docs/API.md, "Serving") is asserted
here input class by input class — malformed JSON, non-object bodies,
cyclic "dags", oversized payloads, truncated bodies, unknown endpoints,
wrong methods, bad parameters — partly property-tested with the
hypothesis strategies the perf equivalence suite already uses.  After
every abuse the suite confirms the server still answers a well-formed
request and holds zero in-flight slots: the semaphore can never leak and
the server can never hang.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.dag.io_json import dag_to_json
from repro.serve.errors import ERROR_CODES, ServeError
from repro.serve.protocol import encode, schedule_payload
from repro.sim.engine import SimParams

from ..perf.strategies import dags, sim_params

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


def _raw_exchange(host: str, port: int, data: bytes, *,
                  shutdown_write: bool = False, timeout: float = 30.0) -> bytes:
    """Send raw bytes, optionally half-close, and read the full response."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            # Responses here are small; stop once the body is complete.
            blob = b"".join(chunks)
            if b"\r\n\r\n" in blob:
                head, _, body = blob.partition(b"\r\n\r\n")
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        if len(body) >= int(line.split(b":")[1]):
                            return blob
        return b"".join(chunks)


def _status_and_code(raw: bytes) -> tuple[int, str | None]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    try:
        code = json.loads(body.decode())["error"]["code"]
    except (ValueError, KeyError):
        code = None
    return status, code


def _post(host, port, path, body: bytes, **kwargs) -> bytes:
    request = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
        f"\r\nContent-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body
    return _raw_exchange(host, port, request, **kwargs)


def _assert_recovered(service, client):
    """After any abuse: zero slots held, and a real request still works."""
    assert service.gate.inflight == 0
    dag = Dag(3, [(0, 1), (1, 2)])
    response = client.schedule(dag)
    assert response.status == 200
    assert response.body == encode(schedule_payload(dag, "prio"))


# ----------------------------------------------------------------------
# Malformed JSON and shapes
# ----------------------------------------------------------------------


@PROPERTY
@given(garbage=st.binary(min_size=1, max_size=200).filter(
    lambda b: not b.strip().startswith((b"{", b"[", b'"'))))
def test_malformed_json_returns_bad_json(server, client, garbage):
    service, host, port = server
    status, code = _status_and_code(_post(host, port, "/schedule", garbage))
    assert (status, code) == (400, "bad_json")
    _assert_recovered(service, client)


@PROPERTY
@given(payload=st.one_of(
    st.integers(), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=3), st.text(max_size=20)))
def test_non_object_json_returns_invalid_request(server, client, payload):
    service, host, port = server
    body = json.dumps(payload).encode()
    status, code = _status_and_code(_post(host, port, "/simulate", body))
    assert (status, code) == (400, "invalid_request")
    _assert_recovered(service, client)


def test_missing_dag_field(client):
    response = client.post_json("/schedule", {"algorithm": "prio"})
    assert (response.status, response.error_code) == (400, "invalid_request")


@pytest.mark.parametrize(
    "arcs",
    [
        [[0, 1], [1, 0]],                    # 2-cycle
        [[0, 0]],                            # self-loop
        [[0, 1], [1, 2], [2, 0]],            # 3-cycle
    ],
)
def test_cyclic_dag_returns_invalid_dag(server, client, arcs):
    service, _, _ = server
    n = 1 + max(max(arc) for arc in arcs)
    payload = {"dag": {"format": "repro-dag-v1", "n": n, "arcs": arcs}}
    response = client.post_json("/schedule", payload)
    assert (response.status, response.error_code) == (400, "invalid_dag")
    _assert_recovered(service, client)


#: Every class of malformed dag payload; shared by the /schedule and
#: /session cases below — both endpoints parse the same way, so both
#: must answer the same structured 400.
MALFORMED_DAGS = [
    {"format": "wrong-format", "n": 1, "arcs": []},
    {"format": "repro-dag-v1", "n": "three", "arcs": []},
    {"format": "repro-dag-v1", "n": "3", "arcs": []},      # numeric string
    {"format": "repro-dag-v1", "n": 2.0, "arcs": []},      # float n
    {"format": "repro-dag-v1", "n": True, "arcs": []},     # bool n
    {"format": "repro-dag-v1", "n": 2, "arcs": [[0]]},
    {"format": "repro-dag-v1", "n": 2, "arcs": [["a", "b"]]},
    {"format": "repro-dag-v1", "n": 2, "arcs": [[True, 1]]},   # bool id
    {"format": "repro-dag-v1", "n": 2, "arcs": [[0.0, 1]]},    # float id
    {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 5]]},
    {"format": "repro-dag-v1", "n": 2, "arcs": [[1, 1]]},      # self-loop
    {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 1], [0, 1]]},  # dup arc
    {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 1], [1, 0]]},  # cycle
    {"format": "repro-dag-v1", "n": 2, "arcs": "not-a-list"},
    {"format": "repro-dag-v1", "n": 2, "arcs": [], "labels": [1, 2]},
    {"format": "repro-dag-v1", "n": 2, "arcs": [],
     "labels": ["a", "a"]},                                # duplicate ids
    {"format": "repro-dag-v1", "n": 2, "arcs": [],
     "labels": ["only-one"]},                              # label count
    "not-an-object",
    42,
]


@pytest.mark.parametrize("dag_payload", MALFORMED_DAGS)
def test_malformed_dag_payloads_return_invalid_dag(client, dag_payload):
    response = client.post_json("/schedule", {"dag": dag_payload})
    assert (response.status, response.error_code) == (400, "invalid_dag")


@pytest.mark.parametrize("dag_payload", MALFORMED_DAGS)
def test_malformed_session_dags_return_invalid_dag(server, client, dag_payload):
    """POST /session validates its dag with the same vocabulary — a bad
    dag in a session request is a structured 400, never a 500, and no
    session is created for it."""
    service, _, _ = server
    response = client.post_json("/session", {"dag": dag_payload})
    assert (response.status, response.error_code) == (400, "invalid_dag")
    _assert_recovered(service, client)


@PROPERTY
@given(dag=dags(max_n=8), params=sim_params())
def test_valid_generated_requests_succeed(server, client, dag, params):
    """The flip side: everything the strategies generate is accepted and
    served bit-identically (no over-rejection hiding under the 400s)."""
    service, _, _ = server
    response = client.schedule(dag)
    assert response.status == 200
    assert response.body == encode(
        schedule_payload(dag, "prio", cache=service.cache)
    )
    sim = client.simulate(dag, params, seed=5)
    assert sim.status == 200
    assert service.gate.inflight == 0


# ----------------------------------------------------------------------
# Bad request fields
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutation",
    [
        {"algorithm": "quantum"},
        {"kwargs": "not-an-object"},
        {"surprise": 1},
    ],
)
def test_bad_schedule_fields_return_invalid_request(client, mutation):
    body = {"dag": dag_to_json(Dag(2, [(0, 1)]))}
    body.update(mutation)
    response = client.post_json("/schedule", body)
    assert (response.status, response.error_code) == (400, "invalid_request")


def test_unknown_prio_kwargs_return_invalid_request(client, monkeypatch):
    # The request has no keyword field: any "kwargs" is an unknown field,
    # refused before prio runs, and a broken dag is still reported first.
    import repro.core.prio

    calls = []
    real = repro.core.prio.prio_schedule

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.core.prio, "prio_schedule", spy)
    dag = dag_to_json(Dag(6, [(0, 5), (1, 5), (2, 5), (3, 4)]))
    for kwargs in ({"exact_bipartite_limit": 64}, {"no_such_knob": True},
                   {}, "not-an-object"):
        body = {"dag": dag, "kwargs": kwargs}
        response = client.post_json("/schedule", body)
        assert (response.status, response.error_code) == (
            400, "invalid_request"
        )
        assert response.payload["error"]["message"] == (
            "unknown request fields: ['kwargs']"
        )
        body["dag"] = {"format": "repro-dag-v1", "n": 2,
                       "arcs": [[0, 1], [1, 0]]}
        response = client.post_json("/schedule", body)
        assert (response.status, response.error_code) == (400, "invalid_dag")
    assert calls == []
    assert client.post_json("/schedule", {"dag": dag}).status == 200
    assert len(calls) == 1  # the spy sees a request without the field


@pytest.mark.parametrize(
    "mutation",
    [
        {"params": {"mu_bit": -1.0, "mu_bs": 16.0}},
        {"params": {"mu_bit": 1.0}},
        {"params": {"mu_bit": 1.0, "mu_bs": 16.0, "warp": 9}},
        {"params": {"mu_bit": "fast", "mu_bs": 16.0}},
        {"params": None},
        {"seed": "zero"},
        {"seed": -3},
        {"seed": 1.5},
        {"policy": "psychic"},
        {"replications": 0},
        {"replications": "many"},
        {"extra_field": 1},
    ],
)
def test_bad_simulate_fields_return_invalid_request(client, mutation):
    body = {
        "dag": dag_to_json(Dag(2, [(0, 1)])),
        "params": {"mu_bit": 1.0, "mu_bs": 16.0},
        "seed": 0,
    }
    body.update(mutation)
    response = client.post_json("/simulate", body)
    assert (response.status, response.error_code) == (400, "invalid_request")


# ----------------------------------------------------------------------
# Transport-level abuse
# ----------------------------------------------------------------------


def test_oversized_payload_returns_413(server, client):
    service, host, port = server
    limit = service.limits.max_body_bytes
    body = b"x" * (limit + 1)
    status, code = _status_and_code(_post(host, port, "/schedule", body))
    assert (status, code) == (413, "payload_too_large")
    _assert_recovered(service, client)


def test_413_survives_a_client_that_sends_the_whole_body(server, client):
    """The server answers while the client is still sending.  Closing with
    the rest of the body unread makes the kernel reset the connection,
    which can destroy the answer; the server drains before it closes."""
    service, host, port = server
    body = b"x" * (service.limits.max_body_bytes + 1)
    request = (
        "POST /schedule HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(request)
        raw = b"".join(iter(lambda: sock.recv(65536), b""))
    assert _status_and_code(raw) == (413, "payload_too_large")
    _assert_recovered(service, client)


def test_oversized_content_length_rejected_without_reading_body(server, client):
    """A huge Content-Length is refused up front — the server never
    buffers the claimed body."""
    service, host, port = server
    request = (
        "POST /schedule HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {10**12}\r\n\r\n"
    ).encode()
    raw = _raw_exchange(host, port, request)
    assert _status_and_code(raw) == (413, "payload_too_large")
    _assert_recovered(service, client)


@PROPERTY
@given(fraction=st.floats(min_value=0.0, max_value=0.95))
def test_truncated_body_returns_400_and_never_hangs(server, client, fraction):
    service, host, port = server
    body = json.dumps(
        {"dag": dag_to_json(Dag(3, [(0, 1), (1, 2)]))}
    ).encode()
    sent = body[: int(len(body) * fraction)]
    request = (
        f"POST /schedule HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + sent
    raw = _raw_exchange(host, port, request, shutdown_write=True)
    assert _status_and_code(raw) == (400, "truncated_body")
    _assert_recovered(service, client)


def test_stalled_body_times_out_with_400(server, client):
    """A client that sends half a body then goes silent is cut off by the
    I/O deadline, not held open forever."""
    service, host, port = server
    request = (
        b"POST /schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
        b'{"dag":'
    )
    raw = _raw_exchange(host, port, request, timeout=30.0)
    assert _status_and_code(raw) == (400, "truncated_body")
    _assert_recovered(service, client)


def test_malformed_request_line_closes_with_400(server, client):
    service, host, port = server
    raw = _raw_exchange(host, port, b"COMPLETE GIBBERISH\r\n\r\n")
    assert _status_and_code(raw) == (400, "invalid_request")
    _assert_recovered(service, client)


def test_chunked_transfer_encoding_rejected(server, client):
    service, host, port = server
    request = (
        b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
    )
    raw = _raw_exchange(host, port, request)
    assert _status_and_code(raw) == (400, "invalid_request")
    _assert_recovered(service, client)


# ----------------------------------------------------------------------
# Header smuggling: conflicting framing headers are refused, never
# reconciled.  (Regression: the parser used to let a later duplicate
# silently overwrite an earlier one — two parsers disagreeing on which
# copy wins disagree on where the message ends.)
# ----------------------------------------------------------------------


def test_duplicate_content_length_rejected(server, client):
    """Two Content-Length headers — even *agreeing* ones — are a 400."""
    service, host, port = server
    body = b'{"x":1}'
    for second in (len(body), 2):  # agreeing and smuggling variants
        request = (
            f"POST /schedule HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Length: {second}\r\n"
            f"\r\n"
        ).encode() + body
        raw = _raw_exchange(host, port, request, shutdown_write=True)
        status, code = _status_and_code(raw)
        assert (status, code) == (400, "invalid_request"), raw
        payload = json.loads(raw.partition(b"\r\n\r\n")[2].decode())
        assert "duplicate content-length" in payload["error"]["message"]
    _assert_recovered(service, client)


def test_smuggled_second_content_length_never_resyncs_as_a_request(server):
    """The classic desync probe: a short second Content-Length that would
    leave attacker-controlled bytes in the buffer to be parsed as the
    *next* request.  The server must answer one 400 and close — the
    trailing bytes must never be interpreted as a pipelined request."""
    _, host, port = server
    smuggled = (
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    request = (
        b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: " + str(len(smuggled)).encode() + b"\r\n"
        b"Content-Length: 0\r\n"
        b"\r\n"
    ) + smuggled
    raw = _raw_exchange(host, port, request, shutdown_write=True)
    # Exactly one response came back (a 400), not a 400 + smuggled 200.
    assert raw.count(b"HTTP/1.1 ") == 1
    assert _status_and_code(raw) == (400, "invalid_request")


def test_duplicate_transfer_encoding_rejected(server, client):
    service, host, port = server
    request = (
        b"POST /schedule HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: identity\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
    )
    raw = _raw_exchange(host, port, request)
    status, code = _status_and_code(raw)
    assert (status, code) == (400, "invalid_request")
    payload = json.loads(raw.partition(b"\r\n\r\n")[2].decode())
    assert "duplicate transfer-encoding" in payload["error"]["message"]
    _assert_recovered(service, client)


def test_transfer_encoding_alongside_content_length_rejected(server, client):
    """TE + CL in one request is the other smuggling axis: refused even
    though neither header is duplicated."""
    service, host, port = server
    body = b'{"x":1}'
    request = (
        f"POST /schedule HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Transfer-Encoding: chunked\r\n\r\n"
    ).encode() + body
    raw = _raw_exchange(host, port, request, shutdown_write=True)
    status, code = _status_and_code(raw)
    assert (status, code) == (400, "invalid_request")
    payload = json.loads(raw.partition(b"\r\n\r\n")[2].decode())
    assert "Transfer-Encoding alongside Content-Length" in (
        payload["error"]["message"]
    )
    _assert_recovered(service, client)


def test_benign_duplicate_headers_are_combined_not_rejected(server, client):
    """Non-framing duplicates (e.g. Accept) are legal HTTP: they must be
    comma-combined, not 400'd — the smuggling defense is scoped to the
    framing headers only."""
    service, host, port = server
    body = json.dumps({"dag": dag_to_json(Dag(2, [(0, 1)]))}).encode()
    request = (
        f"POST /schedule HTTP/1.1\r\nHost: x\r\n"
        f"Accept: application/json\r\n"
        f"Accept: text/plain\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body
    raw = _raw_exchange(host, port, request)
    status, _ = _status_and_code(raw)
    assert status == 200
    _assert_recovered(service, client)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "path", ["/", "/schedule/extra", "/unknown", "/SCHEDULE", "/metrics2"]
)
def test_unknown_endpoints_return_404(client, path):
    response = client.request("GET", path)
    assert (response.status, response.error_code) == (404, "not_found")


@pytest.mark.parametrize(
    "method,path,allowed",
    [
        ("GET", "/schedule", "POST"),
        ("GET", "/simulate", "POST"),
        ("POST", "/healthz", "GET"),
        ("POST", "/metrics", "GET"),
        ("DELETE", "/schedule", "POST"),
    ],
)
def test_wrong_method_returns_405_with_allow(server, method, path, allowed):
    _, host, port = server
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0"
        f"\r\nConnection: close\r\n\r\n"
    ).encode()
    raw = _raw_exchange(host, port, request)
    status, code = _status_and_code(raw)
    assert (status, code) == (405, "method_not_allowed")
    head = raw.partition(b"\r\n\r\n")[0].decode().lower()
    assert f"allow: {allowed.lower()}" in head


def test_query_strings_are_ignored_for_routing(client):
    response = client.request("GET", "/healthz?probe=1")
    assert response.status == 200


# ----------------------------------------------------------------------
# Error vocabulary sanity
# ----------------------------------------------------------------------


def test_every_wire_error_code_is_documented():
    for code, status in ERROR_CODES.items():
        exc = ServeError(code, "x")
        assert exc.status == status
        assert exc.payload() == {"error": {"code": code, "message": "x"}}
    with pytest.raises(ValueError):
        ServeError("made_up_code", "x")


def test_no_traceback_ever_crosses_the_wire(server, client):
    """Abusive inputs produce only the structured error object —
    response bodies never contain a Python traceback."""
    _, host, port = server
    probes = [
        _post(host, port, "/schedule", b"\x00\xff\xfe"),
        _post(host, port, "/simulate", json.dumps(
            {"dag": {"format": "repro-dag-v1", "n": 1, "arcs": [[0, 0]]},
             "params": {"mu_bit": 1.0, "mu_bs": 1.0}}).encode()),
        _raw_exchange(host, port, b"BAD\r\n\r\n"),
    ]
    for raw in probes:
        body = raw.partition(b"\r\n\r\n")[2]
        assert b"Traceback" not in body
        assert b"repro/" not in body
        payload = json.loads(body.decode())
        assert set(payload) == {"error"}
        assert set(payload["error"]) == {"code", "message"}
