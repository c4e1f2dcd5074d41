"""Byte-level mutations of ``/session`` and ``/advance`` bodies.

A valid body of each endpoint is mutated byte by byte — a slice dropped,
a slice duplicated, two bytes swapped, the tail truncated, one bit
flipped — and answered through :func:`compute_response` against a fresh
:class:`SessionStore`.  The outcome must be response bytes or a
:class:`ServeError` carrying a documented client-side code; any other
exception is a bug.

The dag has seven jobs and single-digit ids, and an example applies at
most two mutations of at most eight bytes each, so no mutation can grow
the dag's ``n`` past four digits: the property stays cheap.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.dag.io_json import dag_to_json
from repro.live.store import SessionStore
from repro.serve.dispatch import compute_response
from repro.serve.errors import ServeError
from repro.serve.protocol import encode

#: what a malformed request may answer; server-side codes would be bugs
CLIENT_CODES = {"bad_json", "invalid_request", "invalid_dag", "not_found",
                "conflict"}

DAG = Dag(
    7,
    [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 6)],
    labels=["a", "b", "c", "d", "e", "f", "g"],
)
SESSION_BODY = encode({"dag": dag_to_json(DAG), "name": "fuzz"})


def session_store() -> tuple[SessionStore, str]:
    """A fresh store holding the valid session, and its id."""
    store = SessionStore()
    created = compute_response("/session", SESSION_BODY, sessions=store)
    return store, json.loads(created)["session_id"]


_, SESSION_ID = session_store()
ADVANCE_BODY = encode(
    {
        "session": SESSION_ID,
        "seq": 1,
        "events": [
            {"kind": "complete", "job": 0},
            {"kind": "fail", "job": 1},
            {"kind": "complete", "job": 1},
        ],
    }
)


@st.composite
def mutated(draw, body: bytes) -> bytes:
    data = bytearray(body)
    for _ in range(draw(st.integers(1, 2))):
        if not data:
            break
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate",
                                   "flip"]))
        i = draw(st.integers(0, len(data) - 1))
        j = draw(st.integers(i + 1, min(len(data), i + 8)))
        if op == "drop":
            del data[i:j]
        elif op == "duplicate":
            data[j:j] = data[i:j]
        elif op == "swap":
            k = draw(st.integers(0, len(data) - 1))
            data[i], data[k] = data[k], data[i]
        elif op == "truncate":
            del data[i:]
        else:
            data[i] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


def outcome(path: str, body: bytes, store: SessionStore):
    try:
        return compute_response(path, body, sessions=store)
    except ServeError as exc:
        assert exc.code in CLIENT_CODES, (exc.code, exc.message, body)
        return exc.code


def test_the_valid_bodies_answer():
    store, session_id = session_store()
    assert session_id == SESSION_ID
    answer = json.loads(compute_response("/advance", ADVANCE_BODY,
                                         sessions=store))
    assert answer["seq"] == 1


@settings(max_examples=300)
@given(mutated(SESSION_BODY))
def test_mutated_session_body_answers_or_fails_typed(body):
    outcome("/session", body, SessionStore())


@settings(max_examples=300)
@given(mutated(ADVANCE_BODY))
def test_mutated_advance_body_answers_or_fails_typed(body):
    store, _ = session_store()
    outcome("/advance", body, store)
