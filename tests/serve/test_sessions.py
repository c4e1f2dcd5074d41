"""The live-rescheduling endpoints over the real wire.

``POST /session`` / ``POST /advance`` / ``GET /session/{id}`` against a
real server: lifecycle, the full error vocabulary (404 unknown, 409
conflicts, 400 bad events), idempotent sequence replay byte-identity,
shard affinity of a session's whole request family, and — the chaos
contract — a SIGKILLed shard whose respawned worker answers the next
advance from the durable checkpoint exactly as an unkilled twin would.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.core.prio import prio_schedule
from repro.core.rescheduling import reprioritize_remnant
from repro.dag.graph import Dag
from repro.dag.io_json import dag_to_json
from repro.live.store import SessionStore, session_token
from repro.serve.app import PrioService, ServerThread
from repro.serve.client import ServeClient
from repro.serve.protocol import encode, session_payload
from repro.serve.shard import routing_key
from repro.workloads.registry import get_workload

from .conftest import make_limits

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)


@pytest.fixture(scope="module")
def dag() -> Dag:
    return get_workload("airsn-small")


def by_priority(payload: dict) -> list[int]:
    prios = payload["priorities"]
    return sorted(range(len(prios)), key=lambda u: -prios[u])


# ----------------------------------------------------------------------
# Local dispatch: lifecycle and error vocabulary
# ----------------------------------------------------------------------


class TestLocalSessions:
    @pytest.fixture(scope="class")
    def server(self):
        service = PrioService(limits=make_limits())
        with ServerThread(service) as (host, port):
            yield service, host, port

    @pytest.fixture
    def client(self, server):
        _, host, port = server
        with ServeClient(host, port, timeout=30.0) as c:
            yield c

    def test_full_lifecycle(self, server, client, dag):
        service, _, _ = server
        created = client.create_session(dag, name="lifecycle")
        assert created.status == 200
        sid = created.payload["session_id"]
        assert sid == f"{session_token(dag_to_json(dag))}.lifecycle"
        assert created.payload["seq"] == 0
        assert created.payload["priorities"] == (
            prio_schedule(dag).priorities
        )
        # Create is byte-identical to the in-process payload builder.
        summary = service.dispatcher.sessions.summary(sid)
        assert created.body == encode(session_payload(summary))

        order = by_priority(created.payload)
        first = client.advance(sid, 1, [
            {"kind": "complete", "job": order[0]},
            {"kind": "fail", "job": order[1]},
        ])
        assert first.status == 200
        assert first.payload["recompute"] == "incremental"
        oracle = reprioritize_remnant(dag, {order[0]})
        got = client.get_session(sid)
        assert got.status == 200
        assert got.payload["seq"] == 1
        assert got.payload["priorities"] == oracle.priorities
        assert got.payload["remnant_fingerprint"] == (
            oracle.remnant.fingerprint()
        )
        assert got.payload["failed"] == [order[1]]

        # Failure-only batches skip recompute entirely.
        second = client.advance(
            sid, 2, [{"kind": "straggler_timeout", "job": order[1]}]
        )
        assert second.payload["recompute"] == "skipped"
        assert second.payload["changed"] == {}

    def test_idempotent_seq_replay_is_byte_identical(self, client, dag):
        sid = client.create_session(dag, name="replay").payload["session_id"]
        job = by_priority(client.get_session(sid).payload)[0]
        events = [{"kind": "complete", "job": job}]
        first = client.advance(sid, 1, events)
        assert first.status == 200
        retried = client.advance(sid, 1, events)
        assert retried.body == first.body

    def test_error_vocabulary(self, client, dag):
        sid = client.create_session(dag, name="errors").payload["session_id"]
        # Duplicate create → 409 conflict.
        dup = client.create_session(dag, name="errors")
        assert (dup.status, dup.error_code) == (409, "conflict")
        # Out-of-sequence advance → 409 conflict.
        stale = client.advance(sid, 7, [])
        assert (stale.status, stale.error_code) == (409, "conflict")
        # Unknown session → 404 on both advance and GET.
        ghost = "f" * 16 + ".ghost"
        assert client.advance(ghost, 1, []).status == 404
        missing = client.get_session(ghost)
        assert (missing.status, missing.error_code) == (404, "not_found")
        # Malformed events → 400 invalid_request, session untouched.
        bad = client.advance(sid, 1, [{"kind": "explode", "job": 0}])
        assert (bad.status, bad.error_code) == (400, "invalid_request")
        # Closure violation → 400, and the batch left no trace.
        sink = next(
            u for u in range(dag.n) if dag.is_sink(u) and dag.in_degree(u)
        )
        closure = client.advance(sid, 1, [{"kind": "complete", "job": sink}])
        assert (closure.status, closure.error_code) == (400,
                                                        "invalid_request")
        assert client.get_session(sid).payload["seq"] == 0

    def test_bad_session_requests(self, client, dag):
        wire = dag_to_json(dag)
        bad_name = client.post_json("/session", {"dag": wire, "name": "a/b"})
        assert (bad_name.status, bad_name.error_code) == (400,
                                                          "invalid_request")
        mode = client.post_json(
            "/session", {"dag": wire, "name": "m", "mode": "incremental"}
        )
        assert (mode.status, mode.error_code) == (400, "invalid_request")
        assert "unknown request fields" in mode.payload["error"]["message"]
        extra = client.post_json(
            "/session", {"dag": wire, "name": "x", "surprise": 1}
        )
        assert (extra.status, extra.error_code) == (400, "invalid_request")
        no_seq = client.post_json(
            "/advance", {"session": "f" * 16 + ".x", "events": []}
        )
        assert (no_seq.status, no_seq.error_code) == (400, "invalid_request")


# ----------------------------------------------------------------------
# Routing: one session, one shard
# ----------------------------------------------------------------------


def test_session_family_routes_identically(dag):
    wire = dag_to_json(dag)
    token = session_token(wire)
    sid = f"{token}.run"
    create = json.dumps({"dag": wire, "name": "run"}).encode()
    advance = json.dumps(
        {"session": sid, "seq": 1,
         "events": [{"kind": "complete", "job": 0}]}
    ).encode()
    keys = {
        routing_key("/session", create),
        routing_key("/advance", advance),
        routing_key(f"/session/{sid}", b""),
        routing_key(f"/session/{token}.other-name", b""),
    }
    assert keys == {b"session:" + token.encode()}


# ----------------------------------------------------------------------
# Sharded dispatch: kill a shard mid-session, recover byte-identically
# ----------------------------------------------------------------------


class TestShardedSessions:
    def test_killed_shard_recovers_session_byte_identically(
        self, tmp_path, dag
    ):
        events1 = None  # filled below; shared with the unkilled twin
        order = None

        # The unkilled twin: same dag, same events, no fault.  Its
        # advance bytes are the recovery target.
        twin = SessionStore(directory=tmp_path / "twin")
        twin_session = twin.create(dag_to_json(dag), name="chaos")
        order = sorted(
            range(dag.n), key=lambda u: -twin_session.priorities[u]
        )
        events1 = [{"kind": "complete", "job": order[0]}]
        events2 = [
            {"kind": "complete", "job": order[1]},
            {"kind": "fail", "job": order[2]},
        ]
        twin.advance(twin_session.session_id, events1, seq=1)
        expected_delta = twin.advance(
            twin_session.session_id, events2, seq=2
        )

        service = PrioService(
            limits=make_limits(), shards=2,
            session_dir=tmp_path / "shards",
        )
        with ServerThread(service) as (host, port):
            with ServeClient(host, port, timeout=60.0) as client:
                created = client.create_session(dag, name="chaos")
                assert created.status == 200
                sid = created.payload["session_id"]
                assert client.advance(sid, 1, events1).status == 200

                # SIGKILL every shard worker: whichever owns the session
                # is certainly dead.  The supervisor respawns it and the
                # worker recovers the session from the checkpoint dir.
                for handle in service.dispatcher.handles:
                    os.kill(handle.process.pid, signal.SIGKILL)
                time.sleep(0.2)

                recovered = client.advance(sid, 2, events2)
                assert recovered.status == 200, recovered.payload
                assert recovered.payload["recompute"] == "incremental"
                from repro.serve.protocol import advance_payload

                assert recovered.body == encode(
                    advance_payload(expected_delta)
                )

                after = client.get_session(sid)
                assert after.status == 200
                assert after.payload["seq"] == 2
                assert after.payload["priorities"] == (
                    twin.summary(twin_session.session_id)["priorities"]
                )
