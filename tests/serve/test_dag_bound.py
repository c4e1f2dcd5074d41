"""A wire dag's ``n`` is bounded by the body limit, before any ``Dag``.

Isolated jobs cost no body bytes, so ``n`` alone could ask for unbounded
work: the 60-byte ``{"n": 300000}`` body below took seconds of compute
and answered 2 MB.  ``/schedule``, ``/simulate`` and ``/session`` refuse
a dag that declares more than ``ServiceLimits.max_dag_jobs()`` jobs with
``413 payload_too_large``, and build no ``Dag`` for it.  Bodies inside
the bound answer the bytes they always did.
"""

from __future__ import annotations

import json

import pytest

from repro.dag.graph import Dag
from repro.dag.io_json import dag_to_json
from repro.live.store import SessionStore
from repro.serve.app import PrioService, ServerThread
from repro.serve.client import ServeClient
from repro.serve.dispatch import compute_response
from repro.serve.errors import ServeError
from repro.serve.limits import WIRE_BYTES_PER_JOB, ServiceLimits
from repro.serve.protocol import encode, schedule_payload
from repro.workloads.registry import get_workload

from .conftest import make_limits

WIDE = b'{"dag": {"format": "repro-dag-v1", "n": 300000, "arcs": []}}'
PARAMS = {"mu_bit": 1.0, "mu_bs": 4.0}


def isolated(n: int) -> dict:
    return {"format": "repro-dag-v1", "n": n, "arcs": []}


def body_for(path: str, dag: dict) -> bytes:
    request = {"dag": dag}
    if path == "/simulate":
        request["params"] = PARAMS
    return json.dumps(request).encode()


@pytest.fixture
def builds(monkeypatch):
    """Count every ``Dag`` constructed, whatever module builds it."""
    counter = {"n": 0}
    init = Dag.__init__

    def counting(self, *args, **kwargs):
        counter["n"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dag, "__init__", counting)
    return counter


def test_the_bound_derives_from_the_body_limit():
    assert len(WIDE) == 60
    assert ServiceLimits().max_dag_jobs() == 8 * 1024 * 1024 // WIRE_BYTES_PER_JOB
    assert ServiceLimits().max_dag_jobs() < 300_000
    assert ServiceLimits(max_body_bytes=320).max_dag_jobs() == 10


@pytest.mark.parametrize("path", ["/schedule", "/simulate", "/session"])
def test_sixty_byte_wide_dag_is_refused_with_no_dag_built(path, builds):
    body = WIDE if path != "/simulate" else body_for(path, isolated(300_000))
    with pytest.raises(ServeError) as exc:
        compute_response(path, body, sessions=SessionStore())
    assert (exc.value.status, exc.value.code) == (413, "payload_too_large")
    assert "300000 jobs" in exc.value.message
    assert builds["n"] == 0


@pytest.mark.parametrize("path", ["/schedule", "/simulate", "/session"])
def test_bound_is_inclusive(path, builds):
    store = SessionStore()
    compute_response(path, body_for(path, isolated(10)), sessions=store,
                     max_jobs=10)
    built = builds["n"]
    assert built >= 1
    with pytest.raises(ServeError) as exc:
        compute_response(path, body_for(path, isolated(11)), sessions=store,
                         max_jobs=10)
    assert exc.value.code == "payload_too_large"
    assert builds["n"] == built


def test_malformed_dag_still_answers_invalid_dag_first():
    body = json.dumps({"dag": {"format": "repro-dag-v1", "n": 10**9,
                               "arcs": [[0, "x"]]}}).encode()
    with pytest.raises(ServeError) as exc:
        compute_response("/schedule", body)
    assert exc.value.code == "invalid_dag"


def test_in_bound_bytes_unchanged():
    dag = get_workload("montage-small")
    body = encode({"dag": dag_to_json(dag)})
    assert compute_response("/schedule", body) == encode(schedule_payload(dag))


@pytest.mark.parametrize("shards", [0, 1])
def test_served_bound_follows_the_configured_body_limit(shards):
    service = PrioService(
        limits=make_limits(max_body_bytes=10 * WIRE_BYTES_PER_JOB),
        shards=shards,
    )
    with ServerThread(service) as (host, port):
        with ServeClient(host, port, timeout=30.0) as client:
            ok = client.post_json("/schedule", {"dag": isolated(10)})
            refused = client.post_json("/schedule", {"dag": isolated(11)})
    assert ok.status == 200
    assert ok.body == encode(schedule_payload(Dag(10, [])))
    assert (refused.status, refused.error_code) == (413, "payload_too_large")
