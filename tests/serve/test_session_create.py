"""``POST /session`` decodes its dag once and builds one ``Dag``.

The protocol runs the strict wire decode only; the session store builds
the ``Dag``.  A later field error still reports a broken dag first, and
a dag error raised by the store answers exactly as the protocol's own
check did.
"""

from __future__ import annotations

import json

import pytest

from repro.dag import io_json
from repro.dag.graph import Dag
from repro.dag.io_json import dag_from_json, dag_to_json
from repro.live.store import SessionStore
from repro.serve import errors, protocol
from repro.serve.dispatch import compute_response
from repro.serve.protocol import encode
from repro.workloads.registry import get_workload


class CountingDag(Dag):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Count every ``Dag`` built from a wire payload."""
    CountingDag.built = 0
    monkeypatch.setattr(io_json, "Dag", CountingDag)
    monkeypatch.setattr(protocol, "Dag", CountingDag)
    return CountingDag


def test_one_dag_per_create(counted):
    dag = get_workload("montage-small")
    body = encode({"dag": dag_to_json(dag), "name": "once"})
    response = json.loads(compute_response("/session", body, sessions=SessionStore()))
    assert len(response["priorities"]) == dag.n
    assert counted.built == 1


CYCLE = {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 1], [1, 0]]}
SELF_LOOP = {"format": "repro-dag-v1", "n": 2, "arcs": [[1, 1]]}
BAD_ID = {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 2]]}


def dag_error(payload) -> str:
    with pytest.raises(ValueError) as exc:
        dag_from_json(payload)
    return str(exc.value)


@pytest.mark.parametrize("dag", [CYCLE, SELF_LOOP, BAD_ID])
@pytest.mark.parametrize(
    "extra",
    [{}, {"name": "bad name!"}, {"mode": "sideways"}, {"bogus": 1}],
)
def test_dag_error_wins(dag, extra):
    body = encode({"dag": dag, **extra})
    with pytest.raises(errors.ServeError) as exc:
        compute_response("/session", body, sessions=SessionStore())
    assert (exc.value.code, exc.value.message) == ("invalid_dag", dag_error(dag))


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"name": "bad name!"}, "'name' must match"),
        ({"mode": "incremental"}, "unknown request fields"),
        ({"bogus": 1}, "unknown request fields"),
    ],
)
def test_field_errors_on_a_valid_dag(counted, extra, message):
    body = encode({"dag": dag_to_json(get_workload("airsn-small")), **extra})
    with pytest.raises(errors.ServeError, match=message) as exc:
        compute_response("/session", body, sessions=SessionStore())
    assert exc.value.code == "invalid_request"
    assert counted.built == 1  # built before raising, so a dag error wins
