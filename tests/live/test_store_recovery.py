"""SessionStore recovery from checkpoints it did not write as they stand.

Two kinds of file: checkpoints in the layout of older code, whose
``create`` record also carries a ``mode`` key, must recover and answer
the next ``/advance`` byte-identically to a fresh session; damaged
checkpoints must recover no session, so every request on the id answers
with a typed error.  The damage cases are the hand-picked ones that used
to escape as ``CycleError``, ``KeyError`` or a blamed request, plus a
hypothesis property that drops, duplicates, swaps and truncates the lines
of a valid checkpoint and mutates its record fields.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rescheduling import reprioritize_remnant
from repro.dag.graph import Dag
from repro.dag.io_json import dag_to_json
from repro.live import EventPlan, event_stream
from repro.live.session import LiveSession
from repro.live.store import SessionStore, session_token
from repro.obs import MetricsRegistry
from repro.robust import Checkpoint
from repro.serve.dispatch import compute_response
from repro.serve.errors import ServeError
from repro.serve.protocol import encode
from repro.workloads.registry import get_workload

DAG = Dag(
    7,
    [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 6)],
    labels=["a", "b", "c", "d", "e", "f", "g"],
)
PAYLOAD = dag_to_json(DAG)
SESSION_ID = f"{session_token(PAYLOAD)}.fuzz"
#: complete/fail/straggle batches that apply in order to a fresh session
BATCHES = [
    [{"kind": "complete", "job": 0}, {"kind": "fail", "job": 1}],
    [{"kind": "straggler_timeout", "job": 1}],
    [{"kind": "complete", "job": 1}, {"kind": "complete", "job": 2}],
    [{"kind": "fail", "job": 4}, {"kind": "complete", "job": 3}],
]
CYCLE = {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 1], [1, 0]]}


def write_session(directory: Path, batches=BATCHES) -> Path:
    """Write a valid checkpoint of the 7-job session; return its path."""
    store = SessionStore(directory=directory)
    store.create(PAYLOAD, name="fuzz")
    for seq, events in enumerate(batches, start=1):
        store.advance(SESSION_ID, events, seq=seq)
    return directory / f"{SESSION_ID}.session.jsonl"


def rewrite_record(path: Path, key: str, edit) -> None:
    """Replace the payload of record *key* by ``edit(payload)``."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("key") == key:
            record["payload"] = edit(record["payload"])
            lines[i] = json.dumps(record, sort_keys=True)
    path.write_text("".join(line + "\n" for line in lines))


def answer(path: str, body: bytes, store: SessionStore):
    """Response bytes, or the ``ServeError`` code."""
    try:
        return compute_response(path, body, sessions=store)
    except ServeError as exc:
        return exc.code


def advance_body(session_id: str, seq: int, events) -> bytes:
    return encode({"session": session_id, "seq": seq, "events": events})


# ----------------------------------------------------------------------
# Checkpoints written by older code
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["full", "incremental"])
def test_create_record_with_a_mode_recovers(tmp_path, mode):
    """Older code wrote the scheduler mode into the create record; the
    session recovers from it, and answers the next advance as a session
    that never died."""
    dag = get_workload("montage-small")
    payload = dag_to_json(dag)
    plan = EventPlan(failures={u: 1 for u in range(0, dag.n, 3)})
    batches = list(event_stream(dag, plan, batch_jobs=40, split_ticks=True))[:5]
    *history, (next_seq, next_events) = batches

    fresh = SessionStore()
    sid = fresh.create(payload, name="old").session_id
    checkpoint = Checkpoint.open(
        tmp_path / f"{sid}.session.jsonl",
        SessionStore._fingerprint(sid),
        meta={"session_id": sid},
    )
    checkpoint.record("create", {"dag": payload, "name": "old", "mode": mode})
    for seq, events in history:
        delta = fresh.advance(sid, events, seq=seq)
        checkpoint.record(f"advance:{seq:08d}", {"events": events,
                                                 "delta": delta})

    recovered = SessionStore(directory=tmp_path)
    body = advance_body(sid, next_seq, next_events)
    expected = compute_response("/advance", body, sessions=fresh)
    assert compute_response("/advance", body, sessions=recovered) == expected
    assert recovered.recovered == 1
    assert "mode" not in json.loads(
        compute_response(f"/session/{sid}", b"", sessions=recovered)
    )


def test_new_create_records_hold_no_mode(tmp_path):
    path = write_session(tmp_path, batches=[])
    created = Checkpoint.open(path, SessionStore._fingerprint(SESSION_ID))
    assert created.get("create") == {"dag": PAYLOAD, "name": "fuzz"}


# ----------------------------------------------------------------------
# Damaged checkpoints
# ----------------------------------------------------------------------

DAMAGE = {
    "cyclic dag": ("create", lambda p: dict(p, dag=CYCLE)),
    "missing dag": ("create", lambda p: {"name": p["name"]}),
    "other dag": (
        "create",
        lambda p: dict(p, dag=dict(p["dag"], labels=list("ABCDEFG"))),
    ),
    "not an object": ("create", lambda p: [p]),
    "events do not replay": (
        "advance:00000002",
        lambda p: dict(p, events=[{"kind": "complete", "job": 6}]),
    ),
    "malformed events": ("advance:00000002", lambda p: dict(p, events=7)),
    "no delta": ("advance:00000003", lambda p: {"events": p["events"]}),
    "delta that does not encode": (
        "advance:00000004",
        lambda p: dict(p, delta=dict(p["delta"], n_pending=float("nan"))),
    ),
    "delta of another session": (
        "advance:00000004",
        lambda p: dict(p, delta=dict(p["delta"], session_id="x.fuzz")),
    ),
    "delta of another seq": (
        "advance:00000004",
        lambda p: dict(p, delta=dict(p["delta"], seq=3)),
    ),
    "payload not an object": ("advance:00000001", lambda p: "events"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_record_recovers_nothing(tmp_path, damage):
    key, edit = DAMAGE[damage]
    rewrite_record(write_session(tmp_path), key, edit)
    store = SessionStore(directory=tmp_path)
    assert store.get(SESSION_ID) is None
    assert answer(f"/session/{SESSION_ID}", b"", store) == "not_found"
    body = advance_body(SESSION_ID, 5, [{"kind": "complete", "job": 4}])
    assert answer("/advance", body, store) == "not_found"
    # The damaged file still owns the id: a create is a conflict, not a
    # silent overwrite of the history on disk.
    create = encode({"dag": PAYLOAD, "name": "fuzz"})
    assert answer("/session", create, store) == "conflict"


def test_failed_recovery_is_not_retried(tmp_path, monkeypatch):
    """A checkpoint that failed to recover is read once: later requests on
    its id answer unknown without reopening the file or replaying it."""
    rewrite_record(write_session(tmp_path), *DAMAGE["events do not replay"])
    opened = []
    real_open = Checkpoint.open

    def spy(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr(Checkpoint, "open", spy)
    metrics = MetricsRegistry()
    store = SessionStore(directory=tmp_path, metrics=metrics)
    assert [store.get(SESSION_ID) for _ in range(3)] == [None] * 3
    assert len(opened) == 1
    assert metrics.counter("live.sessions").value == 1


@pytest.mark.parametrize(
    "key", ["advance:1", "advance:x", "advance:000000002", "advance:-0000002"]
)
def test_malformed_advance_key_recovers_nothing(tmp_path, key):
    path = write_session(tmp_path)
    path.write_text(path.read_text().replace('"advance:00000002"',
                                             json.dumps(key)))
    assert SessionStore(directory=tmp_path).get(SESSION_ID) is None


def test_damaged_checkpoint_is_a_cli_error(tmp_path, capsys):
    from repro.cli import main

    rewrite_record(write_session(tmp_path), "create",
                   lambda p: dict(p, dag=CYCLE))
    events = tmp_path / "events.json"
    events.write_text("[]")
    status = main(["advance", "--session-dir", str(tmp_path),
                   "--session", SESSION_ID, str(events)])
    assert status == 2
    assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------------
# Mutation property
# ----------------------------------------------------------------------

with tempfile.TemporaryDirectory() as _directory:
    #: the lines of a valid checkpoint holding all of BATCHES
    TEMPLATE = write_session(Path(_directory)).read_text().splitlines()
#: what a mutated record field becomes
VALUES = [None, 0, 1, 2, 6, 7, 99, -1, True, 1.5, float("nan"), "", "x",
          "full", [], {}, [0, 1], [1, 0], [[1, 0]],
          {"kind": "complete", "job": 5}]


def paths_in(value, prefix=()):
    """Every (container path, key) inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix, key
        yield from paths_in(item, prefix + (key,))


@st.composite
def damaged_lines(draw) -> str:
    """The valid checkpoint's text after one to three mutations."""
    lines = list(TEMPLATE)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate",
                                   "field", "field"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            text = "\n".join(lines)
            cut = draw(st.integers(0, len(text)))
            return text[:cut]
        else:
            record = json.loads(lines[i])
            container_path, key = draw(st.sampled_from(list(paths_in(record))))
            container = record
            for step in container_path:
                container = container[step]
            if draw(st.booleans()):
                del container[key]
            else:
                container[key] = draw(st.sampled_from(VALUES))
            lines[i] = json.dumps(record, sort_keys=True)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=150)
@given(damaged_lines())
def test_damaged_checkpoint_recovers_a_session_or_none(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{SESSION_ID}.session.jsonl"
        path.write_text(text)
        store = SessionStore(directory=directory)
        session = store.get(SESSION_ID)
        assert session is None or isinstance(session, LiveSession)
        summary = answer(f"/session/{SESSION_ID}", b"", store)
        if session is None:
            assert summary == "not_found"
            return
        # What recovers is this dag (the id pins its token) at a
        # precedence-closed state, prioritized like the oracle.
        assert session.dag.fingerprint() == DAG.fingerprint()
        assert 0 <= session.seq <= len(BATCHES)
        oracle = reprioritize_remnant(DAG, session.executed).priorities
        assert session.priorities == oracle
        assert json.loads(summary)["priorities"] == oracle
        if session.seq:  # a retry answers the stored delta again
            retry = advance_body(SESSION_ID, session.seq, [])
            assert isinstance(answer("/advance", retry, store), bytes)
        events = [{"kind": "complete", "job": 5}]
        outcome = answer("/advance",
                         advance_body(SESSION_ID, session.seq + 1, events),
                         store)
        assert isinstance(outcome, bytes) or outcome == "invalid_request"
