"""SessionStore: identity, idempotent replay, durable recovery."""

import errno
import os
import threading

import pytest

from repro.dag.io_json import dag_to_json, dumps_canonical
from repro.live.session import SequenceError, SessionError
from repro.live.store import (
    SessionExists,
    SessionStore,
    session_token,
    valid_session_name,
)
from repro.robust import Checkpoint


@pytest.fixture
def payload(fig3_dag):
    return dag_to_json(fig3_dag)


def first_eligible(dag, executed=()):
    executed = set(executed)
    return next(
        u
        for u in range(dag.n)
        if u not in executed
        and all(p in executed for p in dag.parents(u))
    )


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------


def test_session_token_is_deterministic_and_canonical(payload):
    reordered = dict(reversed(list(payload.items())))
    assert session_token(payload) == session_token(reordered)
    assert len(session_token(payload)) == 16
    other = dict(payload, n=payload["n"] + 1)
    assert session_token(other) != session_token(payload)


def test_session_id_embeds_token_and_name(payload):
    store = SessionStore()
    session = store.create(payload, name="run-1")
    assert session.session_id == f"{session_token(payload)}.run-1"


@pytest.mark.parametrize(
    "name", ["", "a" * 65, "bad/name", "sp ace", "tab\t"]
)
def test_bad_names_rejected(payload, name):
    assert not valid_session_name(name)
    with pytest.raises(SessionError):
        SessionStore().create(payload, name=name)


def test_create_rejects_bad_dag_payload():
    with pytest.raises(ValueError):
        SessionStore().create({"format": "repro-dag-v1", "n": 2,
                               "arcs": [[0, 0]]})


def test_duplicate_create_raises_session_exists(payload):
    store = SessionStore()
    store.create(payload, name="run")
    with pytest.raises(SessionExists) as info:
        store.create(payload, name="run")
    assert info.value.session_id.endswith(".run")
    # A different name is a different session over the same dag.
    store.create(payload, name="run2")
    assert len(store) == 2


# ----------------------------------------------------------------------
# Advance semantics
# ----------------------------------------------------------------------


def test_advance_and_idempotent_seq_replay(payload, fig3_dag):
    store = SessionStore()
    session = store.create(payload)
    job = first_eligible(fig3_dag)
    events = [{"kind": "complete", "job": job}]
    delta = store.advance(session.session_id, events, seq=1)
    # A retried request (same seq) replays the stored response without
    # reapplying — byte-identical on the wire.
    replayed = store.advance(session.session_id, events, seq=1)
    assert dumps_canonical(replayed) == dumps_canonical(delta)
    assert session.seq == 1
    with pytest.raises(SequenceError):
        store.advance(session.session_id, events, seq=5)


def test_advance_unknown_session_raises_keyerror(payload):
    with pytest.raises(KeyError):
        SessionStore().advance("0" * 16 + ".ghost", [], seq=1)


def test_summary_of_unknown_session_is_none():
    assert SessionStore().summary("0" * 16 + ".ghost") is None


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------


def test_recovery_restores_exact_state(tmp_path, payload, fig3_dag):
    store = SessionStore(directory=tmp_path)
    session = store.create(payload, name="durable")
    sid = session.session_id
    job = first_eligible(fig3_dag)
    store.advance(sid, [{"kind": "complete", "job": job}], seq=1)
    nxt = first_eligible(fig3_dag, {job})
    last = store.advance(
        sid,
        [{"kind": "fail", "job": nxt}, {"kind": "complete", "job": nxt}],
        seq=2,
    )
    expected = store.summary(sid)

    # A fresh process over the same directory (the respawned shard).
    # Scheduler reuse counters are process-local diagnostics (recovery
    # replays with one recompute), so they are excluded from equality.
    twin = SessionStore(directory=tmp_path)
    recovered_summary = twin.summary(sid)
    recovered_summary.pop("scheduler")
    expected.pop("scheduler")
    assert recovered_summary == expected
    assert twin.recovered == 1
    # The stored last delta replays byte-identically after recovery.
    recovered_last = twin.advance(
        sid,
        [{"kind": "fail", "job": nxt}, {"kind": "complete", "job": nxt}],
        seq=2,
    )
    assert dumps_canonical(recovered_last) == dumps_canonical(last)
    # And the *next* advance continues the sequence.
    third = first_eligible(fig3_dag, {job, nxt})
    delta = twin.advance(sid, [{"kind": "complete", "job": third}], seq=3)
    assert delta["seq"] == 3


def test_recovered_next_advance_matches_unkilled_twin(tmp_path, payload,
                                                      fig3_dag):
    """The store-level version of the chaos contract: a recovered store's
    next delta is byte-identical to one from a store that never died."""
    job = first_eligible(fig3_dag)
    nxt = first_eligible(fig3_dag, {job})
    events1 = [{"kind": "complete", "job": job}]
    events2 = [{"kind": "complete", "job": nxt}]

    unkilled = SessionStore(directory=tmp_path / "a")
    sid = unkilled.create(payload).session_id
    unkilled.advance(sid, events1, seq=1)
    expected = unkilled.advance(sid, events2, seq=2)

    killed = SessionStore(directory=tmp_path / "b")
    assert killed.create(payload).session_id == sid
    killed.advance(sid, events1, seq=1)
    recovered = SessionStore(directory=tmp_path / "b")  # the respawn
    delta = recovered.advance(sid, events2, seq=2)
    assert dumps_canonical(delta) == dumps_canonical(expected)


def fail_next_fsync(monkeypatch):
    """Make the next ``os.fsync`` raise ENOSPC, as a full disk would."""
    real_fsync = os.fsync
    failed = []

    def flaky(fd):
        if not failed:
            failed.append(fd)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", flaky)
    return failed


def test_retry_persists_advance_whose_checkpoint_write_failed(
    tmp_path, payload, fig3_dag, monkeypatch
):
    """The retry's answer comes from memory; it must also reach the disk,
    or a respawn forgets a seq the client was told succeeded."""
    events = [{"kind": "complete", "job": first_eligible(fig3_dag)}]
    twin = SessionStore(directory=tmp_path / "twin")
    sid = twin.create(payload).session_id
    expected = twin.advance(sid, events, seq=1)

    store = SessionStore(directory=tmp_path / "flaky")
    store.create(payload)
    failed = fail_next_fsync(monkeypatch)
    with pytest.raises(OSError):
        store.advance(sid, events, seq=1)
    assert failed
    retried = store.advance(sid, events, seq=1)
    assert dumps_canonical(retried) == dumps_canonical(expected)

    recovered = SessionStore(directory=tmp_path / "flaky")
    summary = recovered.summary(sid)
    assert summary["seq"] == 1
    assert summary["priorities"] == twin.summary(sid)["priorities"]


def test_next_advance_after_failed_write_leaves_no_seq_gap(
    tmp_path, payload, fig3_dag, monkeypatch
):
    job = first_eligible(fig3_dag)
    nxt = first_eligible(fig3_dag, {job})
    store = SessionStore(directory=tmp_path)
    sid = store.create(payload).session_id
    fail_next_fsync(monkeypatch)
    with pytest.raises(OSError):
        store.advance(sid, [{"kind": "complete", "job": job}], seq=1)
    # The client skips the retry; seq 1 is applied in memory, so seq 2
    # is next — and seq 1 must land on disk before it.
    store.advance(sid, [{"kind": "complete", "job": nxt}], seq=2)
    recovered = SessionStore(directory=tmp_path).summary(sid)
    assert recovered["seq"] == 2
    assert recovered["n_executed"] == 2


def test_failed_create_write_registers_nothing(tmp_path, payload,
                                               monkeypatch):
    """The header is on disk when the ``create`` record fails: that file
    must go, or the retry meets SessionExists for a session that never
    became durable (and whose advances would never be recorded)."""
    store = SessionStore(directory=tmp_path)

    def full_disk(self, key, payload):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patched:
        patched.setattr(Checkpoint, "record", full_disk)
        with pytest.raises(OSError):
            store.create(payload)
    assert len(store) == 0
    assert list(tmp_path.iterdir()) == []
    sid = store.create(payload).session_id  # the retry starts afresh
    assert SessionStore(directory=tmp_path).summary(sid)["seq"] == 0


def test_duplicate_create_detected_on_disk(tmp_path, payload):
    SessionStore(directory=tmp_path).create(payload)
    with pytest.raises(SessionExists):
        SessionStore(directory=tmp_path).create(payload)


def test_path_traversal_ids_never_touch_disk(tmp_path, payload):
    store = SessionStore(directory=tmp_path)
    for evil in ("../../etc/passwd", "a/b", "..", "0" * 16 + ".ok/../x"):
        assert store.get(evil) is None


def test_in_memory_store_has_no_files(tmp_path, payload):
    store = SessionStore()
    store.create(payload)
    assert store.stats()["persistent"] is False
    assert list(tmp_path.iterdir()) == []


def test_concurrent_advances_serialize_per_session(payload, fig3_dag):
    """Racing advances under the per-session lock: exactly one of each
    seq applies; the rest replay or fail in sequence — state never tears."""
    store = SessionStore()
    sid = store.create(payload).session_id
    job = first_eligible(fig3_dag)
    outcomes = []

    def hammer():
        try:
            outcomes.append(
                store.advance(sid, [{"kind": "complete", "job": job}], seq=1)
            )
        except SessionError as exc:
            outcomes.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    deltas = [o for o in outcomes if isinstance(o, dict)]
    assert deltas  # at least the winner; retries replay the stored delta
    assert all(
        dumps_canonical(d) == dumps_canonical(deltas[0]) for d in deltas
    )
    assert store.get(sid).executed == {job}
