"""Session registry: many live sessions, locks, durable checkpoints.

A :class:`SessionStore` owns every :class:`~repro.live.session.LiveSession`
of one process (a shard worker, the CLI, a test).  It serializes access
per session, assigns deterministic session ids, implements idempotent
sequence-number replay, and — when given a directory — persists every
session through a fingerprinted
:class:`~repro.robust.checkpoint.Checkpoint` so that a killed process
(shard respawn, crashed CLI) recovers each session from disk with the
exact state an unkilled twin would hold.

**Session identity.**  ``session_token(dag_payload)`` is the first 16 hex
digits of the SHA-256 of the canonical JSON of the request's ``dag``
field; the session id is ``"<token>.<name>"`` with a client-chosen (or
``"default"``) name.  The token prefix is what the sharded dispatcher
routes on, so a session and all its advances land on one shard, and it is
recomputable from the id alone — no routing table to lose.

**Durability.**  The checkpoint holds one ``create`` entry (the raw dag
payload plus options) and one ``advance:<seq>`` entry per applied batch
(events plus the response delta): each advance appends and fsyncs one
line before it returns, whatever the session's length.  Recovery
replays the event history through :meth:`LiveSession.replay` (one
recompute total, not one per batch) and keeps the last stored delta for
sequence replay — so the next ``advance`` after a crash is
byte-identical to one served by a process that never died.  A batch
whose checkpoint write failed is applied in memory but not yet durable;
the retry (or the next batch) writes it before answering, so the disk
never skips a seq the client was told succeeded.
"""

from __future__ import annotations

import hashlib
import re
import threading
from pathlib import Path

from ..dag.io_json import dag_from_json, dumps_canonical
from ..robust.checkpoint import Checkpoint, CheckpointError, fingerprint
from .session import LiveSession, SequenceError, SessionError

__all__ = [
    "SessionExists",
    "SessionStore",
    "session_token",
    "valid_session_name",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_SESSION_ID_RE = re.compile(r"^[0-9a-f]{16}\.[A-Za-z0-9._-]{1,64}$")


def valid_session_name(name: str) -> bool:
    """True when *name* is a legal (path- and id-safe) session name."""
    return isinstance(name, str) and bool(_NAME_RE.match(name))


def session_token(dag_payload) -> str:
    """Routing token for a raw ``dag`` request field.

    Canonical-JSON hash, truncated: the same function of the payload the
    sharded dispatcher's ``dag_shard_key`` uses, so equal payloads always
    produce equal tokens (and therefore one owning shard).
    """
    canonical = dumps_canonical(dag_payload)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class SessionStore:
    """Thread-safe registry of live sessions with optional persistence."""

    def __init__(
        self,
        *,
        directory: str | Path | None = None,
        mode: str = "incremental",
        metrics=None,
        telemetry=None,
    ):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.mode = mode
        self.metrics = metrics
        self.telemetry = telemetry
        self._sessions: dict[str, LiveSession] = {}
        self._checkpoints: dict[str, Checkpoint] = {}
        #: session id -> (key, payload) of an applied advance whose
        #: checkpoint write raised; written before the session answers again.
        self._unpersisted: dict[str, tuple[str, dict]] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self.recovered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(
        self, dag_payload, *, name: str = "default", mode: str | None = None
    ) -> LiveSession:
        """Create (and persist) a session for the raw ``dag`` field.

        Raises :class:`SessionError` for a bad name, ``ValueError`` for a
        bad dag payload, and :class:`SessionExists` when the id is already
        live (in memory or on disk) — creation is never silently
        idempotent, so a client can tell a fresh session from a stale one.
        """
        if not valid_session_name(name):
            raise SessionError(
                "session name must match [A-Za-z0-9._-]{1,64}, "
                f"got {name!r}"
            )
        dag = dag_from_json(dag_payload)
        session_id = f"{session_token(dag_payload)}.{name}"
        with self._registry_lock:
            if session_id in self._sessions or self._on_disk(session_id):
                raise SessionExists(session_id)
            session = LiveSession(
                dag,
                session_id=session_id,
                mode=mode or self.mode,
                metrics=self.metrics,
                telemetry=self.telemetry,
            )
            if self.directory is not None:
                path = self._path(session_id)
                try:
                    checkpoint = Checkpoint.open(
                        path,
                        self._fingerprint(session_id),
                        meta={"session_id": session_id},
                    )
                    checkpoint.record(
                        "create",
                        {
                            "dag": dag_payload,
                            "name": name,
                            "mode": session.scheduler.mode,
                        },
                    )
                except BaseException:
                    # Register nothing and leave no header-only file, so
                    # a retried create starts afresh instead of meeting
                    # SessionExists for a session that was never durable.
                    path.unlink(missing_ok=True)
                    raise
                self._checkpoints[session_id] = checkpoint
            self._sessions[session_id] = session
            self._locks[session_id] = threading.Lock()
        return session

    def get(self, session_id: str) -> LiveSession | None:
        """The live session, recovering it from disk when necessary."""
        with self._registry_lock:
            session = self._sessions.get(session_id)
            if session is not None:
                return session
            if self._on_disk(session_id):
                return self._recover(session_id)
        return None

    def advance(self, session_id: str, events, *, seq: int) -> dict:
        """Apply a batch to the named session under its lock.

        Sequence semantics: ``seq == session.seq + 1`` applies the batch;
        ``seq == session.seq`` (a retried request) replays the stored
        response without reapplying anything; anything else raises
        :class:`~repro.live.session.SequenceError`.  Raises ``KeyError``
        for an unknown session.
        """
        session = self.get(session_id)
        if session is None:
            raise KeyError(session_id)
        with self._lock_for(session_id):
            # A retry must not answer from memory what the disk lacks, and
            # the next batch must not leave a gap in the recorded seqs.
            self._persist_pending(session_id)
            if session.last_advance is not None:
                stored_seq, stored_delta = session.last_advance
                if seq == stored_seq:
                    if self.metrics is not None:
                        self.metrics.counter("live.advance.replayed").inc()
                    return stored_delta
            delta = session.advance(events, seq=seq)
            if session_id in self._checkpoints:
                self._unpersisted[session_id] = (
                    f"advance:{seq:08d}", {"events": events, "delta": delta}
                )
                self._persist_pending(session_id)
            return delta

    def summary(self, session_id: str) -> dict | None:
        session = self.get(session_id)
        if session is None:
            return None
        with self._lock_for(session_id):
            return session.state_summary()

    def stats(self) -> dict:
        """JSON-serializable store counters (for ``GET /metrics``)."""
        with self._registry_lock:
            return {
                "sessions": len(self._sessions),
                "recovered": self.recovered,
                "persistent": self.directory is not None,
            }

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Persistence internals
    # ------------------------------------------------------------------

    def _path(self, session_id: str) -> Path:
        return self.directory / f"{session_id}.session.jsonl"

    @staticmethod
    def _fingerprint(session_id: str) -> str:
        # The id embeds the dag token, so this binds the checkpoint to
        # both the session name and the dag payload that created it.
        return fingerprint({"kind": "live-session", "session": session_id})

    def _on_disk(self, session_id: str) -> bool:
        # The id shape check doubles as path-traversal protection: ids
        # are used as file names, so reject anything but token.name.
        return (
            self.directory is not None
            and bool(_SESSION_ID_RE.match(session_id))
            and self._path(session_id).exists()
        )

    def _persist_pending(self, session_id: str) -> None:
        """Record the session's unwritten advance, if any (lock held).

        The entry leaves ``_unpersisted`` only once the checkpoint has
        fsynced it; a failed write raises and keeps it pending.
        """
        pending = self._unpersisted.get(session_id)
        if pending is not None:
            self._checkpoints[session_id].record(*pending)
            del self._unpersisted[session_id]

    def _lock_for(self, session_id: str) -> threading.Lock:
        with self._registry_lock:
            lock = self._locks.get(session_id)
            if lock is None:
                lock = self._locks[session_id] = threading.Lock()
            return lock

    def _recover(self, session_id: str) -> LiveSession | None:
        """Rebuild a session from its checkpoint (registry lock held)."""
        try:
            checkpoint = Checkpoint.open(
                self._path(session_id),
                self._fingerprint(session_id),
                require_existing=True,
            )
        except CheckpointError:
            return None
        created = checkpoint.get("create")
        if created is None:
            return None
        dag = dag_from_json(created["dag"])
        session = LiveSession(
            dag,
            session_id=session_id,
            mode=created.get("mode", self.mode),
            metrics=self.metrics,
            telemetry=self.telemetry,
        )
        batches = []
        last = None
        for key in sorted(checkpoint.done_keys):
            if not key.startswith("advance:"):
                continue
            payload = checkpoint.get(key)
            batches.append((int(key.split(":", 1)[1]), payload["events"]))
            last = payload["delta"]
        session.replay(batches)
        if last is not None:
            session.last_advance = (session.seq, last)
        self._sessions[session_id] = session
        self._checkpoints[session_id] = checkpoint
        self._locks.setdefault(session_id, threading.Lock())
        self.recovered += 1
        if self.metrics is not None:
            self.metrics.counter("live.sessions.recovered").inc()
        return session


class SessionExists(SessionError):
    """A session with this id already exists (conflicting create)."""

    def __init__(self, session_id: str):
        super().__init__(f"session {session_id!r} already exists")
        self.session_id = session_id
