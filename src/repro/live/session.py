"""One live execution session: state vector, event batches, priority deltas.

A :class:`LiveSession` tracks a single running workflow.  Its job-state
vector distinguishes

* **executed** — completed successfully (precedence-closed by
  construction: a ``complete`` event is rejected unless every parent has
  completed);
* **failed** — one or more failed attempts recorded, still pending and
  still in the remnant (it will be retried);
* **exhausted** — retries used up; the job stays in the remnant (a rescue
  submission would retry it) but is flagged for operators;
* **straggling** — a ``straggler_timeout`` was reported; bookkeeping only.

Only ``complete`` events change the remnant, so a batch of failures and
straggler timeouts re-emits priorities without any recomputation — the
cheapest advance of all.  Batches are **atomic**: every event is validated
before any state changes, so a rejected batch leaves the session
untouched (and the stored sequence number unchanged).

Each ``advance`` returns a *priority delta* — only the jobs whose priority
changed — plus the remnant size and which recompute path ran.  The full
priority vector after any event sequence is byte-identical to
``reprioritize_remnant(dag, executed)`` on the same remnant (the session's
correctness contract, property-tested in ``tests/live/``).
"""

from __future__ import annotations

import time

from ..dag.graph import Dag
from .incremental import IncrementalScheduler

__all__ = [
    "EVENT_KINDS",
    "EventError",
    "LiveSession",
    "SequenceError",
    "SessionError",
    "validate_events",
]

#: Accepted event kinds, in documentation order.
EVENT_KINDS = ("complete", "fail", "retry_exhausted", "straggler_timeout")


class SessionError(ValueError):
    """A session-level request problem (bad events, bad sequence)."""


class EventError(SessionError):
    """One event in a batch is invalid; the whole batch was rejected.

    ``kind``/``job`` locate the offending event (``job`` may be ``None``
    when the event was structurally malformed).
    """

    def __init__(self, message: str, *, kind=None, job=None):
        super().__init__(message)
        self.kind = kind
        self.job = job


class SequenceError(SessionError):
    """The advance's sequence number does not extend the session.

    ``expected`` is the next acceptable sequence number; ``got`` what the
    request carried.  A ``got == expected - 1`` retry is replayed from the
    stored response by :class:`~repro.live.store.SessionStore` before this
    is ever raised.
    """

    def __init__(self, *, expected: int, got: int):
        super().__init__(
            f"advance out of sequence: expected seq {expected}, got {got}"
        )
        self.expected = expected
        self.got = got


def validate_events(events) -> list[tuple[str, int]]:
    """Structural validation of a raw event batch.

    Each event must be an object ``{"kind": <one of EVENT_KINDS>,
    "job": <int>}`` — nothing more, nothing less (unknown fields are
    rejected so typos fail loudly, matching the wire protocol's strict
    parsing).  Returns the batch as ``(kind, job)`` pairs; range and state
    checks happen against the session in :meth:`LiveSession.advance`.
    """
    if not isinstance(events, list):
        raise EventError(
            f"events must be a list, got {type(events).__name__}"
        )
    normalized: list[tuple[str, int]] = []
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise EventError(
                f"event {position} must be an object, "
                f"got {type(event).__name__}"
            )
        unknown = set(event) - {"kind", "job"}
        if unknown:
            raise EventError(
                f"event {position} has unknown fields: "
                f"{', '.join(sorted(unknown))}"
            )
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            raise EventError(
                f"event {position} has unknown kind {kind!r}; "
                f"expected one of {', '.join(EVENT_KINDS)}",
                kind=kind,
            )
        job = event.get("job")
        if isinstance(job, bool) or not isinstance(job, int):
            raise EventError(
                f"event {position} ({kind}) needs an integer job id",
                kind=kind,
            )
        normalized.append((kind, job))
    return normalized


class LiveSession:
    """A fingerprinted dag plus its evolving execution state."""

    def __init__(
        self,
        dag: Dag,
        *,
        session_id: str = "default",
        metrics=None,
        telemetry=None,
    ):
        self.dag = dag
        self.session_id = session_id
        self.metrics = metrics
        self.telemetry = telemetry
        self.scheduler = IncrementalScheduler(dag, metrics=metrics)
        self.seq = 0
        self.executed: set[int] = set()
        self.fail_counts: dict[int, int] = {}
        self.exhausted: set[int] = set()
        self.stragglers: set[int] = set()
        self.events_applied = 0
        self._priorities = self.scheduler.priorities(frozenset())
        #: (seq, delta) of the most recent advance, for idempotent replay.
        self.last_advance: tuple[int, dict] | None = None
        if metrics is not None:
            metrics.counter("live.sessions").inc()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def priorities(self) -> list[int]:
        """Current remnant priorities over original job ids (0 = executed)."""
        return list(self._priorities)

    @property
    def n_pending(self) -> int:
        return self.dag.n - len(self.executed)

    def state_summary(self) -> dict:
        """JSON-serializable snapshot of the session (the GET payload)."""
        return {
            "session_id": self.session_id,
            "seq": self.seq,
            "n_jobs": self.dag.n,
            "n_pending": self.n_pending,
            "n_executed": len(self.executed),
            "events_applied": self.events_applied,
            "dag_fingerprint": self.dag.fingerprint(),
            "remnant_fingerprint": self.scheduler.remnant_fingerprint(
                self.executed
            ),
            "priorities": list(self._priorities),
            "failed": sorted(self.fail_counts),
            "exhausted": sorted(self.exhausted),
            "stragglers": sorted(self.stragglers),
            "scheduler": self.scheduler.stats(),
        }

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def advance(self, events, *, seq: int | None = None) -> dict:
        """Apply one event batch; returns the priority delta.

        *seq* must be ``self.seq + 1`` (defaulted when omitted) — replay
        and conflict handling live in the store, which sees the stored
        responses.  The batch is validated in full before any state
        changes (atomicity), then applied; priorities are recomputed only
        when some ``complete`` event actually shrank the remnant.
        """
        started = time.perf_counter()
        if seq is None:
            seq = self.seq + 1
        applied, completed = self._apply(seq, events)

        if completed:
            new_priorities = self.scheduler.priorities(self.executed)
            recompute = "incremental"
            # String keys, as JSON will round-trip them: a delta replayed
            # from a checkpoint must encode byte-identically to the original.
            old = self._priorities
            changed = {
                str(job): priority
                for job, priority in enumerate(new_priorities)
                if priority != old[job]
            }
        else:
            # Failures/stragglers leave the executed set — and therefore
            # the remnant and its priorities — untouched.
            new_priorities = self._priorities
            recompute = "skipped"
            changed = {}
            if self.metrics is not None:
                self.metrics.counter("live.recompute.skipped").inc()
        self._priorities = new_priorities
        elapsed = time.perf_counter() - started
        delta = {
            "session_id": self.session_id,
            "seq": seq,
            "applied": applied,
            "recompute": recompute,
            "changed": changed,
            "n_pending": self.n_pending,
        }
        self.last_advance = (seq, delta)
        if self.metrics is not None:
            self.metrics.counter("live.events.applied").inc(applied)
            self.metrics.timer("live.advance").add(elapsed)
        if self.telemetry is not None:
            self.telemetry.write(
                {
                    "schema": 1,
                    "kind": "advance",
                    "session": self.session_id,
                    "seq": seq,
                    "applied": applied,
                    "recompute": recompute,
                    "n_changed": len(changed),
                    "seconds": elapsed,
                }
            )
        return delta

    def replay(self, batches) -> None:
        """Re-apply checkpointed event batches without per-batch recompute.

        *batches* is an iterable of ``(seq, events)`` in ascending seq
        order.  State is rebuilt exactly as :meth:`advance` would have,
        then priorities are recomputed **once** at the end — recovery of a
        long session costs one recompute, not one per historical batch.
        """
        saw_complete = False
        for seq, events in batches:
            saw_complete |= self._apply(seq, events)[1]
        if saw_complete:
            self._priorities = self.scheduler.priorities(self.executed)

    # ------------------------------------------------------------------

    def _apply(self, seq: int, events) -> tuple[int, bool]:
        """Validate one batch in full, then apply it as batch *seq*.

        Returns the number of events applied and whether any of them
        completed a job (shrank the remnant).  Raises before any state
        changes: :class:`SequenceError` unless *seq* is ``self.seq + 1``,
        :class:`EventError` for a malformed or inapplicable event.
        """
        expected = self.seq + 1
        if seq != expected:
            raise SequenceError(expected=expected, got=seq)
        normalized = validate_events(events)
        self._check_batch(normalized)
        completed = False
        for kind, job in normalized:
            if kind == "complete":
                self.executed.add(job)
                self.stragglers.discard(job)
                completed = True
            elif kind == "fail":
                self.fail_counts[job] = self.fail_counts.get(job, 0) + 1
            elif kind == "retry_exhausted":
                self.fail_counts.setdefault(job, 0)
                self.exhausted.add(job)
            else:  # straggler_timeout
                self.stragglers.add(job)
        self.seq = seq
        self.events_applied += len(normalized)
        return len(normalized), completed

    def _check_batch(self, normalized) -> None:
        """Validate a whole batch against the executed set plus the batch's
        own earlier completions (*done*); raise EventError before any real
        state changes."""
        dag = self.dag
        executed = self.executed
        done: set[int] = set()
        for kind, job in normalized:
            if not 0 <= job < dag.n:
                raise EventError(
                    f"event job id {job} out of range for {dag.n} jobs",
                    kind=kind,
                    job=job,
                )
            if kind == "complete":
                if job in executed or job in done:
                    raise EventError(
                        f"job {dag.label(job)} completed twice",
                        kind=kind,
                        job=job,
                    )
                for parent in dag.parents(job):
                    if parent not in executed and parent not in done:
                        raise EventError(
                            f"job {dag.label(job)} cannot complete before "
                            f"its parent {dag.label(parent)}",
                            kind=kind,
                            job=job,
                        )
                done.add(job)
            else:
                if job in executed or job in done:
                    raise EventError(
                        f"cannot apply {kind} to completed job "
                        f"{dag.label(job)}",
                        kind=kind,
                        job=job,
                    )
