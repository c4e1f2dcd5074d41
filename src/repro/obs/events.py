"""The structured JSONL telemetry log and its validating reader.

One line per event, standard JSON, UTF-8.  Every record carries::

    {"schema": 1, "kind": "<record kind>", ...}

Record kinds and their required fields:

``run``
    A header written once per telemetry session: ``command`` (the CLI
    subcommand or API entry point that produced the log).  Free-form extra
    fields (argv, config, workload names) ride along.
``replication``
    One per simulation replication — the unit the sweep statistics are
    built from: ``workload``, ``policy``, ``rep`` (index within its
    batch), ``mu_bit``, ``mu_bs``, the :class:`~repro.sim.engine.SimResult`
    fields (``execution_time``, ``stalling_probability``, ``utilization``,
    ``n_jobs``, ``n_failures``, ``unserved_workers``) and
    ``elapsed_seconds`` (wall-clock of the replication; ``None`` when the
    caller did not time it).
``cell``
    One per sweep grid cell: ``workload``, ``mu_bit``, ``mu_bs`` and the
    per-metric median PRIO/FIFO ratios that survived.
``stage``
    One per pipeline/profiling stage: ``stage`` and ``seconds``.
``checkpoint``
    One per checkpoint action: ``event`` (``"record"`` or ``"restore"``),
    ``path`` (the checkpoint file) and ``done`` (completed work units
    recorded/restored).
``advance``
    One per live-session event batch (:mod:`repro.live`): ``session``,
    ``seq``, ``applied`` (events in the batch), ``recompute``
    (``"incremental"`` or ``"skipped"``) and ``seconds``
    (advance latency).

Unknown extra fields are always allowed (forward compatibility); unknown
*kinds* and missing required fields are rejected by :func:`validate_record`
and therefore by :func:`read_telemetry` — a telemetry file either parses
completely or fails loudly.
"""

from __future__ import annotations

import json
import os
from numbers import Number
from pathlib import Path
from typing import IO, Any

__all__ = [
    "SCHEMA_VERSION",
    "TelemetryWriter",
    "read_telemetry",
    "replication_record",
    "validate_record",
]

SCHEMA_VERSION = 1

#: kind -> (field name, required type) pairs beyond the common envelope.
_REQUIRED_FIELDS: dict[str, tuple[tuple[str, type], ...]] = {
    "run": (("command", str),),
    "replication": (
        ("workload", str),
        ("policy", str),
        ("rep", int),
        ("mu_bit", Number),
        ("mu_bs", Number),
        ("execution_time", Number),
        ("stalling_probability", Number),
        ("utilization", Number),
        ("n_jobs", int),
        ("n_failures", int),
        ("unserved_workers", int),
    ),
    "cell": (("workload", str), ("mu_bit", Number), ("mu_bs", Number)),
    "stage": (("stage", str), ("seconds", Number)),
    "checkpoint": (("event", str), ("path", str), ("done", int)),
    "advance": (
        ("session", str),
        ("seq", int),
        ("applied", int),
        ("recompute", str),
        ("seconds", Number),
    ),
}


def validate_record(record: Any) -> dict:
    """Check one decoded record against the schema; returns it unchanged."""
    if not isinstance(record, dict):
        raise ValueError(f"telemetry record must be an object, got {type(record).__name__}")
    schema = record.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported telemetry schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    kind = record.get("kind")
    if kind not in _REQUIRED_FIELDS:
        raise ValueError(
            f"unknown telemetry record kind {kind!r}; "
            f"expected one of {sorted(_REQUIRED_FIELDS)}"
        )
    for field, expected in _REQUIRED_FIELDS[kind]:
        if field not in record:
            raise ValueError(f"{kind!r} record is missing required field {field!r}")
        value = record[field]
        if isinstance(value, bool) and expected is not bool:
            raise ValueError(f"{kind!r} field {field!r} must be {expected.__name__}, got bool")
        if not isinstance(value, expected):
            raise ValueError(
                f"{kind!r} field {field!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    return record


def replication_record(
    *,
    workload: str,
    policy: str,
    rep: int,
    params,
    result,
    elapsed_seconds: float | None = None,
    **extra,
) -> dict:
    """Build one ``replication`` record from a params/result pair.

    *params* is a :class:`~repro.sim.engine.SimParams`, *result* a
    :class:`~repro.sim.engine.SimResult`; the record is valid by
    construction (and validated again on write).
    """
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "replication",
        "workload": workload,
        "policy": policy,
        "rep": int(rep),
        "mu_bit": float(params.mu_bit),
        "mu_bs": float(params.mu_bs),
        "batch_size_dist": params.batch_size_dist,
        "failure_prob": float(params.failure_prob),
        "rollover": bool(params.rollover),
        "execution_time": float(result.execution_time),
        "stalling_probability": float(result.stalling_probability),
        "utilization": float(result.utilization),
        "n_jobs": int(result.n_jobs),
        "n_failures": int(result.n_failures),
        "unserved_workers": int(result.unserved_workers),
        "batches_until_last_assignment": int(result.batches_until_last_assignment),
        "stalled_batches": int(result.stalled_batches),
        "requests_until_last_assignment": int(result.requests_until_last_assignment),
        "elapsed_seconds": (
            float(elapsed_seconds) if elapsed_seconds is not None else None
        ),
    }
    record.update(extra)
    return record


class TelemetryWriter:
    """Append-one-JSON-object-per-line writer.

    Records are validated before they touch the file, so a telemetry log
    can always be read back with :func:`read_telemetry`.  When the writer
    owns a path it streams into a staging file next to the destination
    and publishes it atomically on ``close()`` (fsync + rename, see
    :mod:`repro.robust.io`) — the log at the destination path only ever
    exists complete; a crashed run leaves the staging file behind
    instead of a torn log.  Usable as a context manager; ``close()`` is
    idempotent.
    """

    def __init__(self, destination: str | Path | IO[str]):
        if hasattr(destination, "write"):
            self._fh: IO[str] = destination
            self._owns = False
            self.path = None
            self._staging = None
        else:
            self.path = Path(destination)
            self._staging = self.path.with_name(
                f".{self.path.name}.partial-{os.getpid()}"
            )
            self._fh = open(self._staging, "w", encoding="utf-8")
            self._owns = True
        self.n_records = 0

    def write(self, record: dict) -> None:
        validate_record(record)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.n_records += 1

    def flush(self) -> None:
        """Push buffered records to the OS (staging file, if path-owned)."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if self._owns and not self._fh.closed:
            from ..robust.io import publish_atomic

            publish_atomic(self._fh, self._staging, self.path)

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_telemetry(source: str | Path | IO[str]) -> list[dict]:
    """Parse and validate a telemetry JSONL file; blank lines are skipped.

    Raises ``ValueError`` (with the line number) on any malformed or
    schema-violating line — partial reads are never returned.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"telemetry line {lineno}: invalid JSON ({exc})") from None
        try:
            records.append(validate_record(record))
        except ValueError as exc:
            raise ValueError(f"telemetry line {lineno}: {exc}") from None
    return records
