"""Checkpoint/resume for long-running experiment drivers.

A checkpoint is a schema-versioned JSONL file: one header line binding
the file to a **fingerprint** of everything that determines the run's
output (driver, workload, configuration, root seed, code schema), then
one ``entry`` line per completed unit of work (a sweep cell, a league
entrant, a calibration step).  A resumed run restores completed entries
and recomputes only what is missing; because every entry stores the
*exact* values an uninterrupted run would have produced (floats
round-trip exactly through JSON's shortest-repr encoding), the resumed
output is bit-identical to an uninterrupted one.

Safety rules, enforced loudly:

* fingerprint mismatch is a **hard error** (:class:`FingerprintMismatch`),
  never a silent partial reuse — resuming a sweep with a different seed
  or grid would poison its statistics;
* the header is written atomically (tmp + fsync + rename, see
  :mod:`repro.robust.io`); each record is appended as one line and
  fsynced before :meth:`Checkpoint.record` returns, so writing a record
  costs the record, not the file.  A failed append is truncated away;
* a crash mid-append can tear only the last line.  That torn tail is
  dropped on open, its work simply redone, and the file is rewritten
  once without it so the next append cannot land after the fragment;
* a checkpoint that is damaged anywhere else (bit rot, hand editing,
  the fault injector) fails to load with :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .io import write_atomic

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CODE_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "FingerprintMismatch",
    "fingerprint",
]

#: Version of the checkpoint file layout itself.
CHECKPOINT_SCHEMA = 1

#: Version of the experiment semantics (simulator + statistics).  Bump on
#: any change that alters what a (workload, config, seed) triple produces,
#: so stale checkpoints from older code hard-error instead of mixing
#: incompatible results into a resumed run.
CODE_SCHEMA_VERSION = 1


class CheckpointError(Exception):
    """The checkpoint file is missing, damaged, or not a checkpoint."""


class FingerprintMismatch(CheckpointError):
    """The checkpoint belongs to a different experiment configuration."""


def fingerprint(payload: dict) -> str:
    """A stable hex digest of a JSON-serializable experiment identity.

    Key order never matters; ``CODE_SCHEMA_VERSION`` and
    ``CHECKPOINT_SCHEMA`` are always folded in, so either version bump
    invalidates old checkpoints by construction.
    """
    canonical = json.dumps(
        {
            "checkpoint_schema": CHECKPOINT_SCHEMA,
            "code_schema": CODE_SCHEMA_VERSION,
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse(path: Path) -> tuple[dict, dict, bool]:
    """Read and validate a checkpoint file.

    Returns ``(header, records, torn)``.  *torn* is true when the file
    does not end on a record boundary (a torn trailing line was dropped,
    or the last line lacks its newline): appending to it as it stands
    would glue the next record onto the fragment.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc})") from None
    lines = text.splitlines()
    torn = not text.endswith("\n")
    if not lines or not lines[0].strip():
        raise CheckpointError(f"{path}: empty checkpoint file")
    decoded = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            decoded.append((lineno, json.loads(line)))
        except json.JSONDecodeError:
            if lineno == len(lines):
                # A torn trailing line: the signature of a crash mid-
                # append.  Drop it — that unit of work is simply redone.
                torn = True
                continue
            raise CheckpointError(
                f"{path}: corrupt checkpoint record at line {lineno}"
            ) from None
    if not decoded:
        raise CheckpointError(f"{path}: no readable checkpoint records")
    header_line, header = decoded[0]
    if (
        not isinstance(header, dict)
        or header.get("kind") != "header"
        or "fingerprint" not in header
    ):
        raise CheckpointError(f"{path}: line {header_line} is not a checkpoint header")
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema {header.get('schema')!r} "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    records: dict = {}
    for lineno, record in decoded[1:]:
        if (
            not isinstance(record, dict)
            or record.get("kind") != "entry"
            or "key" not in record
            or "payload" not in record
        ):
            raise CheckpointError(
                f"{path}: corrupt checkpoint record at line {lineno}"
            )
        records[record["key"]] = record["payload"]
    return header, records, torn


def _entry_line(key: str, payload) -> str:
    return json.dumps(
        {"kind": "entry", "key": key, "payload": payload}, sort_keys=True
    )


def _append(path: Path, data: bytes) -> None:
    """Append *data* to *path* and fsync it, or leave the file unchanged.

    If the write or the fsync raises, the file is truncated back to its
    length before the append and the error re-raised, so a failed record
    never leaves a fragment for the next one to land after.
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        end = os.fstat(fd).st_size
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        except BaseException:
            os.ftruncate(fd, end)
            raise
    finally:
        os.close(fd)


class Checkpoint:
    """Completed-work store for one experiment run.

    Use :meth:`open` — it creates a fresh checkpoint or resumes an
    existing one, verifying the fingerprint either way.  ``get`` returns
    a completed entry's payload (or ``None``), ``record`` durably adds
    one.  ``scoped(prefix)`` gives sub-drivers (one workload of a
    multi-workload report) a namespaced view of the same file.
    """

    def __init__(self, path: Path, fingerprint: str, meta: dict, records: dict):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.meta = meta
        self._records = dict(records)

    @classmethod
    def open(
        cls,
        path: str | Path,
        fingerprint: str,
        *,
        meta: dict | None = None,
        require_existing: bool = False,
    ) -> "Checkpoint":
        """Create or resume the checkpoint at *path*.

        An existing file must carry the same *fingerprint*
        (:class:`FingerprintMismatch` otherwise — never silent reuse).
        With ``require_existing`` (the CLI's ``--resume``) a missing
        file is an error instead of a fresh start.
        """
        path = Path(path)
        if path.exists():
            header, records, torn = _parse(path)
            if header["fingerprint"] != fingerprint:
                raise FingerprintMismatch(
                    f"{path}: checkpoint was written by a different "
                    f"experiment configuration (fingerprint "
                    f"{header['fingerprint'][:12]}… != expected "
                    f"{fingerprint[:12]}…); refusing to resume"
                )
            checkpoint = cls(path, fingerprint, header.get("meta") or {}, records)
            if torn:
                # One-time repair: rewrite the file without the torn tail.
                checkpoint._flush()
            return checkpoint
        if require_existing:
            raise CheckpointError(
                f"{path}: checkpoint not found (required for --resume)"
            )
        checkpoint = cls(path, fingerprint, dict(meta or {}), {})
        checkpoint._flush()
        return checkpoint

    @property
    def n_done(self) -> int:
        return len(self._records)

    @property
    def done_keys(self) -> list[str]:
        return list(self._records)

    def get(self, key: str):
        """The payload recorded under *key*, or ``None`` if not done."""
        return self._records.get(key)

    def record(self, key: str, payload) -> None:
        """Durably record one completed unit of work.

        Appends one entry line and fsyncs it before returning, so a crash
        loses at most this record, as a torn tail the next open drops.  A
        failed append raises with the file truncated back and *key* not
        recorded.  Re-recording a key keeps its first position and its
        last payload, on disk as in memory.
        """
        _append(self.path, (_entry_line(key, payload) + "\n").encode("utf-8"))
        self._records[key] = payload

    def scoped(self, prefix: str) -> "_ScopedCheckpoint":
        """A view of this checkpoint with *prefix* prepended to keys."""
        return _ScopedCheckpoint(self, prefix)

    def _flush(self) -> None:
        lines = [
            json.dumps(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "kind": "header",
                    "fingerprint": self.fingerprint,
                    "meta": self.meta,
                },
                sort_keys=True,
            )
        ]
        lines.extend(
            _entry_line(key, payload) for key, payload in self._records.items()
        )
        write_atomic(self.path, "\n".join(lines) + "\n")


class _ScopedCheckpoint:
    """A key-prefixed view of a :class:`Checkpoint` (same file)."""

    def __init__(self, base: Checkpoint, prefix: str):
        self._base = base
        self._prefix = prefix

    @property
    def path(self) -> Path:
        return self._base.path

    @property
    def n_done(self) -> int:
        return self._base.n_done

    def get(self, key: str):
        return self._base.get(self._prefix + key)

    def record(self, key: str, payload) -> None:
        self._base.record(self._prefix + key, payload)

    def scoped(self, prefix: str) -> "_ScopedCheckpoint":
        return _ScopedCheckpoint(self._base, self._prefix + prefix)
