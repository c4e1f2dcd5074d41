"""Crash-safe file writes: tmp file + fsync + atomic rename.

Every durable artifact the experiments produce — telemetry logs,
``benchmarks/results/*.json``, a checkpoint's header — goes through this
module, so a crash (or an OOM kill, or a reboot) can never leave a
truncated or half-written file behind.  (Checkpoint records are appended
instead; :mod:`repro.robust.checkpoint` drops and repairs a torn tail.)  Readers like
:func:`repro.obs.events.read_telemetry` are all-or-nothing by design; a
torn artifact would make them reject an entire run's output, which is
exactly the failure mode long sweeps cannot afford.

The recipe is the classic POSIX one: write the full contents to a
temporary file in the same directory, ``fsync`` it, then ``os.replace``
it over the destination (atomic on POSIX and NTFS), and finally fsync the
directory so the rename itself is durable.  Readers therefore observe
either the old contents or the new contents, never a mixture.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO

__all__ = ["write_atomic", "publish_atomic"]


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of *directory* (durability of a rename)."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _replace_and_sync(tmp: Path, final: Path) -> None:
    os.replace(tmp, final)
    _fsync_directory(final.parent if final.parent != Path("") else Path("."))


def write_atomic(path: str | Path, text: str, *, encoding: str = "utf-8") -> Path:
    """Write *text* to *path* atomically; returns the final path.

    The temporary file lives next to the destination (``os.replace``
    requires the same filesystem) and is named after the pid so
    concurrent writers cannot trample each other's staging file; the
    replace itself serializes them (last writer wins, each write whole).
    """
    final = Path(path)
    tmp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
    fh = open(tmp, "w", encoding=encoding)
    try:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fh.close()
    _replace_and_sync(tmp, final)
    return final


def publish_atomic(fh: IO[str], tmp: str | Path, final: str | Path) -> Path:
    """Fsync an open staging file *fh*, close it, and rename it into place.

    The streaming counterpart of :func:`write_atomic` for writers that
    append incrementally (the telemetry log): the caller streams into
    *tmp* during the run and calls this once at the end, so the artifact
    at *final* only ever exists complete.
    """
    final = Path(final)
    if not fh.closed:
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
    _replace_and_sync(Path(tmp), final)
    return final
