"""Deterministic fault injection for the worker-pool execution stack.

Proving that the retry/checkpoint layer actually recovers requires
*injecting* failures, not hoping for them.  A :class:`FaultPlan` scripts
faults against specific ``(chunk, attempt)`` coordinates — chunk ``k``'s
third attempt times out, chunk ``j``'s first attempt kills its worker —
so every recovery path (retry, pool rebuild, serial degradation,
checkpoint resume) can be exercised by an ordinary deterministic test or
by the CI chaos job.

Chunks are numbered in the order the pool loop pulls them from its task
iterator (see :func:`repro.sim.parallel.iter_chunk_results`), which is
itself deterministic for a fixed configuration, so a plan written once
keeps hitting the same chunk across runs.  Attempts count from 0.

Fault kinds:

``kill``
    The worker process exits hard (``os._exit``), which the parent
    observes as ``BrokenProcessPool`` — the closest stand-in for an OOM
    kill or a machine reboot.  Outside a worker (serial degradation) a
    kill degenerates to an :class:`InjectedFault` so the fault plan can
    never take the parent process down.
``fail``
    The chunk raises :class:`InjectedFault` — an ordinary worker
    exception, retried without rebuilding the pool.
``delay``
    The chunk sleeps before running — combined with a
    :class:`~repro.robust.retry.RetryPolicy` timeout this simulates a
    hung worker.

Because chunks are pure functions of their ``(index, SeedSequence)``
entries, any schedule of injected faults leaves the final metrics
bit-identical to a fault-free run — the property the test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

__all__ = ["InjectedFault", "FaultPlan", "corrupt_checkpoint"]


class InjectedFault(RuntimeError):
    """Raised (or simulated) by an injected fault; never a real bug."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults keyed by ``(chunk, attempt)``.

    ``kills`` and ``failures`` are collections of ``(chunk, attempt)``
    pairs; ``delays`` maps ``(chunk, attempt)`` to seconds of injected
    sleep.  A coordinate may appear in at most one of the three.
    """

    kills: frozenset = frozenset()
    failures: frozenset = frozenset()
    delays: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kills", frozenset(self.kills))
        object.__setattr__(self, "failures", frozenset(self.failures))
        object.__setattr__(
            self, "delays", MappingProxyType(dict(self.delays))
        )
        overlap = (
            (self.kills & self.failures)
            | (self.kills & set(self.delays))
            | (self.failures & set(self.delays))
        )
        if overlap:
            raise ValueError(
                f"fault coordinates scheduled twice: {sorted(overlap)}"
            )
        for seconds in self.delays.values():
            if seconds < 0:
                raise ValueError("delay faults must be non-negative")

    def spec(self, chunk: int, attempt: int) -> tuple | None:
        """The fault for this coordinate: ``(kind, value)`` or ``None``."""
        key = (chunk, attempt)
        if key in self.kills:
            return ("kill", None)
        if key in self.failures:
            return ("fail", None)
        if key in self.delays:
            return ("delay", self.delays[key])
        return None

    @property
    def empty(self) -> bool:
        return not (self.kills or self.failures or self.delays)


def corrupt_checkpoint(
    path: str | Path, line: int = 1, how: str = "garbage"
) -> None:
    """Damage one record of a checkpoint file (for recovery tests).

    *line* is 0-based; *how* is ``"garbage"`` (replace the line with
    non-JSON bytes) or ``"truncate"`` (cut the line in half, as a torn
    write would).  The checkpoint reader must reject garbage records
    loudly — silent reuse of a damaged checkpoint would poison a resumed
    run's statistics.
    """
    target = Path(path)
    lines = target.read_text(encoding="utf-8").splitlines()
    if not 0 <= line < len(lines):
        raise IndexError(f"checkpoint has {len(lines)} lines, no line {line}")
    if how == "garbage":
        lines[line] = '{"kind": "entry", not json at all'
    elif how == "truncate":
        lines[line] = lines[line][: max(1, len(lines[line]) // 2)]
    else:
        raise ValueError(f"unknown corruption mode {how!r}")
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
