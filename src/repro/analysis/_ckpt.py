"""Checkpoint records and telemetry replay shared by the analysis drivers.

A driver (the sweep, a league, a calibration) runs *units* of work — a
sweep cell, a league entrant, a calibration step — through
:func:`repro.sim.replication.iter_units`.  Each unit has a checkpoint key
and declared *sides*: the policy names of its replication batches, in
the order a fresh unit writes its ``replication`` records.  A
:class:`UnitLedger` does the rest for every driver alike: it restores a
unit's stored payload, replays the unit's stored replication rows,
writes fresh ``replication`` records, records completed units durably
and writes the ``checkpoint`` telemetry records.

With both a checkpoint and telemetry, each recorded payload carries the
unit's raw per-replication :class:`~repro.sim.engine.SimResult` rows as
``{"replications": {side: [row, ...]}}``, so a resumed run re-emits the
exact ``replication`` records an uninterrupted run would have written.
Rows are plain lists in :data:`RESULT_FIELDS` order — floats round-trip
exactly through JSON, so restored results are bit-identical.
"""

from __future__ import annotations

from ..robust.checkpoint import CheckpointError
from ..sim.engine import SimResult

__all__ = [
    "RESULT_FIELDS",
    "UnitLedger",
    "result_from_row",
    "result_to_row",
]

#: SimResult's stored fields, in checkpoint row order.
RESULT_FIELDS = (
    "execution_time",
    "n_jobs",
    "batches_until_last_assignment",
    "stalled_batches",
    "requests_until_last_assignment",
    "n_failures",
    "unserved_workers",
)


def result_to_row(result: SimResult) -> list:
    return [getattr(result, field) for field in RESULT_FIELDS]


def result_from_row(row) -> SimResult:
    return SimResult(**dict(zip(RESULT_FIELDS, row)))


class UnitLedger:
    """Restore, replay and record one driver run's units.

    *checkpoint* (a :class:`~repro.robust.checkpoint.Checkpoint`) and
    *telemetry* (a :class:`~repro.obs.recorder.TelemetryRecorder`) may
    each be ``None``; every method is then a no-op for that half.
    """

    __slots__ = ("checkpoint", "telemetry", "workload", "restored")

    def __init__(self, checkpoint, telemetry, workload: str):
        self.checkpoint = checkpoint
        self.telemetry = telemetry
        self.workload = workload
        self.restored = 0

    def restore(self, key: str, sides, params) -> dict | None:
        """Unit *key*'s stored payload, or ``None`` if it must run.

        A restored unit's stored rows are replayed as ``replication``
        records in *sides* order, with ``elapsed_seconds=None`` — the
        work was not redone.
        """
        if self.checkpoint is None:
            return None
        payload = self.checkpoint.get(key)
        if payload is None:
            return None
        if self.telemetry is not None:
            stored = payload.get("replications", {})
            if not isinstance(stored, dict):
                raise CheckpointError(
                    f"{self.checkpoint.path}: unit {key!r} stores its "
                    "replications in an older layout; rerun without "
                    "resuming"
                )
            self._emit(
                sides,
                params,
                [[result_from_row(row) for row in stored.get(side, ())]
                 for side in sides],
                None,
            )
        self.restored += 1
        return payload

    def restored_all(self) -> None:
        """Write the run's one ``checkpoint`` ``restore`` record (with the
        restored count), if any unit was restored."""
        if self.telemetry is not None and self.restored:
            self.telemetry.checkpoint(
                event="restore", path=self.checkpoint.path, done=self.restored
            )

    def complete(
        self, key: str, sides, params, results, elapsed, payload: dict
    ) -> None:
        """A freshly run unit: write its ``replication`` records (per side,
        in *sides* order), then durably record *payload* under *key* —
        with the rows when telemetry is on too."""
        if self.telemetry is not None:
            self._emit(sides, params, results, elapsed)
        if self.checkpoint is None:
            return
        if self.telemetry is not None:
            payload["replications"] = {
                side: [result_to_row(result) for result in side_results]
                for side, side_results in zip(sides, results)
            }
        self.checkpoint.record(key, payload)
        if self.telemetry is not None:
            self.telemetry.checkpoint(
                event="record",
                path=self.checkpoint.path,
                done=self.checkpoint.n_done,
            )

    def _emit(self, sides, params, results, elapsed) -> None:
        for number, (side, side_results) in enumerate(zip(sides, results)):
            for rep, result in enumerate(side_results):
                self.telemetry.replication(
                    workload=self.workload,
                    policy=side,
                    rep=rep,
                    params=params,
                    result=result,
                    elapsed_seconds=(
                        elapsed[number][rep] if elapsed is not None else None
                    ),
                )
