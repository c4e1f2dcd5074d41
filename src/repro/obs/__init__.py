"""Run telemetry and profiling: measure where the tool's time goes.

The paper's core argument — prio keeps the eligible pool large so
parallelism can be maintained — is only observable through
instrumentation, and the ROADMAP's "as fast as the hardware allows" goal
needs a measurement layer before any perf claim can be honest.  This
package provides that layer:

* :mod:`repro.obs.metrics` — an in-process registry of counters, gauges
  and wall-clock timers (context-manager API).  The default everywhere is
  *no registry* (``None``), and every hot-path hook is guarded so the
  instrumented code paths cost nothing when telemetry is off.
* :mod:`repro.obs.events` — a structured JSONL event log: one record per
  simulation replication (seed, policy, cell parameters, the
  :class:`~repro.sim.engine.SimResult` fields, wall-clock), plus run
  headers, per-cell summaries and pipeline stage timings; with a
  validating reader so downstream analyses never re-guess the schema.
* :mod:`repro.obs.recorder` — :class:`TelemetryRecorder`, the handle the
  CLI's ``--telemetry PATH`` flag creates and the analyses thread down to
  the simulator.
* :mod:`repro.obs.progress` — per-cell progress + ETA lines for the
  long-running sweeps.
* :mod:`repro.obs.profile` — ``repro profile``: run a named workload
  end-to-end and break its wall-clock down per stage.

Telemetry is observational only: it never draws from any random
generator, so enabling it cannot perturb RNG streams — the serial-vs-
parallel bit-identical guarantee survives with telemetry on.
"""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".events": (
        "SCHEMA_VERSION",
        "TelemetryWriter",
        "read_telemetry",
        "replication_record",
        "validate_record",
    ),
    ".metrics": ("Counter", "Gauge", "MetricsRegistry", "Timer"),
    ".profile": ("ProfileReport", "profile_workload"),
    ".progress": ("ProgressMeter",),
    ".recorder": ("TelemetryRecorder",),
})

__all__ = [
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ProfileReport",
    "ProgressMeter",
    "TelemetryRecorder",
    "TelemetryWriter",
    "Timer",
    "profile_workload",
    "read_telemetry",
    "replication_record",
    "validate_record",
]
