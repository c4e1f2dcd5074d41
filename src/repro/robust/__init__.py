"""Fault tolerance for long-running experiments.

The paper's evaluation grid is ``p x q`` cells x hundreds of replications
per workload — exactly the batch shape that dies at 90% when one worker
is OOM-killed or a machine reboots.  This package makes the execution
stack survive (and lets tests *prove* it survives) crashes, hangs and
interrupts:

* :mod:`repro.robust.retry` — :class:`RetryPolicy`, which the pool loop
  (:func:`repro.sim.parallel.iter_chunk_results`) applies as its error
  path: per-chunk retry with exponential backoff, a progress deadline
  that declares a hung pool dead, pool rebuilds, and graceful
  degradation to in-process serial execution.  Chunks are pure functions
  of their seeds, so every recovery action is bit-identical to a clean
  run.
* :mod:`repro.robust.checkpoint` — fingerprinted, schema-versioned,
  append-only JSONL checkpoints; ``--resume`` skips completed
  cells and reproduces the uninterrupted output byte-for-byte, and a
  fingerprint mismatch is a hard error rather than silent reuse.
* :mod:`repro.robust.faults` — :class:`FaultPlan`, the deterministic
  fault injector (kill a worker, delay a chunk, corrupt a checkpoint
  record) behind the recovery test suite and the CI chaos job.
* :mod:`repro.robust.io` — :func:`write_atomic`, the tmp+fsync+rename
  write used for every durable artifact (checkpoint headers, telemetry
  logs, benchmark results).
"""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".checkpoint": (
        "CHECKPOINT_SCHEMA",
        "CODE_SCHEMA_VERSION",
        "Checkpoint",
        "CheckpointError",
        "FingerprintMismatch",
        "fingerprint",
    ),
    ".faults": ("FaultPlan", "InjectedFault", "corrupt_checkpoint"),
    ".io": ("publish_atomic", "write_atomic"),
    ".retry": ("RetryPolicy", "retry_async"),
})

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CODE_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "FaultPlan",
    "FingerprintMismatch",
    "InjectedFault",
    "RetryPolicy",
    "corrupt_checkpoint",
    "fingerprint",
    "publish_atomic",
    "retry_async",
    "write_atomic",
]
