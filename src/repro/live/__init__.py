"""Live rescheduling: stateful execution sessions over a prioritized dag.

The paper's tool prioritizes a dag once, offline.  This package tracks a
*running* execution: a :class:`~repro.live.session.LiveSession` wraps a
fingerprinted :class:`~repro.dag.graph.Dag` plus a per-job state vector,
consumes event batches (``complete`` / ``fail`` / ``retry_exhausted`` /
``straggler_timeout``) and re-emits priorities for the remnant after every
batch.  The heavy lifting is done by
:class:`~repro.live.incremental.IncrementalScheduler`, which reuses the
session-constant parts of the divide/recurse/combine pipeline (the
transitive reduction, per-component schedules, pairwise class priorities
and combine-round decisions) so an advance costs a fraction of a
from-scratch :func:`~repro.core.rescheduling.reprioritize_remnant` — while
staying byte-identical to it, which the property suite pins.

:class:`~repro.live.store.SessionStore` keeps many sessions, serializes
access per session, and (optionally) persists every advance through a
fingerprinted :class:`~repro.robust.checkpoint.Checkpoint` so a killed
process recovers its sessions with identical state.
"""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".incremental": ("IncrementalScheduler",),
    ".policy": ("LivePrioPolicy",),
    ".session": (
        "EVENT_KINDS",
        "EventError",
        "LiveSession",
        "SequenceError",
        "SessionError",
        "validate_events",
    ),
    ".store": (
        "SessionExists",
        "SessionStore",
        "session_token",
        "valid_session_name",
    ),
    ".stream": ("EventPlan", "event_stream"),
})

__all__ = [
    "EVENT_KINDS",
    "EventError",
    "EventPlan",
    "event_stream",
    "IncrementalScheduler",
    "LivePrioPolicy",
    "LiveSession",
    "SequenceError",
    "SessionError",
    "SessionExists",
    "SessionStore",
    "session_token",
    "valid_session_name",
    "validate_events",
]
