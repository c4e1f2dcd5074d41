"""Incremental remnant prioritization.

:func:`~repro.core.rescheduling.reprioritize_remnant` recomputes the whole
divide/recurse/combine pipeline on the remnant dag after every change.
:class:`IncrementalScheduler` exploits a structural fact about remnants to
reuse almost all of that work across successive executed sets:

**Pending-closure lemma.**  When the executed set is precedence-closed
(every parent of an executed job is executed — exactly the state a running
DAGMan leaves behind), every descendant of a pending job is pending.
Consequences, each load-bearing below:

* *Shortcuts are session-constant.*  An arc ``u -> v`` between pending
  jobs is a shortcut of the remnant iff it is a shortcut of the full dag:
  any witness path lies among descendants of ``u``, which are all pending.
  So the transitive reduction is computed **once**, at construction, and
  the reduced remnant is just the reduced dag restricted to pending nodes.
* *Reduced out-degrees are invariant.*  All reduced children of a pending
  job are pending, so the global-scope out-degree weights the per-block
  fallback order uses never change.
* *Component schedules are replayable.*  A building block is determined by
  its (non-sink, shared-sink, global-sink) job sets and the reduced
  adjacency among them — both invariant.  Blocks that reappear across
  advances (the overwhelming majority: completing a few jobs perturbs one
  corner of the dag) are served from a cache keyed by those original-id
  tuples, skipping recognition/profile work entirely.  Misses go through
  a session-long shape table, so a new block of a known shape is not
  solved again either.
* *Removal is monotone.*  Each tick's executed set contains the last
  one's, so the scheduler carries one :class:`~repro.core.decompose.Remnant`
  over the reduced dag, in original ids, and applies its death update to
  the newly completed jobs only.  An executed set that is not a superset
  of the carried one rebuilds the state (counted as
  ``live.remnant.rebuilds``).

The decomposition itself is re-run per recompute (its detach order is
history-sensitive, so patching it is unsound), as ``decompose(reduced,
remnant=state)``: no remnant dag is built and no job renumbered.
Original ids order like the ascending renumbering of
``Dag.induced_subgraph(pending)``, so every id tie-break, hence every
output byte, matches a from-scratch run.  Component-cache hits need no
remap, and the combine phase shares one memo (pairwise class priorities
and round decisions, see :func:`~repro.core.greedy.greedy_combine`)
across the session.

The contract — pinned by the property suite in ``tests/live/`` — is that
:meth:`IncrementalScheduler.priorities` is byte-identical to
``reprioritize_remnant(dag, executed).priorities`` for every
precedence-closed executed set, with default pipeline knobs.
"""

from __future__ import annotations

import time

from ..core.component import schedule_component
from ..core.decompose import Remnant, decompose
from ..core.greedy import greedy_combine
from ..dag.graph import Dag, fingerprint_arcs
from ..dag.transitive import remove_shortcuts

__all__ = ["IncrementalScheduler"]

#: Metrics counter of priority recomputes.
RECOMPUTE_COUNTER = "live.recompute.incremental"


class _ReplayedComponent:
    """Cached stand-in for :class:`ScheduledComponent`.

    Carries exactly the attributes the combine phase reads (``index``,
    ``schedule``, ``profile``, ``profile_key``, ``family``).  One object
    per cached block; a hit rewrites its ``index`` for the current tick
    instead of constructing anything.
    """

    __slots__ = ("index", "schedule", "profile", "profile_key", "family")

    def __init__(self, sc):
        self.index = sc.index
        self.schedule = sc.schedule
        self.profile = sc.profile
        self.profile_key = sc.profile_key
        self.family = sc.family


class IncrementalScheduler:
    """Priorities for a shrinking remnant, byte-identical to the oracle.

    Parameters
    ----------
    dag:
        The full workflow dag.  The transitive reduction is computed once
        here; everything else is derived per recompute.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; recompute
        counts, cache traffic and latencies land under ``live.*``.
    """

    def __init__(self, dag: Dag, *, metrics=None):
        self.dag = dag
        self.metrics = metrics
        reduced, shortcuts = remove_shortcuts(dag)
        self._reduced = reduced
        self._sinks = reduced.sinks()
        #: the remnant of the executed set ``_executed``, over ``_reduced``
        self._remnant = Remnant.of(reduced)
        self._executed: set[int] = set()
        self.n_shortcuts = len(shortcuts)
        #: per-component schedule cache: original-id role tuples ->
        #: the block's _ReplayedComponent
        self._component_cache: dict[tuple, _ReplayedComponent] = {}
        #: schedule_component's shape table, consulted on cache misses
        self._shapes: dict = {}
        #: greedy_combine's memo: class-pair priorities and round winners
        self._combine_memo: dict = {}
        self.component_hits = 0
        self.component_misses = 0
        self.recomputes = 0
        self.remnant_rebuilds = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def priorities(self, executed) -> list[int]:
        """Remnant priorities for this (precedence-closed) executed set.

        Returns a full-length list over original job ids: executed jobs
        carry 0, the first remnant job carries ``len(pending)`` down to 1
        for the last — exactly the oracle's encoding.  The executed set is
        trusted here (``LiveSession`` validates closure as events apply).
        """
        started = time.perf_counter()
        result = self._incremental(executed)
        if self.metrics is not None:
            self.metrics.timer("live.recompute").add(
                time.perf_counter() - started
            )
            self.metrics.counter(RECOMPUTE_COUNTER).inc()
        return result

    def remnant_fingerprint(self, executed) -> str:
        """``Dag.fingerprint()`` of the (unreduced) remnant, without
        building it.

        Mirrors the canonical algorithm over the pending-induced subgraph:
        pending jobs renumbered in ascending order, arcs enumerated per
        source in sorted-child order.  All children of a pending job are
        pending (closure lemma) and the renumbering is monotone, so sorted
        original children map to sorted local children directly.
        """
        executed_set = executed if isinstance(executed, (set, frozenset)) else set(executed)
        dag = self.dag
        pending = [u for u in range(dag.n) if u not in executed_set]
        local = {orig: i for i, orig in enumerate(pending)}
        return fingerprint_arcs(
            len(pending),
            (
                (local[u], local[v])
                for u in pending
                for v in sorted(dag.children(u))
            ),
        )

    def stats(self) -> dict:
        """Reuse counters (JSON-serializable)."""
        return {
            "recomputes": self.recomputes,
            "component_hits": self.component_hits,
            "component_misses": self.component_misses,
            "components_cached": len(self._component_cache),
            "combine_memo_entries": len(self._combine_memo),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _carry(self, executed_set) -> Remnant:
        """The carried remnant state, advanced to *executed_set*."""
        carried = self._executed
        new = executed_set - carried
        if len(executed_set) - len(new) != len(carried):
            # Not a superset of the carried set: start over.
            self.remnant_rebuilds += 1
            if self.metrics is not None:
                self.metrics.counter("live.remnant.rebuilds").inc()
            self._remnant = Remnant.of(self._reduced)
            carried = self._executed = set()
            new = executed_set
        self._remnant.remove(self._reduced.children, list(new))
        carried.update(new)
        return self._remnant

    def _incremental(self, executed) -> list[int]:
        executed_set = executed if isinstance(executed, (set, frozenset)) else set(executed)
        self.recomputes += 1
        remnant = self._carry(executed_set)
        reduced = self._reduced
        decomposition = decompose(reduced, remnant=remnant)
        cache = self._component_cache
        hits_before = self.component_hits
        misses_before = self.component_misses
        scheduled = []
        cache_get = cache.get
        for comp in decomposition.components:
            key = (comp.nonsinks, comp.shared_sinks, comp.global_sinks)
            sc = cache_get(key)
            if sc is not None:
                self.component_hits += 1
                sc.index = comp.index  # read by this tick's combine only
            else:
                self.component_misses += 1
                sc = cache[key] = _ReplayedComponent(
                    schedule_component(reduced, comp, shapes=self._shapes))
            scheduled.append(sc)
        if self.metrics is not None:
            self.metrics.counter("live.component.hits").inc(
                self.component_hits - hits_before
            )
            self.metrics.counter("live.component.misses").inc(
                self.component_misses - misses_before
            )

        combined = greedy_combine(
            decomposition, scheduled, memo=self._combine_memo
        )
        alive = remnant.alive
        schedule = combined.nonsink_schedule
        schedule.extend(u for u in self._sinks if alive[u])
        n_pending = remnant.n_alive
        priorities = [0] * self.dag.n
        for position, u in enumerate(schedule):
            priorities[u] = n_pending - position
        return priorities
