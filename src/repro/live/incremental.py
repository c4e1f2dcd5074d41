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
* *Renumbering is monotone.*  Pending jobs are kept in ascending id order,
  so remnant-local ids order exactly like original ids and every id
  tie-break in decompose/combine — and hence every output byte — matches
  a from-scratch run on ``Dag.induced_subgraph(pending)``.

The decomposition itself is re-run per recompute (its detach order is
history-sensitive, so patching it is unsound), but over a lightweight
:class:`_RemnantView` instead of a freshly constructed :class:`Dag`, and
the combine phase shares one :class:`~repro.theory.priority.PriorityCache`
plus a round-decision memo across the session.

The contract — pinned by the property suite in ``tests/live/`` — is that
:meth:`IncrementalScheduler.priorities` is byte-identical to
``reprioritize_remnant(dag, executed).priorities`` for every
precedence-closed executed set, with default pipeline knobs.
"""

from __future__ import annotations

import time

from ..core.component import schedule_component
from ..core.decompose import decompose
from ..core.greedy import greedy_combine
from ..dag.graph import Dag, fingerprint_arcs
from ..dag.transitive import remove_shortcuts
from ..theory.priority import PriorityCache

__all__ = ["IncrementalScheduler"]


class _ReplayedComponent:
    """Cache-hit stand-in for :class:`ScheduledComponent`.

    Carries exactly the attributes the combine phase reads (``index``,
    ``schedule``, ``profile``, ``profile_key``, ``family``), skipping the
    frozen dataclass construction the full object would pay on every
    replay.
    """

    __slots__ = ("index", "schedule", "profile", "profile_key", "family")

    def __init__(self, index, schedule, profile, profile_key, family):
        self.index = index
        self.schedule = schedule
        self.profile = profile
        self.profile_key = profile_key
        self.family = family


class _RemnantView:
    """Duck-typed stand-in for the reduced remnant :class:`Dag`.

    Presents exactly the surface :func:`~repro.core.decompose.decompose`
    and :func:`~repro.core.component.schedule_component` touch — adjacency,
    degrees, sink tests and arc iteration — over precomputed local
    adjacency lists, without paying for a full ``Dag`` construction per
    recompute.  Children lists preserve the reduced dag's stored order, so
    block shapes enumerate arcs in the same order a real
    ``induced_subgraph`` of the reduced dag would.
    """

    __slots__ = ("n", "_children", "_parents")

    def __init__(self, n, children, parents):
        self.n = n
        self._children = children
        self._parents = parents

    def children(self, u):
        return self._children[u]

    def parents(self, u):
        return self._parents[u]

    def out_degree(self, u):
        return len(self._children[u])

    def in_degree(self, u):
        return len(self._parents[u])

    def is_sink(self, u):
        return not self._children[u]

    def arcs(self):
        for u in range(self.n):
            for v in self._children[u]:
                yield (u, v)


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
    mode:
        ``"incremental"`` (the default: structural reuse as documented in
        the module docstring) or ``"full"`` (run the
        :func:`~repro.core.rescheduling.reprioritize_remnant` oracle on
        every recompute — the benchmark baseline and debugging fallback).
    """

    def __init__(self, dag: Dag, *, metrics=None, mode: str = "incremental"):
        if mode not in ("incremental", "full"):
            raise ValueError(f"unknown scheduler mode: {mode!r}")
        self.dag = dag
        self.mode = mode
        self.metrics = metrics
        reduced, shortcuts = remove_shortcuts(dag)
        self._red_children = [reduced.children(u) for u in range(dag.n)]
        self._red_parents = [reduced.parents(u) for u in range(dag.n)]
        self.n_shortcuts = len(shortcuts)
        #: per-component schedule cache: original-id role tuples ->
        #: (schedule in original ids, profile array, profile key, family)
        self._component_cache: dict[tuple, tuple] = {}
        #: schedule_component's shape table, consulted on cache misses
        self._shapes: dict = {}
        #: original id -> current remnant-local id; refilled per recompute
        #: (stale entries for executed jobs are never consulted: children
        #: of pending jobs are pending, and parents are filtered first).
        self._local_arr = [0] * dag.n
        self._priority_cache = PriorityCache()
        self._combine_memo: dict = {}
        self.component_hits = 0
        self.component_misses = 0
        self.recomputes = 0
        self.full_recomputes = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def priorities(self, executed) -> list[int]:
        """Remnant priorities for this (precedence-closed) executed set.

        Returns a full-length list over original job ids: executed jobs
        carry 0, the first remnant job carries ``len(pending)`` down to 1
        for the last — exactly the oracle's encoding.  The executed set is
        trusted here (``LiveSession`` validates closure as events apply;
        the oracle path re-validates on its own).
        """
        started = time.perf_counter()
        if self.mode == "full":
            result = self._full(executed)
        else:
            result = self._incremental(executed)
        if self.metrics is not None:
            self.metrics.timer("live.recompute").add(
                time.perf_counter() - started
            )
            self.metrics.counter(f"live.recompute.{self.mode}").inc()
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
            "mode": self.mode,
            "recomputes": self.recomputes,
            "full_recomputes": self.full_recomputes,
            "component_hits": self.component_hits,
            "component_misses": self.component_misses,
            "components_cached": len(self._component_cache),
            "priority_cache": {
                "hits": self._priority_cache.hits,
                "misses": self._priority_cache.misses,
            },
            "combine_memo_entries": len(self._combine_memo),
        }

    # ------------------------------------------------------------------
    # Slow path: the from-scratch oracle
    # ------------------------------------------------------------------

    def _full(self, executed) -> list[int]:
        from ..core.rescheduling import reprioritize_remnant

        self.recomputes += 1
        self.full_recomputes += 1
        return reprioritize_remnant(self.dag, executed).priorities

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------

    def _incremental(self, executed) -> list[int]:
        executed_set = executed if isinstance(executed, (set, frozenset)) else set(executed)
        dag = self.dag
        self.recomputes += 1
        pending = [u for u in range(dag.n) if u not in executed_set]
        local = self._local_arr
        for i, orig in enumerate(pending):
            local[orig] = i
        red_children = self._red_children
        red_parents = self._red_parents
        to_local = local.__getitem__
        # Children of pending jobs are all pending (closure lemma) — map
        # without filtering; executed parents drop out.
        children = [
            list(map(to_local, red_children[orig])) for orig in pending
        ]
        parents = [
            [local[p] for p in red_parents[orig] if p not in executed_set]
            for orig in pending
        ]
        view = _RemnantView(len(pending), children, parents)

        decomposition = decompose(view)
        cache = self._component_cache
        hits_before = self.component_hits
        misses_before = self.component_misses
        scheduled = []
        to_orig = pending.__getitem__
        cache_get = cache.get
        for comp in decomposition.components:
            key = (
                tuple(map(to_orig, comp.nonsinks)),
                tuple(map(to_orig, comp.shared_sinks)),
                tuple(map(to_orig, comp.global_sinks)),
            )
            hit = cache_get(key)
            if hit is not None:
                self.component_hits += 1
                schedule_orig, profile, profile_key, family = hit
                sc = _ReplayedComponent(
                    comp.index,
                    tuple(map(to_local, schedule_orig)),
                    profile,
                    profile_key,
                    family,
                )
            else:
                self.component_misses += 1
                sc = schedule_component(view, comp, shapes=self._shapes)
                cache[key] = (
                    tuple(map(to_orig, sc.schedule)),
                    sc.profile,
                    sc.profile_key,
                    sc.family,
                )
            scheduled.append(sc)
        if self.metrics is not None:
            self.metrics.counter("live.component.hits").inc(
                self.component_hits - hits_before
            )
            self.metrics.counter("live.component.misses").inc(
                self.component_misses - misses_before
            )

        combined = greedy_combine(
            decomposition,
            scheduled,
            cache=self._priority_cache,
            memo=self._combine_memo,
        )
        schedule = list(combined.nonsink_schedule)
        schedule.extend(u for u in range(len(pending)) if not children[u])

        n_pending = len(pending)
        priorities = [0] * dag.n
        for position, u in enumerate(schedule):
            priorities[pending[u]] = n_pending - position
        return priorities
