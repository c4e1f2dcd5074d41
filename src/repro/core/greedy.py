"""Greedy combine phase (Step 6): emit blocks by maximum minimum priority.

At each round the candidates are the *sources* of the remnant superdag.
Candidate ``C_i`` is scored by ``p_i = min_j priority(C_i over C_j)`` across
the other candidates: executing ``C_i`` now can "lose" at most a factor
``1/p_i`` of the best possible eligibility against any alternative.  The
block maximizing ``p_i`` is emitted (its non-sinks are appended to the
global schedule in the block's own order) and removed from the superdag.

When the theoretical algorithm's Steps 4-5 would have succeeded, this greedy
regimen reproduces its stable topological order, hence IC optimality.

Engineering: priorities depend on blocks only through their eligibility
profiles, and scientific dags contain thousands of blocks sharing a handful
of distinct profiles.  Candidates are therefore grouped into *profile
classes*, and each round scores the classes rather than the blocks.  One
memo (see :func:`greedy_combine`) holds both kinds of repeated work: the
priority of each ordered class pair, and the winning classes of each round
signature.  So a dag computes each pairwise priority once and pays the
class-scoring loop once per distinct round, not once per block.  Within a
class, blocks are emitted in detachment order, which keeps the sort stable
in the theory's sense.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..theory.priority import priority_over
from .component import ScheduledComponent
from .decompose import Decomposition

__all__ = ["CombineResult", "greedy_combine", "topological_combine"]


@dataclass
class CombineResult:
    """Outcome of the combine phase.

    ``component_order`` is the emission order (component indices);
    ``nonsink_schedule`` concatenates the block schedules accordingly.
    """

    component_order: list[int]
    nonsink_schedule: list[int]


class _ClassRegistry:
    """Active superdag sources, grouped by profile class: ``heaps[key]``
    holds the class's component indices (a min-heap, so its head is the
    earliest detached), and a class leaves both dicts when it empties."""

    def __init__(self):
        self.heaps: dict[bytes, list[int]] = {}
        self.profiles: dict[bytes, object] = {}

    def add(self, sc: ScheduledComponent) -> None:
        key = sc.profile_key
        if key not in self.heaps:
            self.heaps[key] = []
            self.profiles[key] = sc.profile
        heapq.heappush(self.heaps[key], sc.index)

    def pop(self, key: bytes) -> int:
        index = heapq.heappop(self.heaps[key])
        if not self.heaps[key]:
            del self.heaps[key]
            del self.profiles[key]
        return index


def greedy_combine(
    decomposition: Decomposition,
    scheduled: list[ScheduledComponent],
    *,
    memo: dict | None = None,
) -> CombineResult:
    """Order the building blocks by the greedy max-min-priority rule.

    One dict, *memo*, holds two kinds of entry:

    * an ordered class pair ``(key_i, key_j)`` maps to
      ``priority_over(profile_i, profile_j)``, so each pair is computed
      once however many rounds and blocks meet it;
    * a round signature ``(classes, flags)`` maps to that round's winning
      classes (a frozenset of class keys).

    The two kinds cannot collide: a pair key is two ``bytes``, a round key
    is two tuples, and bytes never equal a tuple.

    The round *signature* is the sorted class keys plus each class's own
    multiplicity>=2 flag, the only inputs the score computation reads
    (scores are pure functions of profile bytes; a class's score includes
    the self-pairing term exactly when its own multiplicity is >= 2).
    Rounds of a dag with thousands of blocks in a handful of classes
    repeat their signatures, so the quadratic class-scoring loop runs
    once per distinct signature.  The block actually emitted still
    depends on the per-round detachment order, so only the score argmax
    is memoized.

    The result is identical with or without a caller's *memo*; passing one
    only shares the entries across calls: a long-lived caller (the
    incremental rescheduler, which sees near-identical rounds and the same
    classes on every advance) keeps them from one call to the next.
    ``None`` uses a memo local to this call.
    """
    if memo is None:
        memo = {}
    indeg = [len(ps) for ps in decomposition.super_parents]
    registry = _ClassRegistry()
    heaps = registry.heaps
    profiles = registry.profiles
    for i, sc in enumerate(scheduled):
        if sc.index != i:
            raise AssertionError(
                f"scheduled component {i} has index {sc.index}; "
                "components must arrive in index order"
            )
        if indeg[i] == 0:
            registry.add(sc)

    component_order: list[int] = []
    nonsink_schedule: list[int] = []
    emitted = 0
    total = len(scheduled)
    super_children = decomposition.super_children
    while heaps:
        keys = list(heaps)
        if len(keys) == 1:
            # A single class: all candidates tie; emit in detachment order.
            best_key = keys[0]
        else:
            ordered = sorted(keys)
            signature = (
                tuple(ordered),
                tuple([len(heaps[k]) >= 2 for k in ordered]),
            )
            winners = memo.get(signature)
            if winners is None:
                best_score = -1.0
                scores: dict[bytes, float] = {}
                for key in keys:
                    profile = profiles[key]
                    paired = len(heaps[key]) >= 2
                    values = []
                    for other in keys:
                        if other == key and not paired:
                            continue
                        pair = (key, other)
                        value = memo.get(pair)
                        if value is None:
                            value = memo[pair] = priority_over(
                                profile, profiles[other]
                            )
                        values.append(value)
                    score = min(values, default=1.0)
                    scores[key] = score
                    if score > best_score:
                        best_score = score
                winners = memo[signature] = frozenset(
                    key for key in keys if scores[key] == best_score
                )
            # Among the max-score classes, emit the one holding the
            # earliest-detached block; peeks are distinct across classes,
            # so this matches the strict-improvement scan it replaces.
            best_key = None
            best_peek = -1
            for key in keys:
                if key not in winners:
                    continue
                peek = heaps[key][0]
                if best_key is None or peek < best_peek:
                    best_key, best_peek = key, peek
        index = registry.pop(best_key)
        component_order.append(index)
        nonsink_schedule.extend(scheduled[index].schedule)
        emitted += 1
        for child in super_children[index]:
            indeg[child] -= 1
            if indeg[child] == 0:
                registry.add(scheduled[child])
    if emitted != total:
        raise AssertionError(
            f"superdag combine emitted {emitted} of {total} components; "
            "the superdag must be cyclic (decomposition bug)"
        )
    return CombineResult(
        component_order=component_order,
        nonsink_schedule=nonsink_schedule,
    )


def topological_combine(
    decomposition: Decomposition, scheduled: list[ScheduledComponent]
) -> CombineResult:
    """Ablation baseline: emit blocks in plain topological (detachment-order
    tie-broken) order, ignoring priorities.  *scheduled* is in index
    order, as :func:`greedy_combine` requires."""
    indeg = [len(ps) for ps in decomposition.super_parents]
    heap = [i for i in range(len(scheduled)) if indeg[i] == 0]
    heapq.heapify(heap)
    component_order: list[int] = []
    nonsink_schedule: list[int] = []
    while heap:
        i = heapq.heappop(heap)
        component_order.append(i)
        nonsink_schedule.extend(scheduled[i].schedule)
        for child in decomposition.super_children[i]:
            indeg[child] -= 1
            if indeg[child] == 0:
                heapq.heappush(heap, child)
    if len(component_order) != len(scheduled):
        raise AssertionError("superdag contains a cycle")
    return CombineResult(
        component_order=component_order, nonsink_schedule=nonsink_schedule
    )
