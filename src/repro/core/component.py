"""Per-component schedules and eligibility profiles (Step 3).

Each building block receives a schedule over its *non-sinks*:

* if the block matches a Fig. 2 family
  (:func:`repro.theory.recognize.recognize_bipartite_family`), the family's
  explicit IC-optimal source order is used;
* otherwise jobs run in order of descending out-degree (the paper's
  fallback, which automatically leaves sinks last), realized as a
  priority-driven topological sort so precedence always holds.

The block's eligibility profile ``E(x)`` for ``x = 0 .. s_i`` (computed on
the component's induced subgraph, sinks included) feeds the priority
relation of the combine phase.

Scientific dags repeat a handful of block *shapes* thousands of times
(SDSS-medium: 6,305 blocks in 9 shapes), and everything above depends on
the shape alone — plus, for the out-degree fallback, the blocks'
out-degrees in the full dag.  :func:`schedule_component` therefore keys a
shape table on the block's local arc tuple and solves each shape once; the
blocks of one shape share its read-only profile array and the profile's
key bytes, so the combine phase's class key is computed once per shape (or
per fallback weight entry), not once per block.

Every arc of a bipartite block leaves one of its non-sinks and stays in
the block, so a bipartite key is read off the non-sinks' child tuples:
no membership filter, a local-id map over the sinks only, and none at
all for a one-source block, whose schedule is its source.  Only blocks
of the general step map every member and filter arcs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Sequence

import numpy as np

from ..dag.graph import Dag
from ..theory.eligibility import partial_profile
from ..theory.recognize import recognize_bipartite_family
from .decompose import Component

__all__ = ["ScheduledComponent", "schedule_component", "outdegree_order"]

#: The arcs of a 1-Clique block, most blocks of the paper dags.
_ONE_ARC = ((0, 1),)


class ScheduledComponent:
    """A building block with its schedule and eligibility profile.

    ``schedule`` lists the component's non-sinks (original job ids) in
    execution order; ``profile[x]`` is the eligible-job count inside the
    block after the first *x* of them executed.  ``family`` names the
    matched catalog family, or ``None`` when the out-degree fallback was
    used.  ``profile_key`` is the profile's int64 bytes, the class key of
    the combine phase; blocks of one shape share the key their shape
    computed once.

    A plain slotted class, treated as read-only, like
    :class:`~repro.core.decompose.Component`: a frozen dataclass costs
    several times as much to build, and blocks are neither hashed nor
    compared.
    """

    __slots__ = ("component", "index", "schedule", "profile", "family",
                 "profile_key")

    def __init__(
        self,
        component: Component,
        schedule: tuple[int, ...],
        profile: np.ndarray,
        family: str | None,
        profile_key: bytes | None = None,
    ):
        self.component = component
        self.index = component.index
        self.schedule = schedule
        self.profile = profile
        self.family = family
        if profile_key is None:
            profile_key = np.asarray(profile, dtype=np.int64).tobytes()
        self.profile_key = profile_key

    def __repr__(self) -> str:
        return (
            f"ScheduledComponent(component={self.component!r}, "
            f"schedule={self.schedule}, profile={self.profile!r}, "
            f"family={self.family!r})"
        )


def outdegree_order(subdag: Dag, *, weight: Sequence[int]) -> list[int]:
    """Topological order of *subdag*'s non-sinks by descending *weight*.

    *weight* is each local node's out-degree in the full dag the block
    was detached from (children outside the block also benefit from
    early execution).  Ties break on node id, so the order is
    deterministic.
    """
    indeg = [subdag.in_degree(u) for u in range(subdag.n)]
    heap = [
        (-weight[u], u)
        for u in range(subdag.n)
        if indeg[u] == 0 and not subdag.is_sink(u)
    ]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, u = heapq.heappop(heap)
        order.append(u)
        for v in subdag.children(u):
            indeg[v] -= 1
            if indeg[v] == 0 and not subdag.is_sink(v):
                heapq.heappush(heap, (-weight[v], v))
    return order


class _Solved:
    """One shape's result: local order, read-only profile, its key bytes
    (computed here, once per shape or fallback weight entry), family."""

    __slots__ = ("order", "profile", "key", "family")

    def __init__(self, subdag: Dag, order: list[int], family: str | None,
                 component: Component):
        k = len(component.nonsinks)
        if sorted(order) != list(range(k)):
            raise AssertionError(
                f"component {component.index}: schedule covers {len(order)} "
                f"jobs, expected the {k} non-sinks"
            )
        profile = partial_profile(subdag, order)
        profile.flags.writeable = False
        self.order = order
        self.profile = profile
        self.key = np.asarray(profile, dtype=np.int64).tobytes()
        self.family = family


class _Fallback:
    """An unmatched shape: solved per weight tuple."""

    __slots__ = ("subdag", "by_weight")

    def __init__(self, subdag: Dag):
        self.subdag = subdag
        self.by_weight: dict[tuple[int, ...], _Solved] = {}


def _solve_shape(
    subdag: Dag,
    component: Component,
    use_catalog: bool,
    exact_bipartite_limit: int,
) -> _Solved | _Fallback:
    """Schedule the shape of *component*, given as *subdag* in local ids."""
    if use_catalog:
        rec = recognize_bipartite_family(subdag)
        if rec is not None:
            return _Solved(subdag, rec.source_order, rec.family, component)
    if (
        exact_bipartite_limit > 0
        and 0 < len(component.nonsinks) <= exact_bipartite_limit
        and subdag.is_bipartite_two_level()
    ):
        from ..theory.bipartite_exact import exact_bipartite_schedule

        exact = exact_bipartite_schedule(
            subdag, limit=exact_bipartite_limit
        )
        if exact is not None:
            return _Solved(subdag, exact, "<exact-bipartite>", component)
    return _Fallback(subdag)


def schedule_component(
    dag: Dag,
    component: Component,
    *,
    use_catalog: bool = True,
    exact_bipartite_limit: int = 0,
    shapes: dict | None = None,
) -> ScheduledComponent:
    """Schedule one building block and compute its eligibility profile.

    Parameters
    ----------
    dag:
        The full (shortcut-free) dag the component was detached from.
    use_catalog:
        When false, skip family recognition and always use the out-degree
        fallback (the ablation knob of DESIGN.md).  The fallback ranks
        jobs by their out-degree in *dag*.
    exact_bipartite_limit:
        When positive, unrecognized *bipartite* blocks with at most this
        many sources get an exact IC-optimal source order from
        :mod:`repro.theory.bipartite_exact` (extension beyond the paper's
        catalog; 0 disables).  Blocks the exact solver proves unschedulable
        fall back to the out-degree heuristic.
    shapes:
        The shape table: block shape -> solved schedule.  Pass one dict
        to every call over the same dag (``prio_schedule`` does) so each
        shape is solved once; ``None`` uses a throwaway table.  Entries
        are pure functions of their keys, so a table may outlive the dag.
    """
    nonsinks = component.nonsinks
    sinks = component.shared_sinks + component.global_sinks
    nodes = nonsinks + sinks
    n_nonsinks = len(nonsinks)
    children = dag.child_table
    # Local ids follow ``nodes``; arcs follow Dag.induced_subgraph's order.
    if not component.is_bipartite:
        local = {orig: i for i, orig in enumerate(nodes)}
        if len(local) != len(nodes):
            raise ValueError(f"component {component.index}: duplicate nodes")
        arcs = tuple(
            [
                (i, local[v])
                for i, u in enumerate(nodes)
                for v in children[u]
                if v in local
            ]
        )
    elif n_nonsinks == 0:
        arcs = ()
    elif n_nonsinks == 1:
        # A one-source block is its source and the source's children: one
        # arc to each sink, in the source's child order.  Sinks are sorted
        # within their role, so a bisection finds each local id.
        kids = children[nonsinks[0]]
        if len(kids) == 1:
            arcs = _ONE_ARC
        else:
            shared = component.shared_sinks
            global_sinks = component.global_sinks
            global_base = 1 + len(shared)
            arcs = tuple(
                [
                    (0, 1 + bisect_left(shared, v)) if children[v]
                    else (0, global_base + bisect_left(global_sinks, v))
                    for v in kids
                ]
            )
    else:
        # Every arc of a bipartite block leaves a non-sink, and every
        # child of a non-sink is in the block: no filter needed.
        local = {v: i for i, v in enumerate(sinks, n_nonsinks)}
        arcs = tuple(
            [
                (i, local[v])
                for i, u in enumerate(nonsinks)
                for v in children[u]
            ]
        )
    key = (use_catalog, exact_bipartite_limit, n_nonsinks, len(nodes), arcs)
    if shapes is None:
        shapes = {}
    entry = shapes.get(key)
    if entry is None:
        subdag = Dag(len(nodes), arcs, None, check_acyclic=False)
        entry = shapes[key] = _solve_shape(
            subdag, component, use_catalog, exact_bipartite_limit
        )
    if type(entry) is _Fallback:
        weight = tuple(map(len, map(children.__getitem__, nodes)))
        solved = entry.by_weight.get(weight)
        if solved is None:
            subdag = entry.subdag
            solved = entry.by_weight[weight] = _Solved(
                subdag, outdegree_order(subdag, weight=weight), None, component
            )
        entry = solved
    if n_nonsinks == 1:
        schedule = nonsinks
    else:
        schedule = tuple(map(nodes.__getitem__, entry.order))
    return ScheduledComponent(
        component, schedule, entry.profile, entry.family, entry.key
    )

