"""The block path as it stood before one-source blocks closed in one scan.

Kept verbatim as the oracle of ``tests/core/test_block_oracle.py``:
``bipartite_block`` (the set-based probe), ``detach`` (roles from a
sorted membership scan), ``Remnant.remove`` (the one death update) and
``schedule_component``'s keying (a local-id map over every member and a
filtered arc scan).  ``_smallest_closure``, ``Component``,
``Decomposition`` and the shape table's entries are shared with
``repro.core``: the oracle pins the block path, not them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.component import (
    ScheduledComponent,
    _Fallback,
    _Solved,
    _solve_shape,
    outdegree_order,
)
from repro.core.decompose import (
    Component,
    Decomposition,
    _smallest_closure,
)
from repro.dag.graph import Dag

__all__ = ["Remnant", "decompose", "schedule_component"]


@dataclass(slots=True)
class Remnant:
    """The alive part of a dag during decomposition, in the dag's own ids.

    ``apc[u]`` counts *u*'s alive parents, ``bpc[u]`` its *bad* alive
    parents (those with ``apc != 0``); ``sources`` holds the alive jobs
    with ``apc == 0``.  Counts of dead jobs are stale and never read.
    :meth:`remove` is the one death update: decompose runs it per detached
    block, the live rescheduler on each tick's newly completed jobs.
    """

    alive: bytearray
    apc: list[int]
    bpc: list[int]
    sources: set[int]
    n_alive: int

    @classmethod
    def of(cls, dag: Dag) -> "Remnant":
        """The all-alive state of *dag*."""
        n = dag.n
        children_of = dag.children
        apc = [dag.in_degree(u) for u in range(n)]
        # A child is absorbable into a bipartite block iff bpc == 0, so the
        # bipartiteness check is O(1) per pulled job instead of O(parents).
        bpc = [0] * n
        for p in range(n):
            if apc[p]:
                for c in children_of(p):
                    bpc[c] += 1
        sources = {u for u in range(n) if apc[u] == 0}
        return cls(bytearray(b"\x01" * n), apc, bpc, sources, n)

    def copy(self) -> "Remnant":
        return Remnant(bytearray(self.alive), self.apc.copy(),
                       self.bpc.copy(), set(self.sources), self.n_alive)

    def remove(self, children_of: Callable[[int], Sequence[int]],
               jobs: Sequence[int]) -> None:
        """Mark the alive, distinct *jobs* dead and update the counts.

        Every job dies before any count moves, so "was it bad at death"
        reads its count from before the batch; the two kinds of ``bpc``
        decrement (a bad parent dies; a parent turns source) hit disjoint
        arcs, so the final counts do not depend on the order of *jobs*.
        """
        alive, apc, bpc, sources = self.alive, self.apc, self.bpc, self.sources
        for u in jobs:
            alive[u] = 0
            sources.discard(u)
        self.n_alive -= len(jobs)
        for u in jobs:
            was_bad = apc[u] != 0
            for c in children_of(u):
                if not alive[c]:
                    continue
                if was_bad:
                    # A dying non-source stops counting against its children.
                    bpc[c] -= 1
                apc[c] -= 1
                if apc[c] == 0:
                    sources.add(c)
                    # c turned source: no longer bad for its children.
                    for d in children_of(c):
                        if alive[d]:
                            bpc[d] -= 1


def decompose(dag: Dag, remnant: Remnant | None = None) -> Decomposition:
    """Decompose *dag* into building blocks plus their superdag.

    The input is expected to be shortcut-free (apply
    :func:`repro.dag.remove_shortcuts` first); shortcuts do not break the
    algorithm but degrade the block structure, exactly as the paper warns.

    *remnant* (default: all alive) restricts the run to its alive jobs; a
    copy is consumed, never the caller's state.  The caller owes two
    invariants: its counts describe *dag* minus the dead jobs (as
    :meth:`Remnant.remove` keeps them), and every child of an alive job
    is alive.  The result then equals ``decompose`` of the alive-induced
    subgraph under the monotone renumbering, with ``comp_of`` over
    *dag*'s ids (``-1`` for dead jobs).
    """
    n = dag.n
    children_of = dag.children
    parents_of = dag.parents
    state = Remnant.of(dag) if remnant is None else remnant.copy()
    alive, apc, bpc = state.alive, state.apc, state.bpc
    source_set = state.sources
    components: list[Component] = []
    comp_of = [-1] * n
    # Sources absorbed by a failed bipartite probe since the last detach.
    # A failed probe's partial S lies in one connected closure, so every
    # source in it fails too while the remnant is unchanged — but any
    # detach can flip a bad child good, so the memo dies with each detach.
    failed_since_detach: set[int] = set()

    def bipartite_block(s: int) -> tuple[set[int], set[int]] | None:
        """The bipartite C(s), or ``None`` as soon as that is impossible.

        Grows the block source-by-source, aborting the moment any pulled
        job has an alive non-source parent — so sources whose closure is
        deep cost O(1) instead of a full graph traversal.  This is the
        paper's Sec. 3.5 engineering: bipartite blocks are containment-
        minimal automatically, and the general search runs only when no
        bipartite block exists at all.
        """
        S = {s}
        T: set[int] = set()
        src_stack = [s]
        while src_stack:
            x = src_stack.pop()
            for c in children_of(x):
                if c in T:
                    continue
                if bpc[c]:
                    # Non-source parent: not bipartite.  Everything grown
                    # so far shares c's closure, so sibling sources need
                    # no probe of their own until the state changes.
                    failed_since_detach.update(S)
                    return None
                T.add(c)
                for p in parents_of(c):
                    if alive[p] and p not in S:
                        S.add(p)
                        src_stack.append(p)
        return S, T

    def detach(S: set[int], T: set[int], bipartite: bool) -> None:
        members = S | T
        nonsinks: list[int] = []
        shared: list[int] = []
        globals_: list[int] = []
        if bipartite:
            # Roles need no membership scan here: every child of an
            # S-member was pulled into T, so an S-member with children is
            # a non-sink (childless ones are global sinks); and no
            # T-member has a child inside the block (such a child would
            # have had an alive non-source parent and failed the probe).
            for u in sorted(members):
                if u in S:
                    if children_of(u):
                        nonsinks.append(u)
                    else:
                        globals_.append(u)
                elif not children_of(u):
                    globals_.append(u)
                else:
                    shared.append(u)  # stays alive for a later component
        else:
            for u in sorted(members):
                has_child_inside = any(c in members for c in children_of(u))
                if has_child_inside:
                    nonsinks.append(u)
                elif not children_of(u):
                    globals_.append(u)
                else:
                    shared.append(u)  # stays alive for a later component
        index = len(components)
        for u in nonsinks:
            comp_of[u] = index
        state.remove(children_of, nonsinks + globals_)
        failed_since_detach.clear()
        if nonsinks or shared or globals_:
            components.append(
                Component(index, tuple(nonsinks), tuple(shared),
                          tuple(globals_), bipartite)
            )

    while state.n_alive:
        # Fast path: detach every bipartite block discovered this round.
        # bipartite_block aborts in O(1) on deep-closure sources, so rounds
        # dominated by bipartite structure never pay for the general step.
        progressed = False
        for s in sorted(source_set):
            if not alive[s] or apc[s] != 0:
                continue  # consumed by an earlier detach this round
            if s in failed_since_detach:
                continue  # same state as when its closure failed
            block = bipartite_block(s)
            if block is not None:
                detach(block[0], block[1], True)
                progressed = True
        if progressed:
            continue
        # General path (no bipartite block exists anywhere): C(s) is what s
        # reaches in G', so the smallest closure is the smallest bottom SCC
        # (each closure contains one; each one is its own source's
        # closure).  Ties go to the least source id, the (size, s) order.
        S, T = _smallest_closure(
            n, children_of, parents_of, alive, apc, source_set
        )
        detach(S, T, False)

    # Superdag: cross-component dependencies between scheduled jobs.
    k = len(components)
    super_children: list[list[int]] = [[] for _ in range(k)]
    super_parents: list[list[int]] = [[] for _ in range(k)]
    seen_arcs: set[tuple[int, int]] = set()
    for u in range(n):
        ci = comp_of[u]
        if ci == -1:
            continue
        for v in children_of(u):
            cj = comp_of[v]
            if cj == -1 or cj == ci or (ci, cj) in seen_arcs:
                continue
            seen_arcs.add((ci, cj))
            super_children[ci].append(cj)
            super_parents[cj].append(ci)
    return Decomposition(
        dag=dag,
        components=components,
        comp_of=comp_of,
        super_children=super_children,
        super_parents=super_parents,
    )


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
    nodes = component.nodes
    n_nonsinks = len(component.nonsinks)
    # Local ids follow ``nodes``; arcs follow Dag.induced_subgraph's order.
    local = {orig: i for i, orig in enumerate(nodes)}
    if len(local) != len(nodes):
        raise ValueError(f"component {component.index}: duplicate nodes")
    children = dag.children
    arcs = tuple(
        [
            (i, local[v])
            for i, u in enumerate(nodes)
            for v in children(u)
            if v in local
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
        weight = tuple(map(dag.out_degree, nodes))
        solved = entry.by_weight.get(weight)
        if solved is None:
            subdag = entry.subdag
            solved = entry.by_weight[weight] = _Solved(
                subdag, outdegree_order(subdag, weight=weight), None, component
            )
        entry = solved
    return ScheduledComponent(
        component=component,
        schedule=tuple(map(nodes.__getitem__, entry.order)),
        profile=entry.profile,
        family=entry.family,
        profile_key=entry.key,
    )
