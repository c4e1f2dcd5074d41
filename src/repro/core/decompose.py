"""Generalized dag decomposition into building blocks (Step 2).

The theoretical algorithm decomposes a shortcut-free dag into *maximal
connected bipartite* building blocks detached from the source end, and fails
when none exists.  The heuristic generalizes it so it never fails: for any
source *s* of the current remnant, ``C(s)`` is the smallest subgraph that

1. contains *s*;
2. contains every child of each remnant *source* it contains;
3. contains every parent of each job it contains.

Each iteration detaches a containment-minimal ``C(s)`` by removing its
non-sinks (which the final schedule will execute as a unit, in the
component's own order) and those of its sinks that are sinks of the whole
dag (executed in the final all-sinks phase).  Sinks shared with the rest of
the dag stay behind and become sources of later components.

Engineering (Sec. 3.5 of the paper): bipartite closures are automatically
containment-minimal, so they are detached as soon as they are discovered and
the general search only runs when no bipartite block exists anywhere.  This
is what reduced the 48,013-job SDSS decomposition from days to minutes in
the original C++ tool.

A block costs what its members need.  The probe's first step scans the
source's children: when the source is every child's only alive parent
(most blocks of scientific dags are 1-Cliques), the block is the source
plus its children and closes in that one scan, roles and death update
written inline.  Only a child with another alive parent makes the probe
grow the block's sources S and other jobs T through sets, and then the
roles come from S and T directly (S-members with children are
non-sinks, T-members with children shared sinks, childless members
global sinks) with no membership scan.  The general step keeps its scan.

The general search is one strongly-connected-component pass over the
remnant's *closure graph* G', in which a source steps to its children and
any other job steps to its alive parents.  ``C(s)`` is exactly the set G'
reaches from *s*, and the smallest closure is the smallest *bottom* SCC
(one no arc leaves):

* every closure contains a bottom SCC — what *s* reaches condenses to a
  dag, and that dag has a sink;
* every bottom SCC holds a source — follow alive parents upward — and that
  source's closure is the SCC itself.

Among equal sizes the SCC with the least source id wins, so the detached
block is the C(s) least by ``(|C(s)|, s)``, and one pass costs O(remnant)
where a closure per source would cost O(sources x remnant).

Two invariants the rest of the pipeline relies on (asserted in tests):

* every child of an alive node is alive — so remnant sinks are exactly the
  dag's sinks, and each node is removed (hence scheduled) exactly once;
* the superdag induced by cross-component arcs of the original dag is
  acyclic and compatible with detachment order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from ..dag.graph import Dag

__all__ = ["Component", "Decomposition", "Remnant", "decompose"]


class Component:
    """One building block detached from the dag.

    ``nonsinks`` are the jobs this component schedules (removed at detach
    time); ``shared_sinks`` are sinks handed over to later components;
    ``global_sinks`` are sinks of the whole dag that the final all-sinks
    phase will execute.  ``nodes`` is their union, in a deterministic order
    (sorted ids), and induces the component subgraph.

    A plain slotted class, treated as read-only: every live tick detaches
    every block of the remnant anew, and a frozen dataclass costs about
    twice as much to build.  Blocks are neither hashed nor compared.
    """

    __slots__ = (
        "index", "nonsinks", "shared_sinks", "global_sinks", "is_bipartite"
    )

    def __init__(
        self,
        index: int,
        nonsinks: tuple[int, ...],
        shared_sinks: tuple[int, ...],
        global_sinks: tuple[int, ...],
        is_bipartite: bool,
    ):
        self.index = index
        self.nonsinks = nonsinks
        self.shared_sinks = shared_sinks
        self.global_sinks = global_sinks
        self.is_bipartite = is_bipartite

    def __repr__(self) -> str:
        return (
            f"Component(index={self.index}, nonsinks={self.nonsinks}, "
            f"shared_sinks={self.shared_sinks}, "
            f"global_sinks={self.global_sinks}, "
            f"is_bipartite={self.is_bipartite})"
        )

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.nonsinks + self.shared_sinks + self.global_sinks

    @property
    def size(self) -> int:
        return len(self.nonsinks) + len(self.shared_sinks) + len(self.global_sinks)


@dataclass
class Decomposition:
    """Result of decomposing a (shortcut-free) dag.

    ``comp_of[u]`` is the index of the component that *schedules* job *u*
    (where *u* is a non-sink), or ``-1`` for sinks of the dag.
    ``super_children``/``super_parents`` give the superdag adjacency over
    component indices; an arc ``i -> j`` exists whenever some job scheduled
    by component *i* is a parent of some job scheduled by component *j*.
    """

    dag: Dag
    components: list[Component]
    comp_of: list[int]
    super_children: list[list[int]] = field(default_factory=list)
    super_parents: list[list[int]] = field(default_factory=list)

    @property
    def n_components(self) -> int:
        return len(self.components)


def _smallest_closure(
    n: int,
    children_of: Callable[[int], Sequence[int]],
    parents_of: Callable[[int], Sequence[int]],
    alive: bytearray,
    apc: list[int],
    sources: Iterable[int],
) -> tuple[set[int], set[int]]:
    """The smallest C(s) of the remnant as (sources S, other jobs T).

    One iterative Tarjan pass over G' (remnants reach 10^4+ jobs), started
    from every alive source since each bottom SCC holds one.  An SCC is
    bottom when no member has an arc into an SCC finished before it; arcs
    to jobs still on the stack stay inside the current SCC.  *alive* and
    *apc* (alive-parent counts) describe the remnant; *sources* are its
    sources.
    """

    def successors(v: int) -> Iterator[int]:
        """Out-arcs of *v* in G': a source's children, else its alive parents."""
        if apc[v] == 0:
            return iter(children_of(v))
        return (p for p in parents_of(v) if alive[p])

    number = [0] * n  # DFS discovery number; 0 = not yet visited
    low = [0] * n
    on_stack = bytearray(n)
    exits = bytearray(n)  # has an arc into a finished SCC
    stack: list[int] = []
    best_key: tuple[int, int] | None = None
    best: list[int] = []
    counter = 0
    for root in sources:
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        on_stack[root] = 1
        stack.append(root)
        work = [(root, successors(root))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if not number[w]:
                    counter += 1
                    number[w] = low[w] = counter
                    on_stack[w] = 1
                    stack.append(w)
                    work.append((w, successors(w)))
                    break
                if on_stack[w]:
                    if number[w] < low[v]:
                        low[v] = number[w]
                else:
                    exits[v] = 1
            else:
                work.pop()
                if low[v] != number[v]:
                    u = work[-1][0]  # v is no SCC root, so not the DFS root
                    if low[v] < low[u]:
                        low[u] = low[v]
                    continue
                members: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    members.append(w)
                    if w == v:
                        break
                if work:
                    exits[work[-1][0]] = 1
                if any(exits[m] for m in members):
                    continue
                key = (len(members), min(m for m in members if apc[m] == 0))
                if best_key is None or key < best_key:
                    best_key, best = key, members
    S = {m for m in best if apc[m] == 0}
    return S, set(best) - S


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
        children = dag.child_table
        apc = list(map(len, dag.parent_table))
        # A child is absorbable into a bipartite block iff bpc == 0, so the
        # bipartiteness check is O(1) per pulled job instead of O(parents).
        bpc = [0] * n
        for p in range(n):
            if apc[p]:
                for c in children[p]:
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
    children = dag.child_table
    parents = dag.parent_table
    children_of = children.__getitem__
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

    def detach_bipartite(s: int) -> bool:
        """Detach the bipartite C(s); ``False`` as soon as that is impossible.

        First step: scan *s*'s children.  When *s* is the only alive
        parent of each (``apc == 1``), C(s) is *s* plus its children, and
        the block closes in that one scan, its roles and death update
        written inline.  Otherwise the block grows source-by-source,
        aborting the moment any pulled job has an alive non-source parent
        — so sources whose closure is deep cost O(1) instead of a full
        graph traversal.  This is the paper's Sec. 3.5 engineering:
        bipartite blocks are containment-minimal automatically, and the
        general search runs only when no bipartite block exists at all.
        """
        kids = children[s]
        for c in kids:
            if apc[c] != 1:
                if bpc[c]:
                    # Fails as growing would, before S grew past s.
                    failed_since_detach.add(s)
                    return False
                break
        else:
            # One source.  Children with children are shared sinks and
            # turn source once s dies; childless ones are global sinks.
            # An isolated s is one global sink.  The update is
            # Remnant.remove's for jobs (s, *global sinks).
            index = len(components)
            alive[s] = 0
            source_set.discard(s)
            failed_since_detach.clear()
            if not kids:
                state.n_alive -= 1
                components.append(Component(index, (), (), (s,), True))
                return True
            comp_of[s] = index
            shared: list[int] = []
            globals_: list[int] = []
            for c in kids:
                grandkids = children[c]
                if not grandkids:
                    alive[c] = 0
                    globals_.append(c)
                    continue
                shared.append(c)
                apc[c] = 0
                source_set.add(c)
                # c turned source: no longer bad for its children.
                for d in grandkids:
                    if alive[d]:
                        bpc[d] -= 1
            state.n_alive -= 1 + len(globals_)
            shared.sort()
            globals_.sort()
            components.append(
                Component(index, (s,), tuple(shared), tuple(globals_), True)
            )
            return True
        S = {s}
        T: set[int] = set()
        src_stack = [s]
        while src_stack:
            x = src_stack.pop()
            for c in children[x]:
                if c in T:
                    continue
                if bpc[c]:
                    # Non-source parent: not bipartite.  Everything grown
                    # so far shares c's closure, so sibling sources need
                    # no probe of their own until the state changes.
                    failed_since_detach.update(S)
                    return False
                T.add(c)
                for p in parents[c]:
                    if alive[p] and p not in S:
                        S.add(p)
                        src_stack.append(p)
        # Roles need no membership scan: every child of an S-member was
        # pulled into T, so an S-member with children is a non-sink; and
        # no T-member has a child inside the block (such a child would
        # have had an alive non-source parent and failed the probe), so a
        # T-member with children is a shared sink.  Childless members of
        # either are global sinks.
        nonsinks: list[int] = []
        shared = []
        globals_ = []
        for u in S:
            (nonsinks if children[u] else globals_).append(u)
        for u in T:
            (shared if children[u] else globals_).append(u)
        nonsinks.sort()
        shared.sort()
        globals_.sort()
        detach(nonsinks, shared, globals_, True)
        return True

    def detach(nonsinks: list[int], shared: list[int], globals_: list[int],
               bipartite: bool) -> None:
        """Detach a block given its roles, each sorted."""
        index = len(components)
        for u in nonsinks:
            comp_of[u] = index
        state.remove(children_of, nonsinks + globals_)
        failed_since_detach.clear()
        components.append(
            Component(index, tuple(nonsinks), tuple(shared),
                      tuple(globals_), bipartite)
        )

    while state.n_alive:
        # Fast path: detach every bipartite block discovered this round.
        # detach_bipartite aborts in O(1) on deep-closure sources, so rounds
        # dominated by bipartite structure never pay for the general step.
        progressed = False
        for s in sorted(source_set):
            if not alive[s] or apc[s] != 0:
                continue  # consumed by an earlier detach this round
            if s in failed_since_detach:
                continue  # same state as when its closure failed
            if detach_bipartite(s):
                progressed = True
        if progressed:
            continue
        # General path (no bipartite block exists anywhere): C(s) is what s
        # reaches in G', so the smallest closure is the smallest bottom SCC
        # (each closure contains one; each one is its own source's
        # closure).  Ties go to the least source id, the (size, s) order.
        S, T = _smallest_closure(
            n, children_of, parents.__getitem__, alive, apc, source_set
        )
        if not S:
            # Only counts that contradict the alive set get here; fail
            # rather than loop without progress.
            raise AssertionError(
                f"no closure among {state.n_alive} alive jobs: "
                "inconsistent remnant counts"
            )
        members = S | T
        nonsinks: list[int] = []
        shared: list[int] = []
        globals_: list[int] = []
        for u in sorted(members):
            if any(c in members for c in children[u]):
                nonsinks.append(u)
            elif not children[u]:
                globals_.append(u)
            else:
                shared.append(u)  # stays alive for a later component
        detach(nonsinks, shared, globals_, False)

    # Superdag: cross-component dependencies between scheduled jobs.
    k = len(components)
    super_children: list[list[int]] = [[] for _ in range(k)]
    super_parents: list[list[int]] = [[] for _ in range(k)]
    seen_arcs: set[tuple[int, int]] = set()
    for u in range(n):
        ci = comp_of[u]
        if ci == -1:
            continue
        for v in children[u]:
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
