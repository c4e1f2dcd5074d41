"""Recognizers mapping a building block onto the Fig. 2 catalog.

Step 3 of the heuristic checks whether a component "is (isomorphic to) a
bipartite dag with a known IC-optimal schedule"; when it is, the explicit
schedule is used instead of the out-degree fallback.  The families are rigid
enough that isomorphism reduces to cheap degree/shape tests:

============  =====================================================
family        shape signature
============  =====================================================
Clique / K    every source feeds every sink (complete bipartite)
(s,c)-W       equal source out-degree c >= 2, sinks of in-degree
              <= 2, and the "shares a sink" graph on sources is a
              path with exactly one shared sink per adjacent pair
(s,c)-M       the reverse dag is an (s,c)-W
n-N           the underlying undirected graph is a path (even n)
n-Cycle       the underlying undirected graph is a single cycle
============  =====================================================

The recognizer returns the IC-optimal *source order*; the component schedule
is that order followed by the component's sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dag.graph import Dag

__all__ = ["Recognition", "recognize_bipartite_family"]


@dataclass(frozen=True)
class Recognition:
    """Result of a successful catalog match."""

    family: str
    source_order: list[int] = field(hash=False)


def recognize_bipartite_family(dag: Dag) -> Recognition | None:
    """Match *dag* against the catalog; ``None`` when no family fits.

    *dag* is typically one building block of the decomposition: connected
    and two-level bipartite.  Non-bipartite or disconnected inputs simply
    return ``None``.
    """
    if dag.n < 2 or not dag.is_bipartite_two_level():
        return None
    if not dag.is_connected_undirected():
        return None
    sources = dag.sources()
    sinks = dag.sinks()

    rec = _match_complete(dag, sources, sinks)
    if rec is None:
        rec = _match_w(dag, sources, sinks)
    if rec is None:
        rec = _match_m(dag, sources, sinks)
    if rec is None:
        rec = _match_n(dag, sources, sinks)
    if rec is None:
        rec = _match_cycle(dag, sources, sinks)
    return rec


def _match_complete(
    dag: Dag, sources: list[int], sinks: list[int]
) -> Recognition | None:
    t = len(sinks)
    if all(dag.out_degree(u) == t for u in sources):
        if len(sources) == t:
            name = f"{t}-Clique"
        else:
            name = f"K({len(sources)},{t})"
        return Recognition(name, list(sources))
    return None


def _source_sharing_graph(
    dag: Dag, sources: list[int], sinks: list[int]
) -> dict[tuple[int, int], int] | None:
    """Count shared sinks per source pair; ``None`` when a sink has
    in-degree > 2 (no catalog family allows that)."""
    shared: dict[tuple[int, int], int] = {}
    for t in sinks:
        ps = dag.parents(t)
        if len(ps) > 2:
            return None
        if len(ps) == 2:
            a, b = sorted(ps)
            shared[(a, b)] = shared.get((a, b), 0) + 1
    return shared


def _path_order(nodes: list[int], edges: set[tuple[int, int]]) -> list[int] | None:
    """Order *nodes* along a simple path defined by *edges*; ``None`` if the
    edge set is not a path covering all nodes.  Starts at the lower-id
    endpoint for determinism."""
    if len(nodes) == 1:
        return list(nodes) if not edges else None
    if len(edges) != len(nodes) - 1:
        return None
    adj: dict[int, list[int]] = {u: [] for u in nodes}
    for a, b in edges:
        if a not in adj or b not in adj:
            return None
        adj[a].append(b)
        adj[b].append(a)
    ends = [u for u in nodes if len(adj[u]) == 1]
    if len(ends) != 2 or any(len(adj[u]) > 2 for u in nodes):
        return None
    order = [min(ends)]
    prev = -1
    while len(order) < len(nodes):
        candidates = [w for w in adj[order[-1]] if w != prev]
        if len(candidates) != 1:
            return None
        prev = order[-1]
        order.append(candidates[0])
    return order


def _match_w(dag: Dag, sources: list[int], sinks: list[int]) -> Recognition | None:
    degrees = {dag.out_degree(u) for u in sources}
    if len(degrees) != 1:
        return None
    c = degrees.pop()
    if c < 2:
        return None
    shared = _source_sharing_graph(dag, sources, sinks)
    if shared is None or any(k != 1 for k in shared.values()):
        return None
    order = _path_order(sources, set(shared))
    if order is None:
        return None
    return Recognition(f"({len(sources)},{c})-W", order)


def _match_m(dag: Dag, sources: list[int], sinks: list[int]) -> Recognition | None:
    # _match_w's first test on the reverse, read off *dag*: skip building
    # the reverse of a block whose sinks' in-degrees differ or are 1.
    degrees = {dag.in_degree(t) for t in sinks}
    if len(degrees) != 1 or degrees.pop() < 2:
        return None
    rev = dag.reversed()
    rec = _match_w(rev, sinks, sources)
    if rec is None:
        return None
    # rec.source_order is the sink path order of the M-dag; run each sink's
    # outstanding parents in turn so one sink completes at a time.
    seen: set[int] = set()
    order: list[int] = []
    for t in rec.source_order:
        for p in sorted(dag.parents(t)):
            if p not in seen:
                seen.add(p)
                order.append(p)
    s = len(sinks)
    c = dag.in_degree(rec.source_order[0])
    return Recognition(f"({s},{c})-M", order)


def _undirected_adjacency(dag: Dag) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(dag.n)]
    for u, v in dag.arcs():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _match_n(dag: Dag, sources: list[int], sinks: list[int]) -> Recognition | None:
    if len(sources) != len(sinks) or dag.narcs != dag.n - 1:
        return None
    adj = _undirected_adjacency(dag)
    if any(len(a) > 2 for a in adj):
        return None
    ends = [u for u in range(dag.n) if len(adj[u]) == 1]
    if len(ends) != 2:
        return None
    # Walk from the sink endpoint: its single parent frees it immediately,
    # and each subsequent source frees the sink behind it.
    sink_ends = [u for u in ends if dag.is_sink(u)]
    if len(sink_ends) != 1:
        return None
    order: list[int] = []
    prev, cur = -1, sink_ends[0]
    visited = 1
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        visited += 1
        if dag.is_source(cur):
            order.append(cur)
    if visited != dag.n or len(order) != len(sources):
        return None
    return Recognition(f"{dag.n}-N", order)


def _match_cycle(dag: Dag, sources: list[int], sinks: list[int]) -> Recognition | None:
    if len(sources) != len(sinks) or dag.narcs != dag.n:
        return None
    adj = _undirected_adjacency(dag)
    if any(len(a) != 2 for a in adj):
        return None
    # Connected with all degrees 2 and |E| == |V|: a single cycle.  Walk it
    # from the lowest-id source, collecting sources in cycle order.
    start = min(sources)
    order = [start]
    prev, cur = -1, start
    visited = 1
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        step = nxt[0] if nxt else adj[cur][0]
        if step == start:
            break
        prev, cur = cur, step
        visited += 1
        if dag.is_source(cur):
            order.append(cur)
    if visited != dag.n:
        return None
    return Recognition(f"{dag.n}-Cycle", order)
