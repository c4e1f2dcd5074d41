"""Compact directed-acyclic-graph type used throughout the library.

The paper models a computation as a dag ``G`` whose nodes are jobs and whose
arcs ``u -> v`` are inter-job dependencies: *v* cannot start before *u* has
completed.  *u* is a **parent** of *v*; *v* is a **child** of *u*.  A job with
no parents is a **source**, a job with no children a **sink**.

:class:`Dag` stores jobs as dense integer ids ``0 .. n-1`` with optional
string labels (the job names of a DAGMan file).  Adjacency is kept both ways
(children and parents) as tuples, which makes the eligibility and
decomposition algorithms O(degree) per step and keeps memory linear in the
number of arcs even for the 48,013-job SDSS dag.

Instances are immutable; use :class:`DagBuilder` or the classmethod
constructors to create them.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import NoReturn

__all__ = ["Dag", "DagBuilder", "CycleError", "fingerprint_arcs"]


def fingerprint_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> str:
    """The ``dag-v1`` content hash of *n* nodes and their *arcs*.

    SHA-256 over ``b"dag-v1:%d" % n`` followed by ``b";%d>%d" % (u, v)``
    per arc.  *arcs* must be in canonical order — lexicographic by
    ``(u, v)``, no duplicates — so every producer of the same structure
    gets the same digest: :meth:`Dag.fingerprint`, the arena dags'
    :func:`repro.workloads.synthetic.compiled_fingerprint` and the live
    scheduler's remnant fingerprint all encode through here.
    """
    h = hashlib.sha256(b"dag-v1:%d" % n)
    h.update(b"".join([b";%d>%d" % arc for arc in arcs]))
    return h.hexdigest()


class CycleError(ValueError):
    """Raised when a graph that must be acyclic contains a directed cycle.

    The offending cycle (a list of node ids, first == last) is available as
    :attr:`cycle` when it could be recovered.
    """

    def __init__(self, message: str, cycle: list[int] | None = None):
        super().__init__(message)
        self.cycle = cycle


def _raise_bad_arc(n: int, arcs: Sequence[tuple[int, int]]) -> NoReturn:
    """Raise the error for invalid *arcs* exactly as an arc-by-arc check
    words it: the first offending arc in input order, out of range before
    self-loop before a repeat of an earlier arc."""
    children: list[list[int]] = [[] for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"self-loop on node {u}", [u, u])
        if (u, v) in seen:
            raise ValueError(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        children[u].append(v)
        parents[v].append(u)
    raise AssertionError("no offending arc")


class Dag:
    """An immutable directed acyclic graph over jobs ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    arcs:
        Iterable of ``(parent, child)`` pairs.  Duplicate arcs are rejected.
    labels:
        Optional sequence of ``n`` unique job names.  When omitted, jobs are
        addressed only by id; :meth:`label` falls back to ``str(id)``.
    check_acyclic:
        Verify acyclicity at construction (default).  Disable only for arcs
        already known to come from an acyclic source (e.g. an internal
        transformation of an existing :class:`Dag`).
    """

    __slots__ = (
        "_n",
        "_children",
        "_parents",
        "_labels",
        "_label_to_id",
        "_narcs",
        "_fingerprint",
    )

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
        *,
        check_acyclic: bool = True,
    ):
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        # One pass builds both adjacency lists with the range and
        # self-loop checks inline; duplicates are checked per node after
        # it.  Only a failed check (or an arc that is no pair of ids)
        # pays for _raise_bad_arc's ordered pass, which words the error.
        if not isinstance(arcs, (list, tuple)):
            arcs = list(arcs)
        children: list[list[int]] = [[] for _ in range(n)]
        parents: list[list[int]] = [[] for _ in range(n)]
        valid = False
        try:
            for u, v in arcs:
                if not (0 <= u < n and 0 <= v < n) or u == v:
                    break
                children[u].append(v)
                parents[v].append(u)
            else:
                valid = True
        except (TypeError, ValueError):
            pass
        if valid:
            for c in children:
                if len(c) > 1 and len(set(c)) != len(c):
                    valid = False
                    break
        if not valid:
            _raise_bad_arc(n, arcs)
        self._n = n
        self._narcs = len(arcs)
        self._children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        self._parents: tuple[tuple[int, ...], ...] = tuple(map(tuple, parents))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            index = {name: i for i, name in enumerate(labels)}
            if len(index) != n:
                raise ValueError("labels must be unique")
            self._labels: tuple[str, ...] | None = labels
            self._label_to_id: dict[str, int] | None = index
        else:
            self._labels = None
            self._label_to_id = None
        self._fingerprint: str | None = None
        if check_acyclic:
            self._assert_acyclic()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable]],
        nodes: Iterable[Hashable] = (),
    ) -> "Dag":
        """Build a dag from arbitrary hashable node names.

        Node ids are assigned in first-appearance order (``nodes`` first,
        then edge endpoints); the original names become labels.
        """
        ids: dict[Hashable, int] = {}

        def intern(name: Hashable) -> int:
            if name not in ids:
                ids[name] = len(ids)
            return ids[name]

        arc_list: list[tuple[int, int]] = []
        for name in nodes:
            intern(name)
        for u, v in edges:
            arc_list.append((intern(u), intern(v)))
        labels = [str(name) for name in ids]
        return cls(len(ids), arc_list, labels)

    @classmethod
    def from_networkx(cls, g) -> "Dag":
        """Build a dag from a ``networkx.DiGraph`` (node names become labels)."""
        return cls.from_edges(g.edges(), nodes=g.nodes())

    def to_networkx(self):
        """Return an equivalent ``networkx.DiGraph`` over node ids."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.arcs())
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of jobs."""
        return self._n

    @property
    def narcs(self) -> int:
        """Number of dependency arcs."""
        return self._narcs

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Iterate over all arcs as ``(parent, child)`` pairs."""
        for u in range(self._n):
            for v in self._children[u]:
                yield (u, v)

    def children(self, u: int) -> tuple[int, ...]:
        """Jobs that directly depend on *u*."""
        return self._children[u]

    def parents(self, u: int) -> tuple[int, ...]:
        """Jobs that *u* directly depends on."""
        return self._parents[u]

    def out_degree(self, u: int) -> int:
        return len(self._children[u])

    def in_degree(self, u: int) -> int:
        return len(self._parents[u])

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._children[u]

    def label(self, u: int) -> str:
        """Job name of *u* (``str(u)`` when the dag is unlabelled)."""
        if self._labels is None:
            return str(u)
        return self._labels[u]

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self._labels

    def id_of(self, label: str) -> int:
        """Node id of the job named *label* (requires a labelled dag)."""
        if self._label_to_id is None:
            raise KeyError(f"dag has no labels; cannot resolve {label!r}")
        return self._label_to_id[label]

    def sources(self) -> list[int]:
        """Jobs with no parents, in id order."""
        return [u for u in range(self._n) if not self._parents[u]]

    def sinks(self) -> list[int]:
        """Jobs with no children, in id order."""
        return [u for u in range(self._n) if not self._children[u]]

    def non_sinks(self) -> list[int]:
        """Jobs with at least one child, in id order."""
        return [u for u in range(self._n) if self._children[u]]

    def is_source(self, u: int) -> bool:
        return not self._parents[u]

    def is_sink(self, u: int) -> bool:
        return not self._children[u]

    def fingerprint(self) -> str:
        """Canonical content hash of the dag's adjacency structure.

        The fingerprint is a SHA-256 digest over the node count and the
        arc list in canonical (sorted) order.  Job *labels* do not
        participate: relabelling a dag (renaming its jobs) leaves the
        fingerprint unchanged, while any change to the adjacency — a
        different node count, an added, dropped or redirected arc —
        produces a different digest.  Node *ids* do participate, which is
        exactly what schedule caching needs: a schedule is a list of node
        ids, so two dags may share a cache entry only when their id
        structure is identical.

        The digest is computed once and memoized (the dag is immutable).
        """
        if self._fingerprint is None:
            children = self._children
            self._fingerprint = fingerprint_arcs(
                self._n,
                ((u, v) for u in range(self._n) for v in sorted(children[u])),
            )
        return self._fingerprint

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def topological_order(self) -> list[int]:
        """A topological order of the jobs (Kahn's algorithm, id tie-break)."""
        indeg = [len(self._parents[u]) for u in range(self._n)]
        queue = deque(u for u in range(self._n) if indeg[u] == 0)
        order: list[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in self._children[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self._n:
            raise CycleError("graph contains a cycle")
        return order

    def longest_path_levels(self) -> list[int]:
        """Length of the longest path from any source to each node.

        Sources are at level 0.  For every arc ``u -> v``,
        ``level[u] < level[v]`` — used to prune shortcut detection.
        """
        level = [0] * self._n
        for u in self.topological_order():
            lu = level[u]
            for v in self._children[u]:
                if level[v] < lu + 1:
                    level[v] = lu + 1
        return level

    def is_bipartite_two_level(self) -> bool:
        """True when every arc runs from a source to a sink.

        This is the paper's notion of a *bipartite dag*: the node set splits
        into sources U and sinks V with every arc leading from U to V.
        """
        if self._n == 0:
            return True
        has_both = False
        for u in range(self._n):
            if self._children[u] and self._parents[u]:
                return False
            if self._children[u]:
                for v in self._children[u]:
                    if self._children[v]:
                        return False
                has_both = True
        # A bipartite dag needs both parts non-empty, hence at least one arc.
        return has_both or self._narcs > 0

    def is_connected_undirected(self) -> bool:
        """True when the underlying undirected graph is connected."""
        if self._n <= 1:
            return True
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._children[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
            for v in self._parents[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def descendants(self, u: int) -> set[int]:
        """All jobs reachable from *u* by a non-empty directed path."""
        seen: set[int] = set()
        stack = list(self._children[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._children[v])
        return seen

    def ancestors(self, u: int) -> set[int]:
        """All jobs from which *u* is reachable by a non-empty directed path."""
        seen: set[int] = set()
        stack = list(self._parents[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self._parents[v])
        return seen

    def has_path(self, u: int, v: int, *, skip_direct: bool = False) -> bool:
        """True when a directed path ``u -> ... -> v`` exists.

        With ``skip_direct`` the one-arc path ``u -> v`` is ignored, which is
        exactly the *shortcut* test of the paper's Step 1.
        """
        if u == v:
            return True
        seen: set[int] = set()
        stack = [w for w in self._children[u] if not (skip_direct and w == v)]
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.extend(self._children[w])
        return False

    # ------------------------------------------------------------------
    # Derived dags
    # ------------------------------------------------------------------

    def induced_subgraph(self, nodes: Iterable[int]) -> tuple["Dag", list[int]]:
        """The subgraph induced by *nodes*.

        Returns ``(subdag, mapping)`` where ``mapping[i]`` is the original id
        of the subdag's node *i*.  Node order follows the iteration order of
        *nodes* (duplicates rejected).
        """
        mapping = list(nodes)
        local = {orig: i for i, orig in enumerate(mapping)}
        if len(local) != len(mapping):
            raise ValueError("duplicate nodes in induced_subgraph")
        arcs = [
            (local[u], local[v])
            for u in mapping
            for v in self._children[u]
            if v in local
        ]
        labels = None
        if self._labels is not None:
            labels = [self._labels[u] for u in mapping]
        return Dag(len(mapping), arcs, labels, check_acyclic=False), mapping

    def reversed(self) -> "Dag":
        """The dag with every arc flipped (parents become children)."""
        return Dag(
            self._n,
            ((v, u) for u, v in self.arcs()),
            self._labels,
            check_acyclic=False,
        )

    def without_arcs(self, drop: Iterable[tuple[int, int]]) -> "Dag":
        """A copy of the dag with the given arcs removed."""
        dropset = set(drop)
        missing = [a for a in dropset if not self.has_arc(*a)]
        if missing:
            raise ValueError(f"arcs not present: {sorted(missing)}")
        arcs = [a for a in self.arcs() if a not in dropset]
        return Dag(self._n, arcs, self._labels, check_acyclic=False)

    def relabelled(self, labels: Sequence[str]) -> "Dag":
        """A copy of the dag with new job names."""
        return Dag(self._n, self.arcs(), labels, check_acyclic=False)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return (
            self._n == other._n
            and self._children == other._children
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self._n, self._children, self._labels))

    def __repr__(self) -> str:
        return f"Dag(n={self._n}, narcs={self._narcs})"

    def _assert_acyclic(self) -> None:
        # Kahn's algorithm; on failure, recover one cycle for the error
        # message by walking still-unresolved nodes.
        indeg = [len(self._parents[u]) for u in range(self._n)]
        queue = deque(u for u in range(self._n) if indeg[u] == 0)
        done = 0
        while queue:
            u = queue.popleft()
            done += 1
            for v in self._children[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if done == self._n:
            return
        # Every remaining node with indeg > 0 lies on or downstream of a
        # cycle; walk parents among remaining nodes until a repeat.
        remaining = {u for u in range(self._n) if indeg[u] > 0}
        start = next(iter(remaining))
        path = [start]
        seen_at = {start: 0}
        while True:
            u = path[-1]
            nxt = next(p for p in self._parents[u] if p in remaining)
            if nxt in seen_at:
                cycle = path[seen_at[nxt]:] + [nxt]
                cycle.reverse()
                raise CycleError(
                    "graph contains a cycle: "
                    + " -> ".join(self.label(w) for w in cycle),
                    cycle,
                )
            seen_at[nxt] = len(path)
            path.append(nxt)


class DagBuilder:
    """Incremental constructor for :class:`Dag`.

    Nodes may be added explicitly (:meth:`add_job`) or implicitly by
    mentioning them in :meth:`add_dependency`.  Jobs are identified by
    arbitrary string names; ids are assigned in insertion order.

    >>> b = DagBuilder()
    >>> b.add_dependency("a", "b")
    >>> dag = b.build()
    >>> dag.label(0), dag.label(1)
    ('a', 'b')
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._arcs: list[tuple[int, int]] = []
        self._arcset: set[tuple[int, int]] = set()

    def add_job(self, name: str) -> int:
        """Register a job; returns its id. Idempotent."""
        if name not in self._ids:
            self._ids[name] = len(self._ids)
        return self._ids[name]

    def add_dependency(self, parent: str, child: str) -> None:
        """Record that *child* cannot start before *parent* completes.

        Duplicate dependencies are ignored (DAGMan allows restating them).
        """
        arc = (self.add_job(parent), self.add_job(child))
        if arc not in self._arcset:
            self._arcset.add(arc)
            self._arcs.append(arc)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def build(self, *, check_acyclic: bool = True) -> Dag:
        """Produce the immutable :class:`Dag`."""
        labels = [None] * len(self._ids)
        for name, i in self._ids.items():
            labels[i] = name
        return Dag(len(self._ids), self._arcs, labels, check_acyclic=check_acyclic)


def relabel_by_mapping(dag: Dag, mapping: Mapping[str, str]) -> Dag:
    """Rename jobs of a labelled dag according to *mapping* (missing keys keep
    their old name)."""
    if dag.labels is None:
        raise ValueError("dag has no labels to relabel")
    return dag.relabelled([mapping.get(name, name) for name in dag.labels])
