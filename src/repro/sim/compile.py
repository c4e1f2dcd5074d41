"""Compiled dag form used by the simulator's inner loop.

The sweep experiments run tens of thousands of simulations over the same
dag, so the adjacency is flattened once into CSR-style numpy arrays and the
per-simulation state (remaining-parent counts) is a cheap array copy.

The compiled form is what actually ships to worker processes and what both
engines consume — the reference loop (:mod:`repro.sim.engine`) and the
batched kernel (:mod:`repro.perf.kernel_batch`): integer job ids, a flat
children array, an in-degree vector, plus a memoized list-of-lists view of
the adjacency (``child_lists``) that every simulation of the same compiled
dag shares instead of rebuilding.  The memo is process-local and excluded
from pickling, so shipping a compiled dag to a worker stays as cheap as
before.  Unpickling canonicalizes each copy against a per-process
content-addressed memo keyed by :attr:`fingerprint`
(:data:`repro.sim.parallel._WORKER_COMPILED`), so each pool worker warms
the adjacency view exactly once per unique dag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..dag.graph import Dag

__all__ = ["CompiledDag", "as_compiled", "as_dag"]


@dataclass(frozen=True)
class CompiledDag:
    """CSR adjacency plus initial in-degrees for a dag.

    ``children[indptr[u]:indptr[u+1]]`` are the children of job *u*.
    ``fingerprint`` is the source dag's canonical content hash (see
    :meth:`repro.dag.graph.Dag.fingerprint`); it keys the schedule cache
    and the per-worker compiled-dag memo.  ``None`` only for compiled dags
    built by hand from raw arrays.
    """

    n: int
    indptr: np.ndarray
    children: np.ndarray
    indegree: np.ndarray
    fingerprint: str | None = field(default=None, compare=False)

    @classmethod
    def from_dag(cls, dag: Dag) -> "CompiledDag":
        return _compile(dag, dag.fingerprint())

    def to_dag(self) -> Dag:
        """The same structure as an unlabelled object :class:`Dag`.

        Children keep their CSR order, so ``CompiledDag.from_dag`` of the
        result reproduces these arrays and the fingerprints agree.
        Acyclicity is not re-checked: every compiled dag comes from an
        acyclic source (an object dag or an arena generator).
        """
        indptr = self.indptr.tolist()
        children = self.children.tolist()
        return Dag(
            self.n,
            [
                (u, v)
                for u in range(self.n)
                for v in children[indptr[u]: indptr[u + 1]]
            ],
            check_acyclic=False,
        )

    def child_lists(self) -> list[list[int]]:
        """Children as plain Python lists (fastest to iterate in the loop).

        Memoized: building the list-of-lists view is O(n + arcs), and
        before memoization every single simulation paid it again for the
        same dag — tens of thousands of rebuilds per sweep.  The compiled
        dag is immutable, so all simulations can share one view.
        """
        cached = self.__dict__.get("_child_lists")
        if cached is None:
            indptr = self.indptr
            children = self.children
            cached = [
                children[indptr[u]: indptr[u + 1]].tolist()
                for u in range(self.n)
            ]
            object.__setattr__(self, "_child_lists", cached)
        return cached

    def initial_frontier(self) -> list[int]:
        """Ids of the source jobs (in-degree zero), in id order.

        Memoized alongside :meth:`child_lists`; the batched kernel seeds
        every replication's eligibility frontier from this.
        """
        cached = self.__dict__.get("_initial_frontier")
        if cached is None:
            cached = np.flatnonzero(self.indegree == 0).tolist()
            object.__setattr__(self, "_initial_frontier", cached)
        return cached

    def __reduce__(self):
        # Ship only the arrays; the memoized adjacency views are
        # process-local and cheap to rebuild once per worker.
        from .parallel import _unpickle_compiled

        return (
            _unpickle_compiled,
            (self.n, self.indptr, self.children, self.indegree,
             self.fingerprint),
        )


def _compile(dag: Dag, fingerprint: str | None) -> CompiledDag:
    """*dag*'s CSR arrays, children in stored order, under *fingerprint*."""
    n = dag.n
    child_table = dag.child_table
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, child_table), dtype=np.int64, count=n),
        out=indptr[1:],
    )
    children = np.fromiter(
        chain.from_iterable(child_table), dtype=np.int32,
        count=int(indptr[-1]),
    )
    indegree = np.fromiter(
        map(len, dag.parent_table), dtype=np.int32, count=n
    )
    return CompiledDag(n, indptr, children, indegree, fingerprint)


def as_compiled(dag: Dag | CompiledDag) -> CompiledDag:
    """*dag* itself when already compiled, else its compiled form."""
    return dag if isinstance(dag, CompiledDag) else CompiledDag.from_dag(dag)


def as_dag(dag: Dag | CompiledDag) -> Dag:
    """*dag* itself when an object dag, else :meth:`CompiledDag.to_dag`."""
    return dag.to_dag() if isinstance(dag, CompiledDag) else dag
