"""Static priority ranks over a dag: upward rank and DAGPS-style packing.

Two rival priority schemes from the scheduling literature, implemented as
pure order computations so they plug into the oblivious simulator (and its
batched kernel) exactly like the PRIO schedule does:

* **Weighted upward rank** (HEFT-style, arXiv 1903.01154): rank(u) is the
  weight of the heaviest directed path starting at *u*, inclusive —
  ``rank(u) = w(u) + max(rank(v) for v in children(u))`` (``w(u)`` for
  sinks).  Serving eligible jobs by decreasing rank prioritizes the jobs
  that head the longest remaining chains.  In the paper's runtime model
  every job's expected duration is the same, so the default weights are
  uniform; pass per-job ``weights`` (e.g. a
  :func:`repro.workloads.runtimes.stage_runtime_scale` vector) for the
  heterogeneous variant.
* **DAGPS-style packing order** ("do the hard stuff first", arXiv
  1604.07371): identify the *troublesome* jobs — those sitting on the
  heaviest paths through the dag — schedule them first, then their
  ancestors (needed to unlock them), then their descendants, then
  everything else, each group internally by decreasing upward rank.

Both functions accept a :class:`~repro.dag.graph.Dag` *or* a
:class:`~repro.sim.compile.CompiledDag` and run on flat numpy arrays
(level-synchronous Kahn sweeps over the CSR adjacency), so they scale to
the arena-allocated synthetic dags of :mod:`repro.workloads.synthetic`
(10^5-10^6 jobs) without building per-node Python objects.

Tie-breaking is always by ascending job id, making every order a
deterministic function of the dag structure and the weights — the
property suite pins this, and it is what lets the batched kernel treat
these policies as static permutations.
"""

from __future__ import annotations

import numpy as np

from ..dag.graph import CycleError, Dag
from .compile import CompiledDag, _compile

__all__ = [
    "upward_rank",
    "upward_rank_order",
    "downward_rank",
    "dagps_order",
    "topological_levels",
]


def _arrays(dag: Dag | CompiledDag) -> CompiledDag:
    """*dag* in CSR form.  An object dag is compiled without its
    fingerprint: no rank reads it, and a ``/schedule`` miss has hashed
    the arcs already for its cache key."""
    return dag if isinstance(dag, CompiledDag) else _compile(dag, None)


def _check_weights(n: int, weights) -> np.ndarray:
    if weights is None:
        return np.ones(n, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(
            f"weights must have one entry per job ({n}), got shape {w.shape}"
        )
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    return w


def _flat_segments(indptr: np.ndarray, nodes: np.ndarray):
    """Concatenated adjacency indices for *nodes* plus per-node counts.

    ``(flat, counts)``: ``flat`` indexes the CSR data array and holds the
    segments of every node in *nodes*, in order; ``counts[i]`` is the
    segment length of ``nodes[i]``.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return flat, counts


def _reverse_csr(compiled: CompiledDag) -> tuple[np.ndarray, np.ndarray]:
    """Parent adjacency as CSR: ``parents[pindptr[v]:pindptr[v+1]]``."""
    n = compiled.n
    vs = compiled.children.astype(np.int64)
    us = np.repeat(np.arange(n, dtype=np.int64), np.diff(compiled.indptr))
    sort = np.argsort(vs, kind="stable")
    parents = us[sort]
    pindptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vs, minlength=n), out=pindptr[1:])
    return pindptr, parents


def _segment_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment maximum of *values* split by nonzero *counts*.

    Returns one maximum per nonzero-count segment, in segment order
    (zero-length segments are skipped — align with ``counts > 0``).
    """
    nz = counts > 0
    bounds = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
    return np.maximum.reduceat(values, bounds)


def topological_levels(dag: Dag | CompiledDag) -> list[np.ndarray]:
    """Level-synchronous topological layering of the dag.

    Level 0 holds every source; level *k* holds the jobs whose last
    remaining parent sits in level *k-1*.  Concatenating the levels gives
    a topological order.  Runs entirely on the CSR arrays (one vectorized
    frontier expansion per level), so depth — not node count — is the
    Python loop bound.
    """
    compiled = _arrays(dag)
    n = compiled.n
    indeg = compiled.indegree.astype(np.int64)
    frontier = np.flatnonzero(indeg == 0)
    levels: list[np.ndarray] = []
    done = 0
    while frontier.size:
        levels.append(frontier)
        done += frontier.size
        flat, _ = _flat_segments(compiled.indptr, frontier)
        if flat.size:
            kids = compiled.children[flat].astype(np.int64)
            indeg -= np.bincount(kids, minlength=n)
            cand = np.unique(kids)
            frontier = cand[indeg[cand] == 0]
        else:
            frontier = np.empty(0, dtype=np.int64)
    if done != n:
        raise CycleError("graph contains a cycle")
    return levels


def upward_rank(dag: Dag | CompiledDag, weights=None) -> np.ndarray:
    """Weighted upward rank of every job (HEFT-style, inclusive).

    ``rank[u] = weights[u] + max(rank[v] for v in children(u))``, with
    sinks at ``rank[u] = weights[u]``.  Weights default to 1.0 per job
    (the paper's homogeneous runtime model).  One backward sweep over the
    topological levels.
    """
    compiled = _arrays(dag)
    w = _check_weights(compiled.n, weights)
    rank = w.copy()
    for level in reversed(topological_levels(compiled)):
        flat, counts = _flat_segments(compiled.indptr, level)
        if not flat.size:
            continue
        vals = rank[compiled.children[flat].astype(np.int64)]
        rank[level[counts > 0]] += _segment_max(vals, counts)
    return rank


def downward_rank(dag: Dag | CompiledDag, weights=None) -> np.ndarray:
    """Weighted downward rank: heaviest path from any source to *u*,
    exclusive of *u* itself (sources are 0).

    ``rank[v] = max(rank[u] + weights[u] for u in parents(v))``, one
    forward sweep over the topological levels via the reverse CSR.
    """
    compiled = _arrays(dag)
    n = compiled.n
    w = _check_weights(n, weights)
    rank = np.zeros(n, dtype=np.float64)
    pindptr, parents = _reverse_csr(compiled)
    for level in topological_levels(compiled):
        flat, counts = _flat_segments(pindptr, level)
        if not flat.size:
            continue
        par = parents[flat]
        rank[level[counts > 0]] = _segment_max(rank[par] + w[par], counts)
    return rank


def upward_rank_order(dag: Dag | CompiledDag, weights=None) -> list[int]:
    """Jobs by decreasing upward rank, ascending id on ties.

    With positive weights a parent always outranks its descendants
    (``rank(u) >= w(u) + rank(child) > rank(child)``), so the order is a
    valid topological order of the dag — the oblivious simulator and the
    batched kernel can both consume it directly.
    """
    compiled = _arrays(dag)
    rank = upward_rank(compiled, weights)
    order = np.lexsort((np.arange(compiled.n), -rank))
    return order.tolist()


def _closure_mask(
    compiled: CompiledDag,
    seed_mask: np.ndarray,
    indptr: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Reachability mask from the seed set via (indptr, targets),
    excluding the seeds themselves."""
    seen = seed_mask.copy()
    frontier = np.flatnonzero(seed_mask)
    while frontier.size:
        flat, _ = _flat_segments(indptr, frontier)
        if not flat.size:
            break
        nxt = np.unique(targets[flat])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return seen & ~seed_mask


#: Criticality quantile above which a job is *troublesome* (the top 25%).
_TROUBLESOME_QUANTILE = 0.75


def dagps_order(dag: Dag | CompiledDag, weights=None) -> list[int]:
    """DAGPS-style packing-aware priority order (troublesome-first).

    Following the Graphene/DAGPS recipe (arXiv 1604.07371) adapted to the
    paper's single-queue elasticity model:

    1. score every job by its *criticality* — the weight of the heaviest
       directed path through it (``downward_rank + upward_rank``);
    2. the **troublesome set T** is the top quarter by criticality
       (jobs on or near the heaviest paths: the hard stuff);
    3. emit four groups — T, then T's ancestors (P, the jobs that unlock
       T), then T's descendants (C), then the rest (O) — each internally
       by decreasing upward rank, ascending id on ties.

    The result is a total priority order, not a schedule: the simulator
    serves only *eligible* jobs, so precedence is respected regardless of
    group boundaries.
    """
    compiled = _arrays(dag)
    n = compiled.n
    if n == 0:
        return []
    w = _check_weights(n, weights)
    ur = upward_rank(compiled, w)
    dr = downward_rank(compiled, w)
    crit = ur + dr
    threshold = np.quantile(crit, _TROUBLESOME_QUANTILE)
    trouble = crit >= threshold
    pindptr, parents = _reverse_csr(compiled)
    ancestors = _closure_mask(compiled, trouble, pindptr, parents)
    descendants = (
        _closure_mask(
            compiled, trouble, compiled.indptr,
            compiled.children.astype(np.int64),
        )
        & ~ancestors
    )
    group = np.full(n, 3, dtype=np.int64)
    group[descendants] = 2
    group[ancestors] = 1
    group[trouble] = 0
    order = np.lexsort((np.arange(n), -ur, group))
    return order.tolist()
