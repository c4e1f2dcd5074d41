"""Synthetic workload dags beyond the paper's four (extensions).

Random layered, fork-join and chain-bundle dags for the grand league and
the ablation benches.

**Arena build path.**  The :class:`~repro.dag.graph.Dag` constructor
builds per-node Python tuples — fine up to tens of thousands of jobs,
prohibitive at the 10^5–10^6 jobs the grand league races at.  The
``arena_*`` generators below never materialize a ``Dag``: they emit flat
``(u, v)`` arc arrays (always ``u < v``, so acyclic by construction),
dedupe/sort them with one ``np.unique`` pass, and assemble the CSR
:class:`~repro.sim.compile.CompiledDag` directly.  The compiled dag
carries a fingerprint computed over the same canonical byte stream as
:meth:`repro.dag.graph.Dag.fingerprint`, so schedule caching and the
per-worker compiled-dag memo treat arena dags and object dags of the
same structure as identical (``tests/workloads/test_synthetic_arena.py``
pins the byte-for-byte parity).
"""

from __future__ import annotations

import numpy as np

from ..dag.graph import fingerprint_arcs
from ..sim.compile import CompiledDag

__all__ = [
    "compiled_fingerprint",
    "arena_layered",
    "arena_fork_join",
    "arena_chain_bundle",
    "arena_families",
    "arena_family",
]


def compiled_fingerprint(n: int, us: np.ndarray, vs: np.ndarray) -> str:
    """Canonical content hash over *sorted, unique* arcs ``(us, vs)``.

    Byte-for-byte the same digest as :meth:`repro.dag.graph.Dag.
    fingerprint` over the same structure — the arcs must already be in
    canonical order (lexicographic by ``(u, v)``, no duplicates), which
    is exactly what :func:`_arena_from_arcs` produces.
    """
    return fingerprint_arcs(n, zip(us.tolist(), vs.tolist()))


def _arena_from_arcs(n: int, us: np.ndarray, vs: np.ndarray) -> CompiledDag:
    """Assemble a :class:`CompiledDag` from flat arc arrays.

    ``us``/``vs`` may contain duplicates and be unordered; one
    ``np.unique`` pass over the packed ``u * n + v`` key dedupes and
    sorts them (ascending ``u``, then ``v`` — the canonical order the
    fingerprint and ``Dag``'s insertion-sorted adjacency both use).
    Every arc must satisfy ``u < v``; generators construct arcs along a
    known topological numbering, so acyclicity never needs a check.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape:
        raise ValueError("us and vs must have the same length")
    if len(us):
        if us.min() < 0 or vs.max() >= n:
            raise ValueError(f"arc endpoints out of range for n={n}")
        if (us >= vs).any():
            raise ValueError(
                "arena arcs must satisfy u < v (topological numbering)"
            )
        key = np.unique(us * n + vs)
        us = key // n
        vs = key - us * n
    counts = np.bincount(us, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indegree = np.bincount(vs, minlength=n).astype(np.int32)
    return CompiledDag(
        n=n,
        indptr=indptr,
        children=vs.astype(np.int32),
        indegree=indegree,
        fingerprint=compiled_fingerprint(n, us, vs),
    )


def arena_layered(
    widths, arc_prob: float, rng: np.random.Generator
) -> CompiledDag:
    """Random layered pipeline, arena-built (cf.
    :func:`repro.dag.builders.layered_random`).

    ``widths[k]`` jobs in layer *k*; each consecutive-layer arc appears
    with probability *arc_prob*, and every non-first-layer job keeps at
    least one parent in the previous layer.  One Bernoulli matrix per
    layer pair — the Python loop is bounded by depth, not job count.
    """
    widths = [int(w) for w in widths]
    if not widths or any(w < 1 for w in widths):
        raise ValueError("widths must be a non-empty sequence of positives")
    if not 0.0 <= arc_prob <= 1.0:
        raise ValueError("arc_prob must be in [0, 1]")
    n = sum(widths)
    starts = np.concatenate(([0], np.cumsum(widths)))
    us_parts: list[np.ndarray] = []
    vs_parts: list[np.ndarray] = []
    for k in range(len(widths) - 1):
        a, b = widths[k], widths[k + 1]
        mask = rng.random((a, b)) < arc_prob
        orphan = np.flatnonzero(~mask.any(axis=0))
        if len(orphan):
            mask[rng.integers(0, a, size=len(orphan)), orphan] = True
        ui, vi = np.nonzero(mask)
        us_parts.append(starts[k] + ui)
        vs_parts.append(starts[k + 1] + vi)
    if us_parts:
        us = np.concatenate(us_parts)
        vs = np.concatenate(vs_parts)
    else:
        us = vs = np.empty(0, dtype=np.int64)
    return _arena_from_arcs(n, us, vs)


def arena_fork_join(n_blocks: int, width: int) -> CompiledDag:
    """A chain of fork-join diamonds, arena-built.

    Each block is ``source -> width parallel jobs -> sink``; block sinks
    feed the next block's source.  Deterministic (no generator): the
    structure is fully specified by the two sizes.
    """
    if n_blocks < 1 or width < 1:
        raise ValueError("n_blocks and width must be positive")
    block = width + 2
    n = n_blocks * block
    bases = np.arange(n_blocks, dtype=np.int64) * block
    mids = bases[:, None] + 1 + np.arange(width, dtype=np.int64)[None, :]
    us = np.concatenate(
        (
            np.repeat(bases, width),          # source -> mids
            mids.ravel(),                     # mids -> sink
            (bases + block - 1)[:-1],         # sink -> next source
        )
    )
    vs = np.concatenate(
        (mids.ravel(), np.repeat(bases + block - 1, width), bases[1:])
    )
    return _arena_from_arcs(n, us, vs)


def arena_chain_bundle(n_chains: int, length: int) -> CompiledDag:
    """A bundle of independent chains, arena-built.

    ``n_chains`` disjoint paths of ``length`` jobs each — maximal
    parallelism with maximal depth, the adversarial shape for upward-rank
    tie-breaking.  Deterministic.
    """
    if n_chains < 1 or length < 1:
        raise ValueError("n_chains and length must be positive")
    n = n_chains * length
    ids = np.arange(n, dtype=np.int64)
    us = ids[ids % length != length - 1]
    return _arena_from_arcs(n, us, us + 1)


def arena_families() -> tuple[str, ...]:
    """Names accepted by :func:`arena_family`."""
    return ("layered", "fork-join", "chain-bundle")


def arena_family(
    name: str, n_jobs: int, rng: np.random.Generator | None = None
) -> CompiledDag:
    """An approximately *n_jobs*-sized instance of a named arena family.

    Shapes scale with ``sqrt(n_jobs)`` in both directions (width and
    depth) so no dimension collapses as the dag grows.  ``layered`` is
    randomized and needs *rng*; the other families are deterministic.
    """
    if n_jobs < 4:
        raise ValueError("n_jobs must be at least 4")
    side = max(2, int(round(n_jobs ** 0.5)))
    if name == "layered":
        if rng is None:
            raise ValueError("the layered family needs an rng")
        depth = max(2, -(-n_jobs // side))
        widths = [side] * (depth - 1)
        widths.append(max(1, n_jobs - side * (depth - 1)))
        # ~3 expected parents per job keeps the arc count linear in n.
        return arena_layered(widths, min(1.0, 3.0 / side), rng)
    if name == "fork-join":
        return arena_fork_join(max(1, -(-n_jobs // (side + 2))), side)
    if name == "chain-bundle":
        return arena_chain_bundle(max(1, -(-n_jobs // side)), side)
    raise ValueError(
        f"unknown arena family {name!r}; choose from {arena_families()}"
    )
