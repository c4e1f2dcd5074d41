"""Policy-invariant property suite: every registered policy, pinned.

Three invariants hold for *every* policy in the registry, over random
dags and every synthetic arena family:

1. **Topologically valid permutation** — draining a dag through the
   policy under eligibility gating serves every job exactly once and
   never serves a job before all its parents.
2. **Deterministic under a fixed seed** — the served sequence is a pure
   function of (dag, seed); policies without randomness ignore the seed
   entirely.
3. **No input mutation** — building and draining a policy leaves the
   ``Dag`` / ``CompiledDag`` byte-identical.

The upward-rank computation is additionally cross-checked against a
naive per-node reference, and the upward-rank *order* is pinned to be a
topological order outright (a stronger property than 1: with positive
weights a parent always outranks its descendants).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.sim.compile import CompiledDag
from repro.sim.policies import policy_names
from repro.sim.rank import (
    downward_rank,
    topological_levels,
    upward_rank,
    upward_rank_order,
)
from repro.sim.replication import policy_factory
from repro.workloads.synthetic import arena_families, arena_family

from ..perf.strategies import dags

KINDS = tuple(k for k in policy_names() if k != "oblivious")


def _build(kind, dag, seed=0):
    """A fresh policy of *kind* for *dag* (seeded where randomness exists)."""
    return policy_factory(kind, dag=dag)(np.random.default_rng(seed))


def _drain(dag, policy):
    """Serve the whole dag through *policy* under eligibility gating.

    Completes each served job immediately (the degenerate one-worker
    schedule), asserting along the way that the policy only ever serves
    currently-eligible jobs.  Returns the served sequence.
    """
    compiled = dag if isinstance(dag, CompiledDag) else CompiledDag.from_dag(dag)
    indeg = compiled.indegree.astype(np.int64)
    eligible = set(np.flatnonzero(indeg == 0).tolist())
    for job in sorted(eligible):
        policy.push(job)
    sequence = []
    while len(policy):
        job = policy.pop()
        assert job in eligible, f"policy served ineligible job {job}"
        eligible.discard(job)
        sequence.append(job)
        policy.on_complete(job, float(len(sequence)))
        for child in compiled.children[
            compiled.indptr[job] : compiled.indptr[job + 1]
        ].tolist():
            indeg[child] -= 1
            if indeg[child] == 0:
                eligible.add(child)
                policy.push(child)
    return sequence


def _assert_topologically_valid(dag, sequence):
    n = dag.n
    assert sorted(sequence) == list(range(n)), "not a permutation"
    position = {job: i for i, job in enumerate(sequence)}
    compiled = dag if isinstance(dag, CompiledDag) else CompiledDag.from_dag(dag)
    for u in range(n):
        for v in compiled.children[
            compiled.indptr[u] : compiled.indptr[u + 1]
        ].tolist():
            assert position[u] < position[v], f"child {v} served before parent {u}"


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=25)
@given(dag=dags(max_n=12), seed=st.integers(min_value=0, max_value=2**31))
def test_drain_is_topologically_valid_permutation(kind, dag, seed):
    sequence = _drain(dag, _build(kind, dag, seed))
    _assert_topologically_valid(dag, sequence)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=15)
@given(dag=dags(max_n=12), seed=st.integers(min_value=0, max_value=2**31))
def test_drain_is_deterministic_under_fixed_seed(kind, dag, seed):
    first = _drain(dag, _build(kind, dag, seed))
    second = _drain(dag, _build(kind, dag, seed))
    assert first == second


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=15)
@given(dag=dags(max_n=10))
def test_policy_does_not_mutate_dag(kind, dag):
    arcs_before = list(dag.arcs())
    fingerprint_before = dag.fingerprint()
    _drain(dag, _build(kind, dag))
    assert list(dag.arcs()) == arcs_before
    assert dag.fingerprint() == fingerprint_before


@pytest.mark.parametrize("family", arena_families())
@pytest.mark.parametrize("kind", KINDS)
def test_drain_over_every_arena_family(kind, family):
    """Every policy × every synthetic size distribution, compiled path."""
    compiled = arena_family(family, 60, rng=np.random.default_rng(7))
    indptr = compiled.indptr.copy()
    children = compiled.children.copy()
    indegree = compiled.indegree.copy()
    sequence = _drain(compiled, _build(kind, compiled, seed=3))
    _assert_topologically_valid(compiled, sequence)
    assert np.array_equal(compiled.indptr, indptr)
    assert np.array_equal(compiled.children, children)
    assert np.array_equal(compiled.indegree, indegree)


# --------------------------------------------------------------------------
# Rank cross-checks


def _naive_upward_rank(dag: Dag, weights=None) -> list[float]:
    """Per-node reference: recurse over child lists, no vectorization.

    The hypothesis strategy numbers arcs upper-triangularly (u < v), so
    descending id is a reverse topological order.
    """
    n = dag.n
    w = [1.0] * n if weights is None else [float(x) for x in weights]
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in dag.arcs():
        assert u < v
        children[u].append(v)
    rank = [0.0] * n
    for u in reversed(range(n)):
        best = max((rank[v] for v in children[u]), default=0.0)
        rank[u] = w[u] + best
    return rank


@settings(deadline=None, max_examples=60)
@given(dag=dags(max_n=14), weighted=st.booleans(), wseed=st.integers(0, 2**16))
def test_upward_rank_matches_naive_reference(dag, weighted, wseed):
    weights = None
    if weighted and dag.n:
        weights = np.random.default_rng(wseed).uniform(0.5, 3.0, dag.n)
    ranks = upward_rank(dag, weights)
    assert ranks.tolist() == _naive_upward_rank(dag, weights)


@settings(deadline=None, max_examples=40)
@given(dag=dags(max_n=14))
def test_upward_rank_order_is_itself_topological(dag):
    order = upward_rank_order(dag)
    position = {job: i for i, job in enumerate(order)}
    for u, v in dag.arcs():
        assert position[u] < position[v]


def test_rank_weight_validation(diamond):
    with pytest.raises(ValueError, match="one entry per job"):
        upward_rank(diamond, np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        upward_rank(diamond, np.zeros(4))


def test_diamond_ranks_by_hand(diamond):
    """0 -> {1, 2} -> 3 with unit weights: ranks 3, 2, 2, 1."""
    assert upward_rank(diamond).tolist() == [3.0, 2.0, 2.0, 1.0]
    assert downward_rank(diamond).tolist() == [0.0, 1.0, 1.0, 2.0]
    assert upward_rank_order(diamond) == [0, 1, 2, 3]
    levels = topological_levels(diamond)
    assert [lv.tolist() for lv in levels] == [[0], [1, 2], [3]]


def test_longer_chain_outranks_short_chain():
    """Two chains from one source: the longer chain's head ranks higher."""
    #      0 -> 1 -> 2 -> 3   (long chain)
    #      0 -> 4              (short branch)
    dag = Dag(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    order = upward_rank_order(dag)
    assert order.index(1) < order.index(4)
