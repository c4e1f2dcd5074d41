"""Arena-built synthetic dags: fingerprint parity and scale.

The arena generators assemble :class:`CompiledDag` straight from flat
arc arrays — no per-node Python objects — so the grand league can race
policies on 10^5–10^6-job dags.  The load-bearing contract is that an
arena dag is *indistinguishable* from the object-dag build of the same
structure: identical CSR arrays and a byte-for-byte identical
fingerprint (so schedule caching keys agree across the two paths).

The 10^5/10^6-job scale tests are ``slow``-marked and excluded from
tier-1 (``addopts = -m 'not slow'``); run them with ``-m slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dag.graph import Dag
from repro.sim.compile import CompiledDag
from repro.sim.engine import SimParams
from repro.sim.rank import dagps_order, upward_rank_order
from repro.sim.replication import policy_factory, run_replications
from repro.workloads.synthetic import (
    arena_chain_bundle,
    arena_families,
    arena_family,
    arena_fork_join,
    arena_layered,
    compiled_fingerprint,
)


def _assert_matches_object_path(compiled: CompiledDag):
    twin = compiled.to_dag()
    assert compiled.fingerprint == twin.fingerprint()
    recompiled = CompiledDag.from_dag(twin)
    assert np.array_equal(compiled.indptr, recompiled.indptr)
    assert np.array_equal(compiled.children, recompiled.children)
    assert np.array_equal(compiled.indegree, recompiled.indegree)


@pytest.mark.parametrize("family", ["layered", "fork-join", "chain-bundle"])
def test_arena_fingerprint_matches_object_dag(family):
    compiled = arena_family(family, 120, rng=np.random.default_rng(11))
    assert compiled.n >= 120
    _assert_matches_object_path(compiled)


def test_arena_layered_every_nonfirst_layer_job_has_a_parent():
    compiled = arena_layered([5, 7, 3], 0.1, np.random.default_rng(0))
    assert (compiled.indegree[5:] >= 1).all()
    assert (compiled.indegree[:5] == 0).all()
    _assert_matches_object_path(compiled)


def test_arena_fork_join_shape():
    compiled = arena_fork_join(3, 4)
    assert compiled.n == 3 * 6
    # Sources: block 0's source only; every other block's source is fed
    # by the previous sink.
    assert int((compiled.indegree == 0).sum()) == 1
    _assert_matches_object_path(compiled)


def test_arena_chain_bundle_shape():
    compiled = arena_chain_bundle(4, 5)
    assert compiled.n == 20
    assert int((compiled.indegree == 0).sum()) == 4
    _assert_matches_object_path(compiled)


def test_arena_deduplicates_and_sorts_arcs():
    from repro.workloads.synthetic import _arena_from_arcs

    us = np.array([2, 0, 0, 1, 0])
    vs = np.array([3, 1, 2, 3, 1])  # (0, 1) twice, unordered
    compiled = _arena_from_arcs(4, us, vs)
    assert compiled.indptr.tolist() == [0, 2, 3, 4, 4]
    assert compiled.children.tolist() == [1, 2, 3, 3]
    twin = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert compiled.fingerprint == twin.fingerprint()


def test_arena_rejects_backward_and_out_of_range_arcs():
    from repro.workloads.synthetic import _arena_from_arcs

    with pytest.raises(ValueError, match="u < v"):
        _arena_from_arcs(3, np.array([1]), np.array([0]))
    with pytest.raises(ValueError, match="out of range"):
        _arena_from_arcs(3, np.array([0]), np.array([5]))
    with pytest.raises(ValueError, match="same length"):
        _arena_from_arcs(3, np.array([0]), np.array([1, 2]))


def test_compiled_fingerprint_empty_dag():
    assert compiled_fingerprint(
        3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ) == Dag(3, []).fingerprint()


def test_arena_family_validation():
    with pytest.raises(ValueError, match="unknown arena family"):
        arena_family("torus", 100)
    with pytest.raises(ValueError, match="needs an rng"):
        arena_family("layered", 100)
    with pytest.raises(ValueError, match="at least 4"):
        arena_family("fork-join", 2)
    assert arena_families() == ("layered", "fork-join", "chain-bundle")


@pytest.mark.slow
@pytest.mark.parametrize("family", ["layered", "fork-join", "chain-bundle"])
def test_arena_scales_to_1e5_jobs(family):
    """10^5-job build + rank orders stay in the arena fast path."""
    compiled = arena_family(family, 100_000, rng=np.random.default_rng(1))
    assert compiled.n >= 100_000
    order = upward_rank_order(compiled)
    assert len(order) == compiled.n
    packing = dagps_order(compiled)
    assert len(packing) == compiled.n
    # And the batched kernel races replications over it.
    arrays = run_replications(
        compiled,
        policy_factory("upward-rank", dag=compiled),
        SimParams(mu_bit=1.0, mu_bs=256.0),
        count=2,
        seed=0,
    )
    assert (arrays.execution_time > 0).all()


@pytest.mark.slow
def test_arena_builds_1e6_jobs():
    """10^6 jobs build without per-node Python objects (memory-bounded)."""
    compiled = arena_family("chain-bundle", 1_000_000)
    assert compiled.n >= 1_000_000
    assert len(upward_rank_order(compiled)) == compiled.n
