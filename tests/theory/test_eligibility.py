"""Tests for eligibility profiles."""

import numpy as np
import pytest

from repro.dag.builders import chain, complete_bipartite, fork, fork_join
from repro.dag.graph import Dag
from repro.theory.eligibility import eligibility_profile, partial_profile


class TestEligibilityProfile:
    def test_chain_is_always_one(self):
        profile = eligibility_profile(chain(4), [0, 1, 2, 3])
        assert profile.tolist() == [1, 1, 1, 1, 0]

    def test_fork_grows_then_drains(self):
        d = fork(3)
        profile = eligibility_profile(d, [0, 1, 2, 3])
        assert profile.tolist() == [1, 3, 2, 1, 0]

    def test_starts_at_source_count(self, rng):
        from tests.conftest import random_small_dag

        for _ in range(10):
            d = random_small_dag(rng)
            order = d.topological_order()
            profile = eligibility_profile(d, order)
            assert profile[0] == len(d.sources())
            assert profile[-1] == 0

    def test_order_matters(self):
        # fig3: executing c first exposes two children at once.
        d = Dag(5, [(0, 1), (2, 3), (2, 4)])
        fifo = eligibility_profile(d, [0, 2, 1, 3, 4])
        prio = eligibility_profile(d, [2, 0, 1, 3, 4])
        assert prio[1] == 3 and fifo[1] == 2

    def test_rejects_wrong_length(self, diamond):
        with pytest.raises(ValueError, match="length"):
            eligibility_profile(diamond, [0, 1])

    def test_rejects_precedence_violation(self, diamond):
        with pytest.raises(ValueError, match="before"):
            eligibility_profile(diamond, [1, 0, 2, 3])

    def test_rejects_duplicates(self, diamond):
        with pytest.raises(ValueError, match="twice"):
            eligibility_profile(diamond, [0, 1, 1, 3])

    def test_dtype_is_integer(self, diamond):
        profile = eligibility_profile(diamond, [0, 1, 2, 3])
        assert profile.dtype == np.int64


class TestPartialProfile:
    def test_bipartite_block(self):
        # K(2,2): executing both sources frees both sinks.
        d = complete_bipartite(2, 2)
        profile = partial_profile(d, [0, 1])
        assert profile.tolist() == [2, 1, 2]

    def test_empty_prefix(self, diamond):
        profile = partial_profile(diamond, [])
        assert profile.tolist() == [1]

    def test_fork_join_nonsinks(self):
        d = fork_join(2)  # 0 -> {1,2} -> 3
        profile = partial_profile(d, [0, 1, 2])
        assert profile.tolist() == [1, 2, 1, 1]

    def test_prefix_must_respect_precedence(self, diamond):
        with pytest.raises(ValueError):
            partial_profile(diamond, [1])

