"""Tests for dag shape statistics."""

from repro.dag.builders import chain, complete_bipartite, fork_join
from repro.dag.graph import Dag
from repro.dag.metrics import dag_shape
from repro.workloads.airsn import airsn


class TestDagShape:
    def test_chain(self):
        s = dag_shape(chain(5))
        assert s.depth == 4
        assert s.max_level_width == 1
        assert s.n_sources == s.n_sinks == 1

    def test_fork_join(self):
        s = dag_shape(fork_join(6))
        assert s.depth == 2
        assert s.max_level_width == 6
        assert s.max_out_degree == 6 and s.max_in_degree == 6

    def test_bipartite(self):
        s = dag_shape(complete_bipartite(3, 4))
        assert s.depth == 1
        assert s.n_sources == 3 and s.n_sinks == 4
        assert s.mean_degree == 12 / 7

    def test_empty(self):
        s = dag_shape(Dag(0, []))
        assert s.n_jobs == 0 and s.depth == 0

    def test_isolated_nodes(self):
        s = dag_shape(Dag(3, [(0, 1)]))
        assert s.n_isolated == 1

    def test_airsn_shape(self):
        s = dag_shape(airsn(250))
        assert s.n_jobs == 773
        # depth: 21-handle + snr + collect1 + smooth + collect2
        assert s.depth == 24
        assert s.max_level_width >= 250

    def test_row_rendering(self):
        text = dag_shape(chain(3)).row("mychain")
        assert "mychain" in text and "jobs=3" in text
