"""Tests for JSON serialization."""

import pytest

from repro.dag.io_json import dag_from_json, dag_to_json
from repro.workloads.airsn import airsn


class TestDagRoundTrip:
    def test_labelled(self, fig3_dag):
        back = dag_from_json(dag_to_json(fig3_dag))
        assert back == fig3_dag

    def test_unlabelled(self, diamond):
        back = dag_from_json(dag_to_json(diamond))
        assert set(back.arcs()) == set(diamond.arcs())
        assert back.labels is None

    def test_format_check(self):
        with pytest.raises(ValueError, match="format"):
            dag_from_json({"format": "something-else"})

    def test_bad_arcs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            dag_from_json(
                {"format": "repro-dag-v1", "n": 2, "arcs": [[0, 1, 2]]}
            )

    def test_workload_round_trip(self):
        dag = airsn(12)
        back = dag_from_json(dag_to_json(dag))
        assert back == dag

