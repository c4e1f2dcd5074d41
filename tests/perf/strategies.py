"""Hypothesis strategies shared by the perf equivalence suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.sim.engine import SimParams


@st.composite
def dags(draw, max_n: int = 12, min_n: int = 0) -> Dag:
    """Random dags: pick n, then a subset of the upper-triangular arcs."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arcs = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return Dag(n, arcs)


@st.composite
def sim_params(draw) -> SimParams:
    """Operating points spanning the regimes the sweep visits, including
    worker churn and rollover (the paths where engine divergence would
    hide; the batched kernel refuses rollover, so its suite filters it
    out)."""
    return SimParams(
        mu_bit=draw(st.sampled_from([0.01, 0.5, 1.0, 10.0])),
        mu_bs=draw(st.sampled_from([1.0, 2.0, 16.0, 128.0])),
        failure_prob=draw(st.sampled_from([0.0, 0.2])),
        rollover=draw(st.booleans()),
        batch_size_dist=draw(
            st.sampled_from(["geometric", "ceil-exponential"])
        ),
    )
