"""Closed-form approximations validating the simulator.

Sec. 4.3 of the paper explains the degenerate regimes of the model in
words; this module turns those explanations into formulas, and
``test_analytic.py`` checks the simulator against them.  That
cross-validation is the standard way to build trust in a discrete-event
simulator: wherever an analytic answer exists, the simulation must
reproduce it.

Regimes covered (job runtimes ~ Normal(1, 0.1) unless noted):

* **Sequential** (``mu_BIT`` large, unit batches): work is serialized on
  one worker per batch; execution time ~= ``n * mu_BIT`` — "execution is
  similar to a sequential execution on one worker".
* **Saturated / BFS** (batches huge or very frequent): every eligible job
  is served immediately at completion granularity; execution time ~= the
  dag's depth in levels — "execution proceeds step-by-step like a BFS
  traversal".
* **Stalling of a chain** under frequent unit batches: a batch stalls
  whenever it lands inside the ~1-unit runtime of the current job:
  ``P[stall] ~= 1 - mu_BIT`` for small ``mu_BIT`` (exact:
  ``1 - E[batches per completion]^-1``).
* **Utilization under huge batches**: one batch of ~``mu_BS`` workers per
  level, ``n`` jobs total: ``utilization ~= n / (depth * mu_BS)``.
"""

from __future__ import annotations

from repro.dag.graph import Dag
from repro.dag.metrics import dag_shape


def sequential_execution_time(
    dag: Dag, mu_bit: float, *, runtime_mean: float = 1.0
) -> float:
    """Expected makespan in the sequential regime (rare unit batches).

    Each of the *n* jobs waits ~``mu_BIT`` for its batch (memorylessness:
    the expected wait from a completion to the next arrival is the full
    mean), then runs: ``n * (mu_BIT-ish) + runtime``.  For
    ``mu_BIT >> runtime`` the arrival term dominates: ``~= n * mu_BIT``.
    """
    n = dag.n
    if n == 0:
        return 0.0
    return n * mu_bit + runtime_mean


def saturated_execution_time(dag: Dag, *, runtime_mean: float = 1.0) -> float:
    """Expected makespan when workers are effectively unlimited.

    Execution degenerates to level-by-level BFS: ``(depth + 1) * runtime``
    (depth counted in arcs, so depth+1 job generations).
    """
    if dag.n == 0:
        return 0.0
    return (dag_shape(dag).depth + 1) * runtime_mean


def chain_stall_probability(mu_bit: float, *, runtime_mean: float = 1.0) -> float:
    """Stall probability of a long chain under unit batches.

    While one job runs for ~``runtime_mean``, ``runtime_mean / mu_BIT``
    batches arrive on average and exactly one of them (the first after the
    completion) gets work: ``P[stall] = 1 - mu_BIT/(mu_BIT + runtime)``
    using the renewal argument for exponential arrivals.
    """
    if mu_bit <= 0:
        raise ValueError("mu_bit must be positive")
    return runtime_mean / (mu_bit + runtime_mean)


def saturated_utilization(dag: Dag, mu_bs: float) -> float:
    """Utilization when each level is served by one huge batch.

    ``depth + 1`` batches of ~``mu_BS`` workers serve ``n`` jobs:
    ``n / ((depth + 1) * mu_BS)`` — tiny for huge batches, matching the
    paper's "ratios close to 1" explanation (both algorithms waste the
    same workers).
    """
    if mu_bs < 1:
        raise ValueError("mu_bs must be at least 1")
    if dag.n == 0:
        return 0.0
    return dag.n / ((dag_shape(dag).depth + 1) * mu_bs)
