"""Event-driven grid simulator implementing the paper's system model.

Observability hooks (:class:`~repro.sim.trace.ExecutionTrace`, the
``metrics``/``on_replication`` parameters fed by :mod:`repro.obs`) never
draw from any random generator — enabling them cannot change a result.
"""

from .arrivals import BATCH_SIZE_DISTRIBUTIONS, BatchArrivals
from .compile import CompiledDag
from .engine import SimParams, SimResult, make_policy, simulate
from .policies import (
    FifoPolicy,
    ObliviousPolicy,
    Policy,
    PolicySpec,
    RandomPolicy,
    UnknownPolicyError,
    cli_policy_names,
    policy_names,
    policy_spec,
    register_policy,
)
from .rank import dagps_order, downward_rank, upward_rank, upward_rank_order
from .multidag import MultiDagResult, UserResult, simulate_shared
from .parallel import ParallelConfig
from .replication import MetricArrays, policy_factory, run_replications
from .runtime import RuntimeSampler
from .trace import ExecutionTrace

__all__ = [
    "ExecutionTrace",
    "MultiDagResult",
    "UserResult",
    "simulate_shared",
    "BATCH_SIZE_DISTRIBUTIONS",
    "BatchArrivals",
    "CompiledDag",
    "FifoPolicy",
    "MetricArrays",
    "ObliviousPolicy",
    "ParallelConfig",
    "Policy",
    "PolicySpec",
    "RandomPolicy",
    "RuntimeSampler",
    "SimParams",
    "SimResult",
    "UnknownPolicyError",
    "cli_policy_names",
    "dagps_order",
    "downward_rank",
    "make_policy",
    "policy_factory",
    "policy_names",
    "policy_spec",
    "register_policy",
    "run_replications",
    "simulate",
    "upward_rank",
    "upward_rank_order",
]
