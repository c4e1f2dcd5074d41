"""Event-driven grid simulator implementing the paper's system model.

Observability hooks (:class:`~repro.sim.trace.ExecutionTrace`, the
``metrics``/``on_replication`` parameters fed by :mod:`repro.obs`) never
draw from any random generator — enabling them cannot change a result.
"""

from .. import _lazy_exports

_lazy_exports(__name__, globals(), {
    ".arrivals": ("BATCH_SIZE_DISTRIBUTIONS", "BatchArrivals"),
    ".compile": ("CompiledDag",),
    ".engine": ("SimParams", "SimResult", "simulate"),
    ".multidag": ("MultiDagResult", "UserResult", "simulate_shared"),
    ".parallel": ("ParallelConfig",),
    ".policies": (
        "FifoPolicy",
        "ObliviousPolicy",
        "Policy",
        "PolicySpec",
        "RandomPolicy",
        "UnknownPolicyError",
        "cli_policy_names",
        "make_policy",
        "policy_names",
        "policy_spec",
        "register_policy",
    ),
    ".rank": (
        "dagps_order",
        "downward_rank",
        "upward_rank",
        "upward_rank_order",
    ),
    ".replication": ("MetricArrays", "policy_factory", "run_replications"),
    ".runtime": ("RuntimeSampler",),
    ".trace": ("ExecutionTrace",),
})

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
