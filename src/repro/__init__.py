"""repro — reproduction of *A Tool for Prioritizing DAGMan Jobs and Its
Evaluation* (Malewicz, Foster, Rosenberg, Wilde; HPDC/J. Grid Computing,
2006).

The package provides:

* :mod:`repro.dag` — the dag substrate (graph type, transitive reduction,
  validation, DOT export);
* :mod:`repro.dagman` — the DAGMan/Condor file-format substrate;
* :mod:`repro.theory` — IC-optimal scheduling theory (eligibility
  profiles, the Fig. 2 family catalog, brute-force certification, priority
  relations);
* :mod:`repro.core` — the paper's contribution: the prio heuristic
  (divide / recurse / combine), the FIFO baseline, and the file-level tool;
* :mod:`repro.sim` — the stochastic grid simulator of Sec. 4.1;
* :mod:`repro.stats` — sampling distributions and ratio CIs of Sec. 4.2;
* :mod:`repro.workloads` — AIRSN, Inspiral, Montage, SDSS and synthetic
  generators;
* :mod:`repro.analysis` — the experiments behind every figure and table;
* :mod:`repro.obs` — run telemetry and profiling (metrics registry,
  JSONL event log, progress meters, the ``prio profile`` breakdown).

Quickstart::

    from repro import prio_schedule, fifo_schedule, airsn
    dag = airsn(width=250)
    result = prio_schedule(dag)          # the PRIO total order + priorities
    baseline = fifo_schedule(dag)        # DAGMan's FIFO order
"""

from .analysis import (
    SweepConfig,
    eligibility_curves,
    measure_overhead,
    ratio_sweep,
)
from .core import (
    PrioResult,
    fifo_schedule,
    prio_schedule,
    prioritize_dagman_file,
    reprioritize_remnant,
)
from .dag import Dag, DagBuilder, dag_shape
from .obs import (
    MetricsRegistry,
    TelemetryRecorder,
    profile_workload,
    read_telemetry,
)
from .dagman import (
    import_dagman_file,
    lint_dagman,
    parse_dagman_file,
    parse_dagman_text,
    run_workflow,
)
from .sim import (
    ExecutionTrace,
    SimParams,
    UnknownPolicyError,
    cli_policy_names,
    make_policy,
    policy_names,
    simulate,
)
from .theory import (
    eligibility_profile,
    fig2_catalog,
    is_ic_optimal,
    max_eligibility,
    theoretical_algorithm,
)
from .workloads import airsn, get_workload, inspiral, montage, sdss

__version__ = "1.0.0"

__all__ = [
    "Dag",
    "DagBuilder",
    "ExecutionTrace",
    "MetricsRegistry",
    "PrioResult",
    "SimParams",
    "SweepConfig",
    "TelemetryRecorder",
    "UnknownPolicyError",
    "__version__",
    "airsn",
    "cli_policy_names",
    "dag_shape",
    "eligibility_curves",
    "eligibility_profile",
    "fifo_schedule",
    "fig2_catalog",
    "get_workload",
    "import_dagman_file",
    "inspiral",
    "is_ic_optimal",
    "lint_dagman",
    "make_policy",
    "policy_names",
    "max_eligibility",
    "measure_overhead",
    "montage",
    "parse_dagman_file",
    "parse_dagman_text",
    "prio_schedule",
    "prioritize_dagman_file",
    "profile_workload",
    "ratio_sweep",
    "read_telemetry",
    "reprioritize_remnant",
    "run_workflow",
    "sdss",
    "simulate",
    "theoretical_algorithm",
]
