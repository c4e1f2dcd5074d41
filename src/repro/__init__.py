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

Package ``__init__`` modules re-export lazily: ``import repro`` (or
``import repro.core``) runs none of the modules behind its names, and a
name's module is imported when the name is first read.  So ``prio`` on
a DAGMan file loads only the importer and the scheduler, never the
simulator, the analyses or the service.
"""

from importlib import import_module as _import_module


def _lazy_exports(package: str, namespace: dict, exports: dict) -> None:
    """Give a package PEP 562 lazy re-exports.

    *exports* maps each defining module, relative to *package*, to the
    names the package re-exports from it.  Installs ``__getattr__`` and
    ``__dir__`` in the package *namespace*: the first read of a name
    imports its module and caches the value in *namespace*, so importing
    a package runs none of its modules and later reads are plain
    attribute lookups.  ``__all__``, ``dir()`` and ``from pkg import X``
    behave as with eager imports.

    A name that is also the name of its defining module
    (``repro.workloads.inspiral``) is bound at once: importing that
    submodule would set the module on the package, over the lazy name.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(_import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name, module in owners.items():
        if module == "." + name:
            __getattr__(name)


_lazy_exports(__name__, globals(), {
    ".analysis.eligibility_curves": ("eligibility_curves",),
    ".analysis.overhead": ("measure_overhead",),
    ".analysis.sweep": ("SweepConfig", "ratio_sweep"),
    ".core.fifo": ("fifo_schedule",),
    ".core.prio": ("PrioResult", "prio_schedule"),
    ".core.rescheduling": ("reprioritize_remnant",),
    ".core.tool": ("prioritize_dagman_file",),
    ".dag.graph": ("Dag", "DagBuilder"),
    ".dag.metrics": ("dag_shape",),
    ".dagman.importer": ("import_dagman_file",),
    ".dagman.lint": ("lint_dagman",),
    ".dagman.parser": ("parse_dagman_file", "parse_dagman_text"),
    ".dagman.runner": ("run_workflow",),
    ".obs.events": ("read_telemetry",),
    ".obs.metrics": ("MetricsRegistry",),
    ".obs.profile": ("profile_workload",),
    ".obs.recorder": ("TelemetryRecorder",),
    ".sim.engine": ("SimParams", "simulate"),
    ".sim.policies": (
        "UnknownPolicyError",
        "cli_policy_names",
        "make_policy",
        "policy_names",
    ),
    ".sim.trace": ("ExecutionTrace",),
    ".theory.algorithm": ("theoretical_algorithm",),
    ".theory.eligibility": ("eligibility_profile",),
    ".theory.families": ("fig2_catalog",),
    ".theory.ic_optimal": ("is_ic_optimal", "max_eligibility"),
    ".workloads.airsn": ("airsn",),
    ".workloads.inspiral": ("inspiral",),
    ".workloads.montage": ("montage",),
    ".workloads.registry": ("get_workload",),
    ".workloads.sdss": ("sdss",),
})

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
