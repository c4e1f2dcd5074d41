"""Command-line interface: the prio tool and the evaluation harness.

Subcommands::

    prio      instrument a DAGMan input file with jobpriority macros
    import    flatten a nested DAGMan tree (SPLICE / SUBDAG EXTERNAL)
              into one workload: summary, flat .dag, JSON, simulation
    schedule  print the PRIO (or FIFO) schedule of a workload or .dag file
    decompose show the building blocks and recognized families of a dag
    dot       export a dag (with PRIO priorities) as Graphviz DOT
    curves    Fig. 4: eligible-job difference curves, PRIO vs FIFO
    simulate  run one simulated execution and print the three metrics
    sweep     Figs. 6-9: the (mu_BIT, mu_BS) ratio sweep
    regions   summarize where PRIO wins (advantage regions of a sweep)
    calibrate how many replications until the ratio CI is narrow enough
    overhead  Sec. 3.6: pipeline running time and memory per workload
    run       execute a DAGMan workflow locally (priority-driven dispatch)
    report    one-shot reproduction report over several workloads
    profile   per-stage timing breakdown of one workload (pipeline + sim)
    serve     long-running scheduling service (JSON over HTTP; see
              docs/API.md, "Serving")
    advance   apply an execution-event file to a checkpointed live
              session and emit rescue-style priorities (docs/API.md,
              "Live rescheduling")

``python -m repro.cli <subcommand> --help`` documents each.  The
simulation-heavy subcommands (``sweep``, ``curves``, ``league``,
``calibrate``, ``regions``, ``report``) take ``--jobs N`` to fan work out
over N worker processes; results are bit-identical to ``--jobs 1``.  The
same subcommands (plus ``profile``) take ``--telemetry PATH`` to write a
structured JSONL telemetry log — one record per simulation replication —
without changing any result (see docs/API.md, "Telemetry & profiling").

The long-running drivers (``sweep``, ``league``, ``calibrate``,
``report``) additionally take ``--checkpoint PATH`` (record completed
work durably), ``--resume PATH`` (continue from an existing checkpoint;
bit-identical to an uninterrupted run), and ``--max-attempts`` /
``--chunk-timeout`` (the fault-tolerant parallel executor; see
docs/API.md, "Fault tolerance, checkpointing & resume").  The
schedule-computing subcommands (``schedule``, ``simulate``, ``sweep``,
``regions``, ``league``, ``calibrate``, ``report``) take ``--cache-dir
PATH`` (persist computed schedules, content-addressed by dag fingerprint,
and reuse them across invocations) and ``--no-cache`` (disable caching);
cached and uncached runs are bit-identical (see docs/API.md, "Schedule
cache & fast kernel").  Ctrl-C exits
with status 130 after the checkpoint is safely on disk; predictable
errors (unknown workload, fingerprint mismatch, unreadable checkpoint)
exit with status 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis.eligibility_curves import eligibility_curves
from .analysis.overhead import measure_overhead, render_overhead_table
from .analysis.report import render_curves_table, render_sweep
from .analysis.sweep import SweepConfig, paper_grid, ratio_sweep
from .core.prio import prio_schedule
from .core.rescheduling import RemnantError
from .core.tool import prioritize_dagman_file
from .dag.graph import Dag
from .dagman.importer import DagmanImportError
from .dagman.parser import DagmanParseError, parse_dagman_file
from .sim.engine import SimParams, make_policy, simulate
from .sim.policies import cli_policy_names
from .sim.replication import policy_factory
from .workloads.registry import get_workload, workload_names

__all__ = ["main"]


class CliError(Exception):
    """A predictable user-facing failure: one-line message, exit status 2."""


def _load_dag(spec: str) -> tuple[Dag, str]:
    """Resolve a workload name or a .dag file path to a dag.

    ``.dag`` paths go through the importer, so nested SPLICE / SUBDAG
    EXTERNAL trees flatten transparently for every subcommand.
    """
    if spec.endswith(".dag"):
        from .dagman.importer import import_dagman_file

        try:
            return import_dagman_file(spec).dag, spec
        except DagmanImportError as exc:
            raise CliError(str(exc)) from None
    try:
        return get_workload(spec), spec
    except KeyError as exc:
        raise CliError(exc.args[0] if exc.args else str(exc)) from None


def _add_dag_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "dag",
        help=(
            "workload name (one of: %s) or path to a DAGMan .dag file"
            % ", ".join(workload_names())
        ),
    )


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        )
    return number


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j",
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "worker processes for the simulations (default 1 = serial; "
            "results are bit-identical for any value)"
        ),
    )


def _add_failure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--failure-prob",
        type=float,
        default=0.0,
        help=(
            "per-assignment worker-churn probability: the job returns to "
            "the eligible pool and must be reassigned (default 0 = the "
            "paper's failure-free model)"
        ),
    )
    parser.add_argument(
        "--straggler-prob",
        type=float,
        default=0.0,
        help=(
            "per-assignment straggler probability: the job takes "
            "--straggler-factor times its sampled duration (default 0)"
        ),
    )
    parser.add_argument(
        "--straggler-factor",
        type=float,
        default=10.0,
        help="runtime multiplier for straggling assignments",
    )


def _add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        help=(
            "write a structured JSONL telemetry log here (one record per "
            "simulation replication plus run/cell/stage records); purely "
            "observational — results are bit-identical with it on or off"
        ),
    )


def _open_telemetry(args: argparse.Namespace, command: str, **run_fields):
    """A TelemetryRecorder for ``--telemetry PATH``, or None without it."""
    path = getattr(args, "telemetry", None)
    if not path:
        return None
    from .obs.recorder import TelemetryRecorder

    return TelemetryRecorder.open(path, command=command, **run_fields)


def _close_telemetry(args: argparse.Namespace, telemetry) -> None:
    if telemetry is not None:
        telemetry.close()
        print(
            f"wrote {args.telemetry} ({telemetry.n_records} telemetry records)",
            file=sys.stderr,
        )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help=(
            "persist computed schedules here (content-addressed by dag "
            "fingerprint) and reuse them across invocations; results are "
            "bit-identical with the cache on or off"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable schedule/compiled-dag caching entirely",
    )


def _schedule_cache(args: argparse.Namespace, telemetry=None):
    """A ScheduleCache honouring --cache-dir/--no-cache, or None.

    Always-on in-memory tier (one process) unless ``--no-cache``; the
    on-disk tier is added by ``--cache-dir``.  When telemetry is active
    the cache's hit/miss counters land in its registry.
    """
    if getattr(args, "no_cache", False):
        return None
    from .perf import ScheduleCache

    cache = ScheduleCache(directory=getattr(args, "cache_dir", None))
    if telemetry is not None:
        cache.attach_metrics(telemetry.registry)
    return cache


def _add_robust_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help=(
            "record completed work units here (atomic, fingerprinted); an "
            "existing compatible checkpoint is continued"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        help=(
            "resume from an existing checkpoint (error if missing or "
            "written by a different configuration); the resumed run is "
            "bit-identical to an uninterrupted one"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help=(
            "retry failed/crashed simulation chunks up to N times with "
            "exponential backoff before falling back to in-process "
            "execution (enables the fault-tolerant executor; needs "
            "--jobs > 1 to matter)"
        ),
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "progress deadline for the worker pool: if no chunk completes "
            "within SECONDS the pool is declared hung and rebuilt "
            "(enables the fault-tolerant executor)"
        ),
    )


def _config_payload(config) -> dict:
    """A SweepConfig as a JSON-safe dict (for checkpoint fingerprints)."""
    from dataclasses import asdict

    payload = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(config).items()
    }
    # The retired ``live`` field (now ``policy="prio-live"``) stays in the
    # fingerprint, so checkpoints of other sweeps from older versions
    # still resume; older ``--live`` checkpoints no longer match.
    payload["live"] = False
    return payload


def _open_checkpoint(args: argparse.Namespace, payload: dict):
    """A Checkpoint for ``--checkpoint``/``--resume``, or None without."""
    resume = getattr(args, "resume", None)
    path = resume or getattr(args, "checkpoint", None)
    if not path:
        return None
    from .robust import Checkpoint, fingerprint

    checkpoint = Checkpoint.open(
        path,
        fingerprint(payload),
        meta={"driver": payload.get("driver")},
        require_existing=bool(resume),
    )
    if checkpoint.n_done:
        print(
            f"checkpoint {checkpoint.path}: "
            f"{checkpoint.n_done} completed unit(s) on file",
            file=sys.stderr,
        )
    return checkpoint


def _retry_policy(args: argparse.Namespace):
    """A RetryPolicy for ``--max-attempts``/``--chunk-timeout``, or None."""
    max_attempts = getattr(args, "max_attempts", None)
    timeout = getattr(args, "chunk_timeout", None)
    if max_attempts is None and timeout is None:
        return None
    from .robust import RetryPolicy

    kwargs = {}
    if max_attempts is not None:
        kwargs["max_attempts"] = max_attempts
    if timeout is not None:
        kwargs["timeout"] = timeout
    return RetryPolicy(**kwargs)


def _resume_hint(checkpoint) -> None:
    """On Ctrl-C: completed work is already durable; say how to continue."""
    if checkpoint is not None:
        print(
            f"interrupted — {checkpoint.n_done} completed unit(s) saved; "
            f"continue with --resume {checkpoint.path}",
            file=sys.stderr,
        )


def _cmd_prio(args: argparse.Namespace) -> int:
    try:
        result = prioritize_dagman_file(
            args.dagfile,
            output=args.output,
            instrument_jsdfs=args.jsdfs,
            respect_done=args.rescue,
        )
    except (DagmanImportError, RemnantError) as exc:
        raise CliError(str(exc)) from None
    print(result.summary())
    if args.verbose:
        order = sorted(result.priorities, key=result.priorities.get, reverse=True)
        print("PRIO schedule:", ", ".join(order))
        print("families:", result.prio.families_used)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from .perf.cache import cached_schedule

    dag, name = _load_dag(args.dag)
    order = cached_schedule(
        dag, args.algorithm, cache=_schedule_cache(args)
    )
    labels = (dag.label(u) for u in order)
    print("\n".join(labels) if args.one_per_line else ", ".join(labels))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    dag, name = _load_dag(args.dag)
    result = prio_schedule(dag)
    dec = result.decomposition
    print(f"{name}: {dag.n} jobs -> {dec.n_components} building blocks")
    if result.shortcuts_removed:
        print(f"shortcut arcs removed: {len(result.shortcuts_removed)}")
    print("families:")
    for family, count in sorted(result.families_used.items()):
        print(f"  {family:<24s} x{count}")
    by_size = sorted(
        dec.components, key=lambda c: c.size, reverse=True
    )[: args.top]
    print(f"largest {len(by_size)} blocks:")
    for comp in by_size:
        kind = "bipartite" if comp.is_bipartite else "non-bipartite"
        print(
            f"  block {comp.index:>6d}: {comp.size:>6d} jobs "
            f"({len(comp.nonsinks)} scheduled, "
            f"{len(comp.shared_sinks)} shared sinks) [{kind}]"
        )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from .dag.io_dot import to_dot

    dag, name = _load_dag(args.dag)
    priorities = None
    if not args.no_priorities:
        priorities = prio_schedule(dag).priorities
    text = to_dot(dag, name=name, priorities=priorities)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    from .analysis.crossover import advantage_regions, render_regions

    from .perf.cache import cached_schedule

    dag, name = _load_dag(args.dag)
    config = SweepConfig(
        mu_bits=tuple(args.mu_bit),
        mu_bss=tuple(args.mu_bs),
        p=args.p,
        q=args.q,
        seed=args.seed,
    )
    telemetry = _open_telemetry(args, "regions", workload=name, seed=args.seed)
    try:
        cache = _schedule_cache(args, telemetry)
        order = cached_schedule(dag, "prio", cache=cache)
        result = ratio_sweep(
            dag, order, config, name, jobs=args.jobs, telemetry=telemetry,
            cache=cache,
        )
    finally:
        _close_telemetry(args, telemetry)
    print(render_regions(advantage_regions(result)))
    return 0


def _curves_for_spec(spec: str):
    """Load one workload, compute its eligibility curves, and time both.

    Returns ``(curves, seconds)``.  Module-level so it can run as a task
    of :func:`~repro.sim.parallel.iter_chunk_results` in a worker process
    (the spec string is the only payload either way).
    """
    import time

    started = time.perf_counter()
    dag, name = _load_dag(spec)
    return eligibility_curves(dag, name), time.perf_counter() - started


def _cmd_curves(args: argparse.Namespace) -> int:
    from .sim.parallel import ParallelConfig, iter_chunk_results

    telemetry = _open_telemetry(args, "curves", workloads=list(args.dag))
    par = ParallelConfig(jobs=min(args.jobs, len(args.dag)))
    tasks = [(i, (spec,)) for i, spec in enumerate(args.dag)]
    timed = dict(iter_chunk_results(_curves_for_spec, tasks, par))
    curves = []
    for i, spec in enumerate(args.dag):
        result, seconds = timed[i]
        curves.append(result)
        if telemetry is not None:
            telemetry.stage("curves", seconds, workload=spec)
    _close_telemetry(args, telemetry)
    print(render_curves_table(curves))
    if args.plot:
        from .analysis.figures import ascii_curve

        for c in curves:
            print()
            print(
                ascii_curve(
                    {"E_PRIO": c.e_prio, "E_FIFO": c.e_fifo},
                    title=f"{c.name}: eligible jobs over executed steps",
                )
            )
    if args.dump:
        for c in curves:
            print(f"\n# {c.name}: t, E_PRIO, E_FIFO, diff")
            for t in range(c.n_jobs + 1):
                print(f"{t} {c.e_prio[t]} {c.e_fifo[t]} {c.difference[t]}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    dag, name = _load_dag(args.dag)
    params = SimParams(
        mu_bit=args.mu_bit,
        mu_bs=args.mu_bs,
        failure_prob=args.failure_prob,
        straggler_prob=args.straggler_prob,
        straggler_factor=args.straggler_factor,
    )
    rng = np.random.default_rng(args.seed)
    policy = policy_factory(
        args.algorithm, dag=dag, cache=_schedule_cache(args)
    )(rng)
    result = simulate(dag, policy, params, rng)
    print(f"workload            : {name} ({dag.n} jobs)")
    print(f"algorithm           : {args.algorithm}")
    print(f"execution time      : {result.execution_time:.3f}")
    print(f"stalling probability: {result.stalling_probability:.4f}")
    print(f"utilization         : {result.utilization:.4f}")
    if params.failure_prob > 0.0:
        print(f"worker failures     : {result.n_failures}")
    if params.straggler_prob > 0.0:
        print(f"stragglers          : {result.n_stragglers}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    dag, name = _load_dag(args.dag)
    if args.paper_grid:
        mu_bits, mu_bss = paper_grid()
    else:
        mu_bits = tuple(args.mu_bit)
        mu_bss = tuple(args.mu_bs)
    config = SweepConfig(
        mu_bits=mu_bits, mu_bss=mu_bss, p=args.p, q=args.q, seed=args.seed,
        failure_prob=args.failure_prob,
        straggler_prob=args.straggler_prob,
        straggler_factor=args.straggler_factor,
        policy=args.policy,
    )
    from .obs.progress import ProgressMeter
    from .perf.cache import cached_schedule

    checkpoint = _open_checkpoint(
        args,
        {
            "driver": "sweep",
            "workload": name,
            "config": _config_payload(config),
            "telemetry": bool(getattr(args, "telemetry", None)),
        },
    )
    telemetry = _open_telemetry(
        args, "sweep", workload=name, p=args.p, q=args.q, seed=args.seed
    )
    try:
        cache = _schedule_cache(args, telemetry)
        order = cached_schedule(dag, "prio", cache=cache)
        with ProgressMeter(f"sweep {name}", unit="cell") as meter:
            result = ratio_sweep(
                dag, order, config, name,
                progress=meter, jobs=args.jobs, telemetry=telemetry,
                checkpoint=checkpoint, retry=_retry_policy(args),
                cache=cache,
            )
    except KeyboardInterrupt:
        _resume_hint(checkpoint)
        raise
    finally:
        _close_telemetry(args, telemetry)
    print(render_sweep(result))
    if args.csv:
        from .analysis.export import sweep_to_csv

        sweep_to_csv(result, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json:
        from .analysis.export import sweep_to_json

        sweep_to_json(result, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.plot:
        from .analysis.figures import ascii_interval_panel

        for metric in ("execution_time", "stalling_probability", "utilization"):
            print()
            try:
                print(ascii_interval_panel(result, metric))
            except ValueError:
                print(f"({metric}: no reportable intervals)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .workloads.export import export_workflow

    dag, name = _load_dag(args.dag)
    dag_path, dagman = export_workflow(
        dag, args.directory, dag_name=f"{name.replace('/', '_')}.dag"
    )
    n_jsdfs = len({d.submit_file for d in dagman.jobs.values()})
    print(f"wrote {dag_path} ({dag.n} jobs) and {n_jsdfs} stage JSDFs")
    if args.prioritize:
        result = prioritize_dagman_file(dag_path, instrument_jsdfs=True)
        print("prio:", result.summary())
    return 0


def _league_entrant(kind, dag, cache):
    """One league entrant for a registered policy kind.

    Static-order kinds race the total order the resolver derives (so the
    schedule is computed once, not once per replication, and the order
    is part of the checkpoint fingerprint); dynamic kinds race live.
    """
    from .analysis.league import Entrant

    order = policy_factory(kind, dag=dag, cache=cache).order
    if order is not None:
        return Entrant.from_schedule(kind, order)
    return Entrant(kind, kind)


def _cmd_league(args: argparse.Namespace) -> int:
    from .analysis.league import Entrant, league, render_league
    from .obs.progress import ProgressMeter
    from .perf.cache import cached_schedule

    dag, name = _load_dag(args.dag)
    chosen = list(dict.fromkeys(args.policy or ()))
    bad = [k for k in chosen if k not in cli_policy_names()]
    if bad:
        raise CliError(
            f"unknown policy {bad[0]!r}; choose from "
            f"{', '.join(cli_policy_names())}"
        )
    telemetry = _open_telemetry(
        args, "league", workload=name, runs=args.runs, seed=args.seed
    )
    checkpoint = None
    try:
        cache = _schedule_cache(args, telemetry)
        if chosen:
            entrants = [_league_entrant(k, dag, cache) for k in chosen]
        else:
            # Default roster: every CLI-visible registry policy, plus the
            # prio-topological ablation (a prio variant, not a registry kind).
            entrants = [
                _league_entrant(k, dag, cache) for k in cli_policy_names()
            ]
            entrants.insert(
                1,
                Entrant.from_schedule(
                    "prio-topological",
                    cached_schedule(
                        dag, "prio", cache=cache, combine="topological"
                    ),
                ),
            )
        # league() defaults its baseline to the *last* entrant; the roster is
        # now in registry order, so pin the paper's FIFO baseline explicitly
        # whenever it races (a --policy roster without fifo keeps the
        # last-entrant default).
        baseline = (
            "fifo" if any(e.name == "fifo" for e in entrants) else None
        )
        checkpoint = _open_checkpoint(
            args,
            {
                "driver": "league",
                "workload": name,
                # Units are keyed per workload; checkpoints keyed by
                # entrant alone cannot resume into this layout.
                "keys": "entrant/{workload}/{name}",
                "entrants": [
                    [e.name, e.kind, list(e.order) if e.order else None]
                    for e in entrants
                ],
                "mu_bit": args.mu_bit,
                "mu_bs": args.mu_bs,
                "failure_prob": args.failure_prob,
                "straggler_prob": args.straggler_prob,
                "straggler_factor": args.straggler_factor,
                "runs": args.runs,
                "seed": args.seed,
                "telemetry": bool(getattr(args, "telemetry", None)),
            },
        )
        with ProgressMeter(f"league {name}", unit="entrant") as meter:
            rows = league(
                {name: dag},
                entrants,
                SimParams(
                    mu_bit=args.mu_bit,
                    mu_bs=args.mu_bs,
                    failure_prob=args.failure_prob,
                    straggler_prob=args.straggler_prob,
                    straggler_factor=args.straggler_factor,
                ),
                baseline=baseline,
                n_runs=args.runs,
                seed=args.seed,
                jobs=args.jobs,
                progress=meter,
                telemetry=telemetry,
                checkpoint=checkpoint,
                retry=_retry_policy(args),
                cache=cache,
            )
    except KeyboardInterrupt:
        _resume_hint(checkpoint)
        raise
    finally:
        _close_telemetry(args, telemetry)
    print(f"policy league: {name} (mu_BIT={args.mu_bit:g}, "
          f"mu_BS={args.mu_bs:g}, {args.runs} runs each)")
    print(render_league(rows))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .analysis.calibrate import calibrate_cell
    from .perf.cache import cached_schedule

    dag, name = _load_dag(args.dag)
    params = SimParams(mu_bit=args.mu_bit, mu_bs=args.mu_bs)

    def step_progress(step) -> None:
        print(
            f"  q={step.q}: {step.runs_per_algorithm} runs/algorithm, "
            f"CI width {step.width:.3f}",
            file=sys.stderr,
            flush=True,
        )

    checkpoint = _open_checkpoint(
        args,
        {
            "driver": "calibrate",
            "workload": name,
            "mu_bit": args.mu_bit,
            "mu_bs": args.mu_bs,
            "target_width": args.target_width,
            "p": args.p,
            "start_q": args.start_q,
            "max_q": args.max_q,
            "seed": args.seed,
            "metric": args.metric,
            "stop_when_excludes_one": args.stop_when_excludes_one,
            "telemetry": bool(getattr(args, "telemetry", None)),
        },
    )
    telemetry = _open_telemetry(
        args, "calibrate", workload=name, metric=args.metric, seed=args.seed
    )
    try:
        cache = _schedule_cache(args, telemetry)
        order = cached_schedule(dag, "prio", cache=cache)
        result = calibrate_cell(
            dag,
            order,
            params,
            target_width=args.target_width,
            p=args.p,
            start_q=args.start_q,
            max_q=args.max_q,
            seed=args.seed,
            metric=args.metric,
            stop_when_excludes_one=args.stop_when_excludes_one,
            jobs=args.jobs,
            workload=name,
            progress=step_progress,
            telemetry=telemetry,
            checkpoint=checkpoint,
            retry=_retry_policy(args),
            cache=cache,
        )
    except KeyboardInterrupt:
        _resume_hint(checkpoint)
        raise
    finally:
        _close_telemetry(args, telemetry)
    print(
        f"calibration: {name} (mu_BIT={args.mu_bit:g}, mu_BS={args.mu_bs:g}, "
        f"metric={args.metric}, target width {args.target_width:g})"
    )
    print(result.render())
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .dagman.importer import import_dagman_file

    path = Path(args.dagfile)
    try:
        imported = import_dagman_file(
            path,
            expand_subdags=not args.no_subdags,
            rescue=args.rescue,
            rescue_file=args.rescue_file,
        )
    except DagmanImportError as exc:
        raise CliError(str(exc)) from None
    dag = imported.dag
    if args.prioritize:
        from .core.tool import prioritize_dagman

        prioritize_dagman(imported.flat, respect_done=True)
    done = sum(1 for m in imported.meta.values() if m.done)
    depth = max((m.depth for m in imported.meta.values()), default=0)
    print(f"imported            : {imported.root}")
    print(f"files read          : {len(imported.sources)}")
    print(f"jobs                : {dag.n}" + (f" ({done} done)" if done else ""))
    print(f"dependencies        : {dag.narcs}")
    print(f"max nesting depth   : {depth}")
    print(f"fingerprint         : {imported.fingerprint()}")
    if args.output:
        Path(args.output).write_text(imported.render())
        print(f"flattened dag       : {args.output}", file=sys.stderr)
    if args.json:
        payload = imported.to_json()
        if args.prioritize:
            payload["priorities"] = {
                name: imported.flat.get_priority(name)
                for name in imported.flat.jobs
            }
        Path(args.json).write_text(_json.dumps(payload, indent=2) + "\n")
        print(f"json artifact       : {args.json}", file=sys.stderr)
    if args.simulate:
        params = SimParams(mu_bit=args.mu_bit, mu_bs=args.mu_bs)
        rng = np.random.default_rng(args.seed)
        order = prio_schedule(dag).schedule
        result = simulate(dag, make_policy("prio", order=order), params, rng)
        print(f"execution time      : {result.execution_time:.3f}")
        print(f"stalling probability: {result.stalling_probability:.4f}")
        print(f"utilization         : {result.utilization:.4f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .dagman.lint import lint_dagman, lint_dagman_tree

    path = Path(args.dagfile)
    if args.recursive and args.check_jsdfs:
        raise CliError("--check-jsdfs checks one file; it does not combine with -r")
    # The named file must read and parse in both modes; only the tree
    # below it is linted into findings.
    try:
        dagman = parse_dagman_file(path)
    except DagmanParseError as exc:
        raise CliError(f"{path}: {exc}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    if args.recursive:
        findings = lint_dagman_tree(path)
        label = f"{path.name} (tree)"
    else:
        findings = lint_dagman(
            dagman, root=path.parent if args.check_jsdfs else None
        )
        label = f"{path.name} ({len(dagman.jobs)} jobs)"
    for finding in findings:
        print(finding)
    errors = sum(1 for f in findings if f.severity == "error")
    if not findings:
        print(f"clean: {label}")
    return 1 if errors else 0


def _cmd_rounds(args: argparse.Namespace) -> int:
    from .core.fifo import fifo_schedule as _fifo
    from .theory.batched import min_rounds, rounds_profile

    dag, name = _load_dag(args.dag)
    prio_order = prio_schedule(dag).schedule
    fifo_order = _fifo(dag)
    batch_sizes = [int(b) for b in args.batch_sizes]
    prio_rounds = rounds_profile(dag, prio_order, batch_sizes)
    fifo_rounds = rounds_profile(dag, fifo_order, batch_sizes)
    print(f"{name}: deterministic rounds with b workers per round")
    print(f"{'b':>8s} {'PRIO':>8s} {'FIFO':>8s} {'bound':>8s} {'ratio':>7s}")
    for b, p, f in zip(batch_sizes, prio_rounds, fifo_rounds):
        print(
            f"{b:>8d} {p:>8d} {f:>8d} {min_rounds(dag, b):>8d} "
            f"{p / f:>7.3f}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.tool import prioritize_dagman
    from .dagman.importer import load_dagman_file
    from .dagman.runner import JobState, SubprocessExecutor, run_workflow

    path = Path(args.dagfile)
    try:
        dagman, _ = load_dagman_file(path)
        if args.prioritize:
            prioritize_dagman(dagman, respect_done=True)
    except (DagmanImportError, RemnantError) as exc:
        raise CliError(str(exc)) from None
    executor = SubprocessExecutor(path.parent, timeout=args.timeout)
    run = run_workflow(
        dagman,
        executor,
        max_workers=args.max_workers,
        use_priorities=not args.no_priorities,
        run_script=executor.run_script,
    )
    print(f"jobs done: {run.n_done}/{len(run.outcomes)}")
    if run.succeeded:
        print("workflow completed successfully")
        return 0
    for name in run.failed_jobs():
        outcome = run.outcomes[name]
        print(
            f"FAILED {name} (attempts {outcome.attempts}, "
            f"exit {outcome.return_code})"
        )
    cancelled = [
        n for n, o in run.outcomes.items() if o.state is JobState.CANCELLED
    ]
    if cancelled:
        print(f"cancelled downstream: {len(cancelled)} jobs")
    rescue_path = path.with_suffix(path.suffix + ".rescue")
    rescue_path.write_text(run.rescue_text())
    print(f"rescue dag written: {rescue_path}")
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report_all import full_report, render_report

    workloads = {}
    for spec in args.dag:
        dag, name = _load_dag(spec)
        workloads[name] = dag
    config = SweepConfig(
        mu_bits=tuple(args.mu_bit),
        mu_bss=tuple(args.mu_bs),
        p=args.p,
        q=args.q,
        seed=args.seed,
    )

    def progress(name: str, i: int, total: int) -> None:
        print(f"[{i + 1}/{total}] {name} ...", file=sys.stderr, flush=True)

    checkpoint = _open_checkpoint(
        args,
        {
            "driver": "report",
            "workloads": list(workloads),
            "config": _config_payload(config),
            "telemetry": bool(getattr(args, "telemetry", None)),
        },
    )
    telemetry = _open_telemetry(
        args, "report", workloads=list(workloads), seed=args.seed
    )
    cache = _schedule_cache(args, telemetry)
    try:
        reports = full_report(
            workloads, config, progress=progress, jobs=args.jobs,
            telemetry=telemetry,
            checkpoint=checkpoint, retry=_retry_policy(args),
            cache=cache,
        )
    except KeyboardInterrupt:
        _resume_hint(checkpoint)
        raise
    finally:
        _close_telemetry(args, telemetry)
    text = render_report(reports)
    if args.output:
        from .robust import write_atomic

        write_atomic(args.output, text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profile import profile_workload

    telemetry = _open_telemetry(
        args, "profile", workload=args.workload, runs=args.runs, seed=args.seed
    )
    try:
        report = profile_workload(
            args.workload,
            mu_bit=args.mu_bit,
            mu_bs=args.mu_bs,
            runs=args.runs,
            seed=args.seed,
            jobs=args.jobs,
            telemetry=telemetry,
        )
    finally:
        _close_telemetry(args, telemetry)
    print(report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .robust import RetryPolicy
    from .serve.app import PrioService
    from .serve.limits import ServiceLimits

    telemetry = _open_telemetry(
        args, "serve", host=args.host, port=args.port
    )
    cache = _schedule_cache(args, telemetry)
    timeout = args.request_timeout if args.request_timeout > 0 else None
    limits = ServiceLimits(
        max_inflight=args.max_inflight,
        max_body_bytes=args.max_body_bytes,
        retry=RetryPolicy(max_attempts=args.max_attempts or 1, timeout=timeout),
    )
    service = PrioService(
        cache=cache,
        limits=limits,
        metrics=telemetry.registry if telemetry is not None else None,
        sim_jobs=args.jobs,
        shards=args.shards,
        stall=args.inject_stall,
        telemetry=telemetry,
        session_dir=args.session_dir,
    )

    def announce() -> None:
        host, port = service.address
        print(f"serving on http://{host}:{port}", flush=True)
        tier = (
            f"{args.shards} scheduler shard processes"
            if args.shards
            else "in-process dispatch"
        )
        print(
            f"endpoints: POST /schedule POST /simulate POST /session "
            f"POST /advance GET /session/{{id}} GET /healthz "
            f"GET /metrics (max in-flight {limits.max_inflight}; {tier}); "
            f"SIGTERM drains gracefully",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(
            service.run(
                args.host,
                args.port,
                install_signal_handlers=True,
                ready=announce,
            )
        )
    finally:
        _close_telemetry(args, telemetry)
    print("drained; all in-flight requests completed", file=sys.stderr)
    return 0


def _cmd_advance(args: argparse.Namespace) -> int:
    import json

    from .dag.io_json import dag_to_json
    from .live.session import SessionError
    from .live.store import SessionExists, SessionStore, session_token

    if not args.session and not args.dag:
        raise CliError("need --session or --dag to identify the session")
    store = SessionStore(directory=args.session_dir)
    dag_payload = None
    if args.dag:
        dag, _ = _load_dag(args.dag)
        dag_payload = dag_to_json(dag)
    session_id = args.session
    if session_id is None:
        session_id = f"{session_token(dag_payload)}.{args.name}"
    session = store.get(session_id)
    if session is None:
        if dag_payload is None:
            raise CliError(
                f"no session {session_id} under {args.session_dir}; "
                "pass --dag to create it"
            )
        try:
            session = store.create(dag_payload, name=args.name)
        except SessionExists:
            raise CliError(
                f"session {session_id} under {args.session_dir} does not "
                "recover from its checkpoint"
            ) from None
        except (SessionError, ValueError) as exc:
            raise CliError(str(exc)) from None
        print(
            f"created session {session_id} ({session.dag.n} jobs)",
            file=sys.stderr,
        )
    try:
        with open(args.events) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(
            f"cannot read {args.events}: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:
        raise CliError(f"{args.events} is not valid JSON: {exc}") from None
    if isinstance(raw, dict) and "events" in raw:
        raw = raw["events"]
    if not isinstance(raw, list):
        raise CliError(
            "event file must be a JSON list of events "
            "(or an object with an 'events' list)"
        )
    # Events may name jobs by label; the wire format wants integer ids.
    label_ids = {session.dag.label(u): u for u in range(session.dag.n)}
    events = []
    for i, event in enumerate(raw):
        if not isinstance(event, dict):
            raise CliError(f"event {i} must be an object")
        event = dict(event)
        label = event.pop("label", None)
        if label is not None:
            if "job" in event:
                raise CliError(f"event {i} has both 'job' and 'label'")
            if label not in label_ids:
                raise CliError(f"event {i}: unknown job label {label!r}")
            event["job"] = label_ids[label]
        events.append(event)
    seq = args.seq if args.seq is not None else session.seq + 1
    try:
        delta = store.advance(session_id, events, seq=seq)
    except SessionError as exc:
        raise CliError(str(exc)) from None
    summary = store.summary(session_id)
    print(
        f"session {session_id}: seq {delta['seq']}, "
        f"{delta['applied']} events applied "
        f"({delta['recompute']} recompute), "
        f"{delta['n_pending']} of {session.dag.n} jobs pending",
        file=sys.stderr,
    )
    # Rescue-style output: one jobpriority VARS line per pending job,
    # highest priority first — exactly what `prio --rescue` would write
    # into the DAGMan file for this remnant.
    priorities = summary["priorities"]
    pending = sorted(
        (u for u in range(session.dag.n) if priorities[u] > 0),
        key=lambda u: -priorities[u],
    )
    lines = [
        f'VARS {session.dag.label(u)} jobpriority="{priorities[u]}"'
        for u in pending
    ]
    text = "".join(line + "\n" for line in lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(lines)} jobs)", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    records = []
    for spec in args.dag:
        dag, name = _load_dag(spec)
        record, _ = measure_overhead(dag, name)
        records.append(record)
        print(record.row(), file=sys.stderr)
    print(render_overhead_table(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prio",
        description=(
            "Prioritize DAGMan jobs to maximize eligible-job counts "
            "(reproduction of Malewicz/Foster/Rosenberg/Wilde 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prio", help="instrument a DAGMan input file")
    p.add_argument("dagfile", help="DAGMan input file to prioritize")
    p.add_argument("-o", "--output", help="write here instead of in place")
    p.add_argument(
        "--jsdfs",
        action="store_true",
        help="also instrument referenced job-submit description files",
    )
    p.add_argument(
        "--rescue",
        action="store_true",
        help="treat DONE jobs as executed and re-prioritize the remnant",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_prio)

    p = sub.add_parser(
        "import",
        help="flatten a nested DAGMan tree into one workload",
    )
    p.add_argument("dagfile", help="root .dag of the workflow tree")
    p.add_argument("-o", "--output", help="write the flattened .dag here")
    p.add_argument(
        "--json", help="write the flattened dag and job metadata as JSON"
    )
    p.add_argument(
        "--prioritize",
        action="store_true",
        help="instrument the flattened dag with prio priorities",
    )
    p.add_argument(
        "--rescue",
        action="store_true",
        help="apply each file's newest rescue companion (DONE markers)",
    )
    p.add_argument(
        "--rescue-file", help="explicit rescue file for the root dag"
    )
    p.add_argument(
        "--no-subdags",
        action="store_true",
        help="keep SUBDAG EXTERNAL nodes opaque instead of expanding them",
    )
    p.add_argument(
        "--simulate",
        action="store_true",
        help="also run one simulated execution of the flattened dag",
    )
    p.add_argument("--mu-bit", type=float, default=1.0)
    p.add_argument("--mu-bs", type=float, default=16.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("schedule", help="print a schedule")
    _add_dag_argument(p)
    p.add_argument(
        "-a", "--algorithm", choices=("prio", "fifo"), default="prio"
    )
    p.add_argument("-1", "--one-per-line", action="store_true")
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("decompose", help="building blocks and families")
    _add_dag_argument(p)
    p.add_argument("--top", type=int, default=5, help="blocks to list")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("dot", help="export Graphviz DOT")
    _add_dag_argument(p)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument(
        "--no-priorities",
        action="store_true",
        help="skip running prio; plain structure only",
    )
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("regions", help="where PRIO wins (sweep summary)")
    _add_dag_argument(p)
    p.add_argument("--mu-bit", type=float, nargs="+", default=[1.0])
    p.add_argument(
        "--mu-bs", type=float, nargs="+", default=[1.0, 4.0, 16.0, 64.0, 256.0]
    )
    p.add_argument("-p", type=int, default=10)
    p.add_argument("-q", type=int, default=3)
    p.add_argument("--seed", type=int, default=20060427)
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("curves", help="Fig. 4 eligible-job curves")
    p.add_argument("dag", nargs="+")
    p.add_argument("--dump", action="store_true", help="print full series")
    p.add_argument("--plot", action="store_true", help="ASCII line plot")
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("simulate", help="one simulated execution")
    _add_dag_argument(p)
    p.add_argument(
        "-a",
        "--algorithm",
        # Derived from the policy registry: registering a policy in
        # repro.sim.policies is the only step needed to expose it here.
        choices=cli_policy_names(),
        default="prio",
    )
    p.add_argument("--mu-bit", type=float, default=1.0)
    p.add_argument("--mu-bs", type=float, default=16.0)
    p.add_argument("--seed", type=int, default=0)
    _add_failure_arguments(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="Figs. 6-9 ratio sweep")
    _add_dag_argument(p)
    p.add_argument("--mu-bit", type=float, nargs="+", default=[0.1, 1.0, 10.0])
    p.add_argument(
        "--mu-bs", type=float, nargs="+", default=[1.0, 4.0, 16.0, 64.0, 256.0]
    )
    p.add_argument("--paper-grid", action="store_true", help="full 7x17 grid")
    p.add_argument("-p", type=int, default=12, help="sampling-dist samples")
    p.add_argument("-q", type=int, default=4, help="measurements per sample")
    p.add_argument("--seed", type=int, default=20060427)
    p.add_argument("--plot", action="store_true", help="ASCII CI panels")
    p.add_argument("--csv", help="also write the cells as CSV")
    p.add_argument("--json", help="also write the cells as JSON")
    _add_failure_arguments(p)
    p.add_argument(
        "--policy",
        choices=cli_policy_names(),
        default="prio",
        help=(
            "numerator policy for the ratio (choices come from the "
            "policy registry); the ratio becomes policy / FIFO"
        ),
    )
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    _add_robust_arguments(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "calibrate",
        help="replications needed until the ratio CI is narrow enough",
    )
    _add_dag_argument(p)
    p.add_argument("--mu-bit", type=float, default=1.0)
    p.add_argument("--mu-bs", type=float, default=16.0)
    p.add_argument(
        "--target-width", type=float, default=0.1, help="CI width to reach"
    )
    p.add_argument("-p", type=int, default=20, help="sampling-dist samples")
    p.add_argument("--start-q", type=int, default=1)
    p.add_argument("--max-q", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--metric",
        choices=("execution_time", "stalling_probability", "utilization"),
        default="execution_time",
    )
    p.add_argument(
        "--stop-when-excludes-one",
        action="store_true",
        help="also stop once the CI certifies the effect's direction",
    )
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    _add_robust_arguments(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("overhead", help="Sec. 3.6 overhead table")
    p.add_argument("dag", nargs="+")
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("export", help="write a workload as a DAGMan tree")
    _add_dag_argument(p)
    p.add_argument("directory", help="target directory for the workflow")
    p.add_argument(
        "--prioritize", action="store_true", help="instrument after export"
    )
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("league", help="compare all policies side by side")
    _add_dag_argument(p)
    p.add_argument(
        "--policy",
        action="append",
        metavar="NAME",
        help=(
            "restrict the roster to these registry policies (repeatable); "
            "default races every CLI-visible policy plus prio-topological"
        ),
    )
    p.add_argument("--mu-bit", type=float, default=1.0)
    p.add_argument("--mu-bs", type=float, default=16.0)
    p.add_argument("--runs", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    _add_failure_arguments(p)
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    _add_robust_arguments(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_league)

    p = sub.add_parser("lint", help="check a DAGMan file for problems")
    p.add_argument("dagfile")
    p.add_argument(
        "--check-jsdfs",
        action="store_true",
        help=(
            "also verify referenced submit description files exist "
            "(one file only: not with -r)"
        ),
    )
    p.add_argument(
        "-r",
        "--recursive",
        action="store_true",
        help=(
            "follow SPLICE / SUBDAG EXTERNAL references and lint the "
            "whole tree as the importer flattens it (include cycles, "
            "missing files, undefined macros, name clashes)"
        ),
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "rounds", help="deterministic b-workers-per-round table"
    )
    _add_dag_argument(p)
    p.add_argument(
        "--batch-sizes",
        nargs="+",
        default=["1", "4", "16", "64", "256"],
        help="worker counts per round",
    )
    p.set_defaults(func=_cmd_rounds)

    p = sub.add_parser("run", help="execute a DAGMan workflow locally")
    p.add_argument("dagfile", help="DAGMan input file to execute")
    p.add_argument(
        "--prioritize",
        action="store_true",
        help="run prio first (respecting DONE markers)",
    )
    p.add_argument("--no-priorities", action="store_true")
    p.add_argument("-j", "--max-workers", type=int, default=1)
    p.add_argument("--timeout", type=float, help="per-job timeout (seconds)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="one-shot reproduction report")
    p.add_argument(
        "dag",
        nargs="*",
        default=["airsn-small", "inspiral-small", "montage-small", "sdss-small"],
    )
    p.add_argument("--mu-bit", type=float, nargs="+", default=[1.0])
    p.add_argument(
        "--mu-bs", type=float, nargs="+", default=[1.0, 4.0, 16.0, 64.0, 256.0]
    )
    p.add_argument("-p", type=int, default=8)
    p.add_argument("-q", type=int, default=2)
    p.add_argument("--seed", type=int, default=20060427)
    p.add_argument("-o", "--output", help="write the report to a file")
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    _add_robust_arguments(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "serve",
        help="long-running scheduling service (JSON over HTTP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8135,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    p.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=64,
        help=(
            "concurrently processing requests before new ones are "
            "answered 429 (bounded backpressure, no invisible queueing)"
        ),
    )
    p.add_argument(
        "--max-body-bytes",
        type=_positive_int,
        default=8 * 1024 * 1024,
        help="request body ceiling; larger payloads are answered 413",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "per-request processing deadline (504 when exceeded); "
            "0 or negative disables"
        ),
    )
    p.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help="retry transient request failures up to N times with backoff",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "scheduler worker processes; requests are consistent-hashed "
            "by dag identity so each shard's schedule cache stays hot "
            "(0 = compute in-process)"
        ),
    )
    p.add_argument(
        "--inject-stall",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "deterministic per-request compute delay (load testing: "
            "models a latency-bound backend)"
        ),
    )
    p.add_argument(
        "--session-dir",
        metavar="DIR",
        help=(
            "checkpoint live sessions (POST /session, POST /advance) "
            "here so they survive shard and server restarts; default is "
            "in-memory sessions that die with their process"
        ),
    )
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    _add_cache_arguments(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "advance",
        help="apply execution events to a checkpointed live session",
    )
    p.add_argument(
        "events",
        help=(
            "JSON event file: a list of {'kind': complete|fail|"
            "retry_exhausted|straggler_timeout, 'job': id} objects "
            "('label': name may replace 'job')"
        ),
    )
    p.add_argument(
        "--session-dir",
        required=True,
        metavar="DIR",
        help="session checkpoint directory (as given to prio serve)",
    )
    p.add_argument(
        "--session", help="full session id (token.name) to advance"
    )
    p.add_argument(
        "--dag",
        help=(
            "workload name or .dag file: derives the session id from "
            "the dag's identity, creating the session if missing"
        ),
    )
    p.add_argument(
        "--name", default="default", help="session name (with --dag)"
    )
    p.add_argument(
        "--seq",
        type=_positive_int,
        help="batch sequence number (default: the session's next)",
    )
    p.add_argument(
        "-o",
        "--output",
        help="write the rescue-style VARS lines here instead of stdout",
    )
    p.set_defaults(func=_cmd_advance)

    p = sub.add_parser(
        "profile",
        help="per-stage timing breakdown: prio pipeline + simulation",
    )
    p.add_argument(
        "-w",
        "--workload",
        required=True,
        help="workload name (one of: %s)" % ", ".join(workload_names()),
    )
    p.add_argument("--mu-bit", type=float, default=1.0)
    p.add_argument("--mu-bs", type=float, default=16.0)
    p.add_argument(
        "--runs", type=int, default=8, help="simulation replications to time"
    )
    p.add_argument("--seed", type=int, default=0)
    _add_jobs_argument(p)
    _add_telemetry_argument(p)
    p.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .robust import CheckpointError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except KeyboardInterrupt:
        # Completed work is already durable (each unit's checkpoint
        # record is fsynced); the command printed a --resume hint.
        print("interrupted", file=sys.stderr)
        return 130
    except (CliError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
