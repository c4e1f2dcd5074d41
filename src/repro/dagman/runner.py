"""A local DAGMan execution engine.

Condor's ``condor_submit_dag`` dispatches a workflow's jobs to the pool as
they become eligible, honoring per-job priorities, retrying failures and
writing a *rescue dag* when the run cannot complete.  This module
implements that control loop locally, so an instrumented workflow can be
**executed**, not just scheduled:

* eligible jobs are dispatched highest-``jobpriority`` first (FIFO among
  equal priorities — exactly the behaviour the prio tool's instrumentation
  relies on);
* a bounded worker pool (``max_workers``) runs jobs concurrently; the
  default executor shells out to each job's JSDF ``executable`` +
  ``arguments`` (with ``$(macro)`` expansion), and any callable
  ``(JobDecl, macros) -> int`` can stand in for tests and simulations;
* ``RETRY`` counts are honored; a job that exhausts its retries fails,
  its descendants are cancelled, independent branches keep running;
* ``SCRIPT PRE/POST`` hooks run when a *script runner* is supplied
  (``SubprocessExecutor.run_script`` shells them out): a failing PRE fails
  the attempt without running the job; when a POST exists, **its** exit
  code decides node success (DAGMan semantics), and it sees the job's
  code as ``$(RETURN)``;
* an incomplete run yields a **rescue dag**: the original file with
  ``DONE`` markers on every completed job, ready for
  ``prio --rescue`` + resubmission.

The engine is deterministic for ``max_workers = 1`` and for any executor
that is itself deterministic.
"""

from __future__ import annotations

import heapq
import re
import shlex
import subprocess
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .importer import _MACRO_RE
from .jsdf import parse_jsdf
from .model import JOBPRIORITY_MACRO, DagmanFile, JobDecl

__all__ = [
    "JobState",
    "JobOutcome",
    "WorkflowRun",
    "run_workflow",
    "SubprocessExecutor",
    "expand_macros",
]

Executor = Callable[[JobDecl, dict[str, str]], int]


class JobState(Enum):
    """Terminal state of one job in a run."""

    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"  # an ancestor failed
    NOT_RUN = "not-run"      # workflow aborted before dispatch


@dataclass
class JobOutcome:
    """What happened to one job."""

    name: str
    state: JobState
    attempts: int = 0
    return_code: int | None = None


@dataclass
class WorkflowRun:
    """Result of executing a workflow."""

    dagman: DagmanFile
    outcomes: dict[str, JobOutcome]
    dispatch_order: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return all(o.state is JobState.DONE for o in self.outcomes.values())

    @property
    def n_done(self) -> int:
        return sum(
            1 for o in self.outcomes.values() if o.state is JobState.DONE
        )

    def failed_jobs(self) -> list[str]:
        return [
            name
            for name, o in self.outcomes.items()
            if o.state is JobState.FAILED
        ]

    def rescue_text(self) -> str:
        """The rescue dag: the original file with DONE on completed jobs.

        DAGMan writes ``<file>.rescue001`` in this form; feeding it back
        through ``run_workflow`` (or ``prio --rescue``) resumes the run.
        """
        lines = []
        for raw in self.dagman.lines:
            tokens = raw.split()
            if (
                len(tokens) >= 3
                and tokens[0].upper() in ("JOB", "DATA")
                and self.outcomes.get(tokens[1], None) is not None
                and self.outcomes[tokens[1]].state is JobState.DONE
                and tokens[-1].upper() != "DONE"
            ):
                lines.append(raw + " DONE")
            else:
                lines.append(raw)
        return "\n".join(lines) + ("\n" if lines else "")


def expand_macros(text: str, macros: dict[str, str]) -> str:
    """Substitute ``$(name)`` macro references (unknown names expand to
    the empty string, as condor_submit does for undefined macros)."""

    def repl(match: re.Match) -> str:
        return macros.get(match.group(1).lower(), macros.get(match.group(1), ""))

    return _MACRO_RE.sub(repl, text)


class SubprocessExecutor:
    """Run each job's JSDF ``executable``/``arguments`` as a subprocess.

    JSDF paths resolve against *root* (and the job's ``DIR``); commands run
    with the resolved directory as cwd.  Macros available for expansion:
    the job's VARS (including ``jobpriority``) plus ``JOB`` = the job name.
    """

    def __init__(self, root: str | Path, *, timeout: float | None = None):
        self.root = Path(root)
        self.timeout = timeout

    def __call__(self, decl: JobDecl, macros: dict[str, str]) -> int:
        base = self.root / decl.directory if decl.directory else self.root
        jsdf_path = base / decl.submit_file
        attrs = parse_jsdf(jsdf_path.read_text())
        executable = attrs.get("executable")
        if not executable:
            raise ValueError(f"JSDF {jsdf_path} has no executable")
        arguments = expand_macros(attrs.get("arguments", ""), macros)
        command = [expand_macros(executable, macros)] + shlex.split(arguments)
        completed = subprocess.run(
            command,
            cwd=base,
            timeout=self.timeout,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return completed.returncode

    def run_script(self, command: str, macros: dict[str, str]) -> int:
        """Execute a SCRIPT PRE/POST command line (macro-expanded)."""
        argv = shlex.split(expand_macros(command, macros))
        completed = subprocess.run(
            argv,
            cwd=self.root,
            timeout=self.timeout,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return completed.returncode


def run_workflow(
    dagman: DagmanFile,
    execute: Executor,
    *,
    max_workers: int = 1,
    use_priorities: bool = True,
    run_script: Callable[[str, dict[str, str]], int] | None = None,
) -> WorkflowRun:
    """Execute *dagman* with the given executor.

    Jobs marked ``DONE`` in the file are skipped (rescue-dag semantics).
    With ``max_workers > 1`` jobs run concurrently on a thread pool; the
    dispatch *order* is still priority-driven.  ``run_script`` executes
    SCRIPT PRE/POST command lines; without it, scripts are skipped.
    """
    if dagman.splices:
        raise ValueError(
            "flatten splices before execution (repro.dagman.load_dagman_file)"
        )
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    dag = dagman.to_dag()
    n = dag.n
    outcomes = {
        name: JobOutcome(name=name, state=JobState.NOT_RUN)
        for name in dagman.jobs
    }
    remaining = [dag.in_degree(u) for u in range(n)]
    attempts_left = {
        name: dagman.retries.get(name, 0) for name in dagman.jobs
    }

    def priority_of(name: str) -> int:
        value = dagman.vars_.get(name, {}).get(JOBPRIORITY_MACRO, "0")
        try:
            return int(value)
        except ValueError:
            return 0

    # Ready heap: (-priority, sequence) so higher jobpriority dispatches
    # first and FIFO breaks ties — Condor's queue discipline.
    ready: list[tuple[int, int, int]] = []
    seq = 0
    cancelled: set[int] = set()
    done: set[int] = set()
    dispatch_order: list[str] = []

    def push_ready(u: int) -> None:
        nonlocal seq
        prio = priority_of(dag.label(u)) if use_priorities else 0
        heapq.heappush(ready, (-prio, seq, u))
        seq += 1

    def mark_done(u: int, outcome: JobOutcome) -> None:
        outcome.state = JobState.DONE
        done.add(u)
        for v in dag.children(u):
            remaining[v] -= 1
            if remaining[v] == 0 and v not in cancelled:
                push_ready(v)

    def cancel_descendants(u: int) -> None:
        stack = list(dag.children(u))
        while stack:
            v = stack.pop()
            if v in cancelled:
                continue
            cancelled.add(v)
            out = outcomes[dag.label(v)]
            if out.state is JobState.NOT_RUN:
                out.state = JobState.CANCELLED
            stack.extend(dag.children(v))

    # Pre-completed jobs (rescue semantics).
    for u in range(n):
        name = dag.label(u)
        if dagman.jobs[name].done:
            outcomes[name].state = JobState.DONE
    for u in range(n):
        if outcomes[dag.label(u)].state is JobState.DONE:
            done.add(u)
            for v in dag.children(u):
                remaining[v] -= 1
    for u in range(n):
        if (
            remaining[u] == 0
            and outcomes[dag.label(u)].state is JobState.NOT_RUN
        ):
            push_ready(u)

    def attempt(u: int) -> None:
        name = dag.label(u)
        outcome = outcomes[name]
        macros = {
            k.lower(): v for k, v in dagman.vars_.get(name, {}).items()
        }
        macros["job"] = name
        pre = dagman.scripts.get((name, "pre")) if run_script else None
        post = dagman.scripts.get((name, "post")) if run_script else None
        while True:
            outcome.attempts += 1
            if pre is not None and run_script(pre, macros) != 0:
                code = -1  # PRE failed: the job never ran this attempt
            else:
                code = execute(dagman.jobs[name], macros)
                if post is not None:
                    # DAGMan: the POST script's exit code decides node
                    # success; it sees the job's code as $(RETURN).
                    code = run_script(
                        post, {**macros, "return": str(code)}
                    )
            outcome.return_code = code
            if code == 0:
                return
            if attempts_left[name] <= 0:
                outcome.state = JobState.FAILED
                return
            attempts_left[name] -= 1

    if max_workers == 1:
        while ready:
            _, _, u = heapq.heappop(ready)
            name = dag.label(u)
            dispatch_order.append(name)
            attempt(u)
            outcome = outcomes[name]
            if outcome.state is JobState.FAILED:
                cancel_descendants(u)
            else:
                mark_done(u, outcome)
    else:
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            in_flight = {}
            while ready or in_flight:
                while ready and len(in_flight) < max_workers:
                    _, _, u = heapq.heappop(ready)
                    dispatch_order.append(dag.label(u))
                    in_flight[pool.submit(attempt, u)] = u
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    u = in_flight.pop(future)
                    future.result()  # propagate executor exceptions
                    outcome = outcomes[dag.label(u)]
                    if outcome.state is JobState.FAILED:
                        cancel_descendants(u)
                    else:
                        mark_done(u, outcome)

    return WorkflowRun(
        dagman=dagman, outcomes=outcomes, dispatch_order=dispatch_order
    )
