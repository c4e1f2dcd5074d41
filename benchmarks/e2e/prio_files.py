"""``prio-files``: the paper's tool as users run it, on files.

Closed loop, one thread.  Each pass instruments every workflow of the
set: ``import_dagman_file`` -> ``prio_schedule`` -> ``set_priorities`` ->
``render`` -> write.  The set is 20 nipype-style and 20 cax-style corpus
trees (sizes from the seed) plus the Inspiral, Montage and SDSS-medium
dags exported as workflow directories.  On the corpus trees (the fast
path) the importer does most of the work; on the paper dags (the slow
path) the scheduler's decomposition and combine phases do.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

from repro.core.prio import prio_schedule
from repro.dagman.importer import import_dagman_file
from repro.workloads.corpus import cax_tree, nipype_tree, write_tree
from repro.workloads.export import export_workflow
from repro.workloads.registry import get_workload

from inputs import rng_for, stratified
from measure import Workload, closed_loop, self_peak_rss_mb
from spans import HARNESS, paired_replay, spanner

PAPER_DAGS = ("inspiral", "montage", "sdss-medium")
TREES_PER_FAMILY = 20
PASS_SECONDS = 2.4  # one pass on the reference host

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


class PrioFiles(Workload):
    name = "prio-files"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.trees_per_family = 4 if ctx.quick else TREES_PER_FAMILY
        self.passes = 1 if ctx.quick else ctx.per_round(PASS_SECONDS)
        self.roots = []  # (root path, is a paper dag)
        self.outputs: dict = {}  # root -> set of output text digests
        self.priorities: dict = {}  # root -> {job: priority}, first pass
        self.fingerprints: dict = {}  # root -> imported dag fingerprint
        self.counts = {"files_read": 0, "bytes_written": 0, "shortcuts": 0,
                       "components": 0, "catalog_blocks": 0}

    def work(self) -> dict:
        return {"passes_per_round": self.passes,
                "workflows_per_pass": 2 * self.trees_per_family + len(PAPER_DAGS)}

    def _shapes(self, rng):
        """Stratified draws of a tree's two parameters, paired by a fixed
        stride: every seed gets the same spread of tree shapes (small and
        large in both parameters), jittered within each stratum."""
        n = self.trees_per_family
        first, second = sorted(stratified(rng, n)), sorted(stratified(rng, n))
        return [(first[i], second[(7 * i) % n]) for i in range(n)]

    def prepare(self) -> None:
        rng = rng_for(self.ctx.seed, self.name)
        trees = self.ctx.workdir / "trees"
        for i, (s, d) in enumerate(self._shapes(rng)):
            tree = nipype_tree(8 + int(s * 57), 3 + int(d * 6))
            self.roots.append((write_tree(tree, trees / f"nipype-{i:02d}"), False))
        for i, (r, c) in enumerate(self._shapes(rng)):
            tree = cax_tree(8 + int(r * 33), 2 + int(c * 15))
            self.roots.append((write_tree(tree, trees / f"cax-{i:02d}"), False))
        for name in PAPER_DAGS:
            path, _ = export_workflow(get_workload(name), trees / name)
            self.roots.append((path, True))
        order = rng.permutation(len(self.roots))
        self.roots = [self.roots[i] for i in order]
        # Compile the bytecode once, so no timed import pays for it.
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       env=self.ctx.env, check=True, timeout=180)

    def setup(self) -> float:
        """A fresh interpreter's ``import repro.cli``: what every CLI run
        pays before it reads a file."""
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=self.ctx.env,
            check=True, capture_output=True, text=True, timeout=180,
        )
        return float(out.stdout)

    def _items(self):
        return [root for _ in range(self.passes) for root in self.roots]

    def _workflow(self, item, tracer=None):
        root, paper = item
        span = spanner(tracer)
        with span(HARNESS):
            with span("dagman.import"):
                workflow = import_dagman_file(root)
            dag = workflow.dag
            with span("core.prio"):
                result = prio_schedule(dag)
            with span("dagman.render"):
                workflow.flat.set_priorities(
                    {dag.label(u): result.priorities[u] for u in range(dag.n)}
                )
                text = workflow.render()
            with span("dagman.write"):
                data = text.encode()
                (root.parent / "prioritized.dag").write_bytes(data)
        self.outputs.setdefault(root, set()).add(hashlib.sha256(data).hexdigest())
        if root not in self.priorities:
            self.priorities[root] = dict(zip(dag.labels, result.priorities))
            self.fingerprints[root] = dag.fingerprint()
        if tracer is not None:
            self._count(workflow, result, len(data))
        return ("slow" if paper else "fast"), dag.n

    def _count(self, workflow, result, nbytes) -> None:
        counts = self.counts
        counts["files_read"] += len(workflow.sources)
        counts["bytes_written"] += nbytes
        counts["shortcuts"] += len(getattr(result, "shortcuts_removed", ()))
        blocks = getattr(result, "scheduled_components", ())
        counts["components"] += len(blocks)
        counts["catalog_blocks"] += sum(
            1 for block in blocks if getattr(block, "family", None)
        )

    def measure(self):
        return closed_loop(self._items(), self._workflow, self.speed)

    def replay(self, tracer, wraps):
        return paired_replay(self.roots, self._workflow, tracer, wraps)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def digest(self) -> str:
        h = hashlib.sha256()
        for root, _ in self.roots:
            h.update(root.parent.name.encode())
            h.update("".join(sorted(self.outputs[root])).encode())
        return h.hexdigest()

    def check(self) -> list[str]:
        """Re-import every output: the priorities must round-trip, form
        a permutation of 1..n and decrease along every dependency; every
        pass must have written the same bytes."""
        failures = []
        for root, _ in self.roots:
            label = root.parent.name
            if len(self.outputs[root]) != 1:
                failures.append(f"{label}: passes wrote different outputs")
            again = import_dagman_file(root.parent / "prioritized.dag")
            dag = again.dag
            expected = self.priorities[root]
            got = {name: again.flat.get_priority(name) for name in again.flat.jobs}
            if got != expected:
                failures.append(f"{label}: priorities did not round-trip")
                continue
            if dag.fingerprint() != self.fingerprints[root]:
                failures.append(f"{label}: instrumented dag changed structure")
            if sorted(got.values()) != list(range(1, dag.n + 1)):
                failures.append(f"{label}: priorities are not a permutation")
            prio = [got[dag.label(u)] for u in range(dag.n)]
            if any(prio[u] <= prio[v] for u, v in dag.arcs()):
                failures.append(f"{label}: priorities are not a topological order")
        return failures

    def layer_counts(self, ops: int, tracer) -> dict:
        c = self.counts
        return {
            "dagman.files_read": c["files_read"] / ops,
            "dagman.bytes_written": c["bytes_written"] / ops,
            "dag.shortcuts_removed": c["shortcuts"] / ops,
            "core.components": c["components"] / ops,
            "core.catalog_hit_ratio": c["catalog_blocks"] / max(1, c["components"]),
        }
