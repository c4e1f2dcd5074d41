#!/usr/bin/env python
"""Advanced DAGMan workflows: hierarchical splices and rescue re-runs.

Two real Condor mechanisms the tool integrates with:

1. **SPLICE** — a parent workflow inlines sub-workflows; the prio tool
   flattens the hierarchy (with DAGMan's ``splice+job`` naming) and
   prioritizes across it.
2. **Rescue dags** — after a partial run, DAGMan marks completed jobs
   ``DONE``; ``--rescue`` re-prioritizes only the remnant, so the restart
   gets priorities tuned to what is actually left.

Run:  python examples/rescue_and_splices.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro.core.tool import prioritize_dagman_file
from repro.dagman import import_dagman_file

PREPROCESS = """\
JOB fetch fetch.sub
JOB convert convert.sub
JOB index index.sub
PARENT fetch CHILD convert index
"""

ANALYSIS = """\
JOB model model.sub
JOB plotA plot.sub
JOB plotB plot.sub
PARENT model CHILD plotA plotB
"""

TOP = """\
JOB stage stage.sub
SPLICE prep preprocess.dag
SPLICE run analysis.dag
JOB publish publish.sub
PARENT stage CHILD prep
PARENT prep CHILD run
PARENT run CHILD publish
"""

RESCUE = """\
JOB stage stage.sub DONE
JOB prep+fetch fetch.sub DONE
JOB prep+convert convert.sub DONE
JOB prep+index index.sub
JOB run+model model.sub
JOB run+plotA plot.sub
JOB run+plotB plot.sub
JOB publish publish.sub
PARENT stage CHILD prep+fetch
PARENT prep+fetch CHILD prep+convert prep+index
PARENT prep+convert prep+index CHILD run+model
PARENT run+model CHILD run+plotA run+plotB
PARENT run+plotA run+plotB CHILD publish
"""


def main(workdir: str | None = None) -> None:
    root = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="prio_"))
    root.mkdir(parents=True, exist_ok=True)
    (root / "preprocess.dag").write_text(PREPROCESS)
    (root / "analysis.dag").write_text(ANALYSIS)
    (root / "top.dag").write_text(TOP)

    # --- splices -----------------------------------------------------------
    flat = import_dagman_file(root / "top.dag").flat
    print(f"flattened top.dag: {len(flat.jobs)} jobs")
    print("  jobs:", ", ".join(flat.jobs))
    out = root / "top_flat.dag"
    result = prioritize_dagman_file(root / "top.dag", output=out)
    print("prio on the hierarchy:", result.summary())
    top3 = sorted(result.priorities, key=result.priorities.get, reverse=True)[:3]
    print("  highest priorities:", ", ".join(top3))

    # --- rescue ------------------------------------------------------------
    rescue = root / "rescue.dag"
    rescue.write_text(RESCUE)
    result = prioritize_dagman_file(rescue, respect_done=True)
    print("\nrescue re-prioritization (3 jobs DONE):")
    for name, priority in sorted(
        result.priorities.items(), key=lambda kv: -kv[1]
    ):
        marker = " (done)" if priority == 0 else ""
        print(f"  {name:<14s} {priority}{marker}")
    print(f"\nworkflow directory kept at: {root}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
