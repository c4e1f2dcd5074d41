"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py PARENT CHANGE

Each argument is a directory of ``run.py`` result files (or one file).
For every workload and end-to-end metric it prints both sides' median
and quartiles and a verdict judged against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` -- the parent's own spread (quartile distance over
  median) exceeds the bound, unless every change run beats every parent
  run;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the bound;
* ``improved``   -- the change's median is better by more than the
  parent's spread and the change wins at least 9 in 10 seed-matched
  pairs (ties count for neither);
* ``ok``         -- none of these.

Traced results add a per-span table of median self time per op.  Runs
of the two sets with the same workload, seed and work must have
produced identical output digests.  Exits 1 on a regression or a digest
mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """Verdict for one metric; *parent*/*change* map seed -> value."""
    if not parent or not change:
        return "missing"
    sign = 1.0 if better == "lower" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    q1, p_med, q3 = quartiles(p_values)
    c_med = statistics.median(c_values)
    spread = (q3 - q1) / abs(p_med)
    worse = sign * (c_med - p_med) / abs(p_med)
    always_better = all(sign * (c - p) < 0 for c in c_values for p in p_values)
    if spread > bound and not always_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    seeds = sorted(set(parent) & set(change))
    pairs = (
        [(parent[s], change[s]) for s in seeds]
        if seeds
        else list(zip(sorted(p_values), sorted(c_values)))
    )
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if -worse > spread and wins >= WIN_SHARE * len(pairs):
        return "improved"
    return "ok"


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for file in files:
        payload = json.loads(file.read_text())
        if payload.get("benchmark") == "e2e" and "metrics" in payload:
            results.append(payload)
    return results


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def _run_key(result: dict) -> tuple:
    return (result["workload"], result["seed"], json.dumps(result["work"], sort_keys=True),
            result["quick"])


def compare(parent: list[dict], change: list[dict], spec: dict, out=sys.stdout) -> int:
    status = 0
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = defaultdict(dict)  # (side, workload, metric) -> {seed: value}
    for side, results in (("parent", parent), ("change", change)):
        for result in results:
            if result["mode"] != "untraced":
                continue
            for name, metric in result["metrics"].items():
                values[(side, result["workload"], name)][result["seed"]] = metric["value"]
    workloads = sorted({r["workload"] for r in parent + change})
    print(f"{'workload':<15} {'metric':<15} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict", file=out)
    for workload in workloads:
        for name, metric in bounds.items():
            p = values[("parent", workload, name)]
            c = values[("change", workload, name)]
            result = verdict(p, c, metric["better"], metric["bound"])
            if result == "regressed":
                status = 1
            cells = []
            for side in (p, c):
                q1, med, q3 = quartiles(list(side.values())) if side else (None,) * 3
                cells.append(f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]" if side else "-")
            delta = (
                f"{(statistics.median(c.values()) / statistics.median(p.values()) - 1):+.1%}"
                if p and c else "-"
            )
            print(f"{workload:<15} {name:<15} {cells[0]:>30} {cells[1]:>30} "
                  f"{delta:>8} {metric['bound']:>6.0%}  {result}", file=out)

    layers = defaultdict(list)  # (side, workload, span) -> [self ms per op]
    for side, results in (("parent", parent), ("change", change)):
        for result in results:
            for span, row in result.get("layers", {}).items():
                value = row["self_ms_per_op"] if isinstance(row, dict) else row
                layers[(side, result["workload"], span)].append(value)
    spans = sorted({(w, s) for (_, w, s) in layers})
    if spans:
        print(f"\n{'workload':<15} {'span (self ms/op)':<26} {'parent':>10} {'change':>10} "
              f"{'change':>8}", file=out)
        for workload, span in spans:
            p = layers[("parent", workload, span)]
            c = layers[("change", workload, span)]
            pm = statistics.median(p) if p else None
            cm = statistics.median(c) if c else None
            delta = f"{cm / pm - 1:+.1%}" if pm and cm is not None else "-"
            print(f"{workload:<15} {span:<26} {_fmt(pm):>10} {_fmt(cm):>10} "
                  f"{delta:>8}", file=out)

    digests = {}
    for result in parent:
        digests[_run_key(result)] = result.get("digest")
    mismatches = [
        _run_key(r) for r in change
        if _run_key(r) in digests and digests[_run_key(r)] != r.get("digest")
    ]
    for workload, seed, _, _ in mismatches:
        print(f"digest mismatch: {workload} seed {seed}", file=out)
    return 1 if mismatches else status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK,
                        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    return compare(load(args.parent), load(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
