#!/usr/bin/env python3
"""Compare two sets of serve-benchmark runs, workload by workload.

    python3 benchmarks/serve/compare.py A.jsonl B.jsonl

Each file holds reports as ``run.py --output`` appends them, one JSON
object per line.  A is the baseline (the parent commit), B the change;
run them interleaved, with the same settings.  Runs of one workload are
paired in file order.  For every workload and every end-to-end metric
with a bound in ``BENCHMARK.json`` the verdict is:

* ``unresolved`` — the spread of A or B (quartile distance over median)
  is wider than the bound, and not every B run beats every A run
  (when every B run does beat every A run, the verdict is ``better``);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine in ten pairs (ties count for
  neither) and the medians differ by more than A's quartile distance;
* ``same`` — none of these.

The exit status is 1 when any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) → values, in file order."""
    runs: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                report = json.loads(line)
                for metric, entry in report["metrics"].items():
                    runs[report["workload"], metric].append(entry["value"])
    return runs


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool) -> Tuple[str, float, int]:
    """(verdict, relative change with worse positive, pairs B won)."""
    sign = 1.0 if lower_is_better else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = sign * (median_b - median_a) / median_a
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change, wins
        return "unresolved", change, wins
    if change > bound:
        return "worse", change, wins
    q1, _, q3 = statistics.quantiles(a, n=4)
    if wins >= 0.9 * min(len(a), len(b)) and abs(median_b - median_a) > q3 - q1:
        return "better", change, wins
    return "same", change, wins


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", help="reports of the parent (A)")
    parser.add_argument("change", help="reports of the change (B)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs, b_runs = load_runs(args.baseline), load_runs(args.change)
    workloads = sorted({workload for workload, _ in a_runs} & {workload for workload, _ in b_runs})
    failing = 0
    print(
        f"{'workload':16s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'change':>8s} {'spread A/B':>13s} {'wins':>6s}  verdict"
    )
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            a, b = a_runs.get(key), b_runs.get(key)
            if not a or not b:
                continue
            result, change, wins = verdict(a, b, metric["bound"], metric["better"] == "lower")
            failing += result in ("worse", "unresolved")
            print(
                f"{workload:16s} {metric['name']:18s} {statistics.median(a):12.4f} "
                f"{statistics.median(b):12.4f} {change:+8.2%} "
                f"{spread(a):6.1%}/{spread(b):6.1%} {wins:3d}/{min(len(a), len(b)):<2d}  {result}"
            )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
