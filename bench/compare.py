"""Compare two sets of benchmark runs metric by metric.

Usage::

    python bench/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

Each file is a ``bench/run.py --out`` document.  For every (workload,
metric) pair both sides report, the table gives each side's median and
quartiles over its runs, the ratio B/A of the medians, and a verdict
against the metric's bound in ``BENCHMARK.json``:

``worse``
    B's median is worse than A's by more than the bound;
``better``
    B's median is better than A's by more than A's own spread (the
    inter-quartile distance as a share of the median);
``within``
    neither;
``unresolved``
    either side's spread exceeds the bound, unless every B run is
    better (``better``) or worse (``worse``) than every A run.

Per-layer metrics have no bound; their verdict column reads ``-``.
The exit code is 1 when any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402


def load_runs(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per run]}`` over run documents."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for workload, wdoc in doc["workloads"].items():
            for metric, value in wdoc["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def verdict(a: List[float], b: List[float], bound: Optional[float],
            better: str) -> str:
    """The comparison rule of the module docstring."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if max(stats.spread(a), stats.spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > stats.spread(a):
        return "better"
    return "within"


def bounds() -> Dict[str, tuple]:
    """``{metric: (bound or None, better)}`` from BENCHMARK.json."""
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    table = {m["name"]: (m["bound"], m["better"]) for m in doc["end_to_end"]}
    for m in doc["per_layer"]:
        table[m["name"]] = (None, m["better"])
    return table


def _fmt(values: List[float]) -> str:
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of bench/run.py --out documents.")
    parser.add_argument("--a", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--b", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    table = bounds()
    print(f"A: {len(args.a)} run(s), B: {len(args.b)} run(s); "
          "median [q1, q3]")
    print(f"{'workload':<13} {'metric':<30} {'A':>28} {'B':>28} "
          f"{'B/A':>7}  verdict")
    any_worse = False
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, metric = key
        a, b = a_runs[key], b_runs[key]
        bound, better = table.get(metric, (None, "lower"))
        result = verdict(a, b, bound, better)
        any_worse |= result == "worse"
        a_med = statistics.median(a)
        ratio = f"{statistics.median(b) / a_med:.3f}" if a_med else "-"
        print(f"{workload:<13} {metric:<30} {_fmt(a):>28} {_fmt(b):>28} "
              f"{ratio:>7}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
