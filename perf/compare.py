"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python perf/compare.py A_DIR B_DIR

``A_DIR`` holds the parent's results and ``B_DIR`` the change's, as
``perf/run.py --out DIR`` saves them (one JSON file per workload run).
For every (workload, end-to-end metric) it prints each side's median and
quartiles, the share of run pairs B wins (the i-th run of each side,
ordered by seed then time; ties count for neither side) and a verdict:

``improved``
    B wins at least 9 in 10 pairs and its median beats A's by more than
    A's own quartile spread.
``unresolved``
    Either side's quartile spread, as a share of its median, exceeds the
    metric's bound, and not every B run beats every A run.
``regressed``
    B's median is worse than A's by more than the bound.
``unchanged``
    Anything else.

Bounds and directions come from ``BENCHMARK.json``.  Exits 1 when any
metric regressed.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import common

WIN_SHARE = 0.9


def load_runs(directory: str) -> Dict[str, List[Dict[str, float]]]:
    """Workload -> end-to-end metric values of each run, in pairing order."""
    runs: Dict[str, List[Tuple[int, str, Dict[str, float]]]] = defaultdict(list)
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if not isinstance(result, dict) or result.get("trace", True):
            continue
        runs[result["workload"]].append(
            (result["seed"], os.path.basename(path), result["metrics"]))
    return {workload: [metrics for _, _, metrics in sorted(entries)]
            for workload, entries in runs.items()}


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, share of pairs B wins)`` for one metric (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = common.quartiles(a), common.quartiles(b)
    pairs = list(zip(a, b))
    share = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    gain = sign * (qb[1] - qa[1])
    if share >= WIN_SHARE and gain > qa[2] - qa[0]:
        return "improved", share
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")
                 for q in (qa, qb))
    every_run_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not every_run_better:
        return "unresolved", share
    if -gain > bound * abs(qa[1]):
        return "regressed", share
    return "unchanged", share


def compare(a_dir: str, b_dir: str, bench: Optional[Dict] = None
            ) -> List[Tuple[str, str, str, str, str, str]]:
    """Rows of (workload, metric, A, B, B-wins, verdict) as printed."""
    bench = bench or common.load_benchmark()
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a_vals = [m[name] for m in a if name in m]
            b_vals = [m[name] for m in b if name in m]
            if not a_vals or not b_vals:
                rows.append((workload, name, "-", "-", "-", "missing"))
                continue
            result, share = verdict(a_vals, b_vals, metric["better"],
                                    metric["bound"])
            rows.append((workload, name, _describe(a_vals), _describe(b_vals),
                         f"{share:.0%} of {min(len(a_vals), len(b_vals))}",
                         result))
    return rows


def _describe(values: Sequence[float]) -> str:
    q1, median, q3 = common.quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rows = compare(argv[0], argv[1])
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "B wins", "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows])
              for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if any(r[5] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
