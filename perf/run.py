"""Run the benchmark: seeded workloads end to end, outputs checked.

    python perf/run.py                      # every workload, end-to-end metrics
    python perf/run.py --trace              # per-layer metrics and the ladder
    python perf/run.py --workload crossbar_rw --seed 2 --seconds 10 --trace 0

Each workload runs in fresh child processes (``workloads.py``), so no
state carries over between runs.  Without ``--trace`` a workload is set
up three times (two set-up-only launches, then the measured run) and the
median set-up time is reported with the run's latency, throughput and
memory.  With ``--trace`` the workload runs once untraced, once with
spans around the layers' public calls, then the ladder (``ladder.py``)
runs; the per-layer metrics, the untraced run's ``tail.p90_ms`` and
``tail.p99_ms``, and ``trace.overhead_pct`` are reported.  Metric names,
units and bounds come from ``BENCHMARK.json``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A failed check exits 1; a run that cannot finish exits 2
without that line.  Each result is also saved under ``--out`` for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import common

#: Budget for one invocation on one workload, under the 180 s limit.
BUDGET_S = 170.0


class ChildFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def child(script: str, args: Sequence[str], deadline: float) -> Dict[str, Any]:
    """Run ``perf/<script>`` in a fresh interpreter; its last JSON line."""
    command = [sys.executable, *(f"-W{w}" for w in sys.warnoptions),
               os.path.join(common.PERF_DIR, script), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{script}: out of time budget")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=common.ROOT, check=False)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{script} {' '.join(args)}: timed out") from None
    result = common.last_json_line(done.stdout)
    if done.returncode != 0 or result is None:
        raise ChildFailed(f"{script} {' '.join(args)}: exit {done.returncode}")
    return result


def run_untraced(workload: str, seed: int, seconds: float, out: str,
                 deadline: float) -> Dict[str, Any]:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", out]
    setups = [child("workloads.py", [*args, "--mode", "setup"], deadline)
              for _ in range(2)]
    main = child("workloads.py", [*args, "--mode", "run"], deadline)
    main["metrics"] = {
        "setup_s": statistics.median(
            [main["setup_s"]] + [s["setup_s"] for s in setups]),
        "p50_ms": main["p50_ms"],
        "throughput_ops": main["throughput_ops"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main


def run_traced(workload: str, seed: int, seconds: float, out: str,
               deadline: float, ladder: Optional[Dict[str, Any]]
               ) -> Dict[str, Any]:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", out]
    reference = child("workloads.py", [*args, "--mode", "run"], deadline)
    traced = child("workloads.py", [*args, "--mode", "trace"], deadline)
    if ladder is None:
        ladder = child("ladder.py", [], deadline)
    metrics = dict(traced["layers"])
    metrics["tail.p90_ms"] = reference["p90_ms"]
    metrics["tail.p99_ms"] = reference["p99_ms"]
    metrics["trace.overhead_pct"] = (
        (traced["p50_ms"] - reference["p50_ms"]) / reference["p50_ms"] * 100)
    metrics.update(ladder["metrics"])
    return {
        "workload": workload, "seed": seed,
        "correct": reference["correct"] and traced["correct"],
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "checks": reference["checks"] + traced["checks"],
        "failures": reference["failures"] + traced["failures"],
        "absent": ladder["absent"] + traced["missing_spans"],
        "metrics": metrics, "ladder": ladder,
    }


def report(result: Dict[str, Any], declared: Sequence[Dict[str, Any]]) -> None:
    """Print every declared metric of one workload with its unit."""
    workload = result["workload"]
    for metric in declared:
        name = metric["name"]
        value = result["metrics"].get(name)
        shown = "absent" if value is None else f"{value:.6g} {metric['unit']}"
        print(f"{workload:18s} {name:46s} {shown}")
    for name in result.get("absent", ()):
        print(f"{workload:18s} absent from the program: {name}")
    for failure in result.get("failures", ()):
        print(f"{workload:18s} OP FAILED: {failure}")
    for check in result["checks"]:
        print(f"{workload:18s} CHECK FAILED: {check}")


def save(result: Dict[str, Any], trace: bool, out: str) -> None:
    stamp = time.time_ns()
    kind = "trace" if trace else "e2e"
    common.write_json(
        os.path.join(out, f"{result['workload']}.seed{result['seed']}."
                          f"{kind}.{stamp}.json"),
        {key: result[key] for key in ("workload", "seed", "correct",
                                      "attempted", "failed", "metrics")}
        | {"trace": trace})


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = common.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *names])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(common.ROOT, "perf_out"))
    args = parser.parse_args(argv)
    common.use_src()
    workloads = names if args.workload == "all" else [args.workload]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    deadline = time.monotonic() + BUDGET_S * len(workloads)
    results: List[Dict[str, Any]] = []
    ladder: Optional[Dict[str, Any]] = None
    try:
        for workload in workloads:
            if args.trace:
                result = run_traced(workload, args.seed, args.seconds,
                                    args.out, deadline, ladder)
                ladder = result["ladder"]
            else:
                result = run_untraced(workload, args.seed, args.seconds,
                                      args.out, deadline)
            report(result, declared)
            save(result, bool(args.trace), args.out)
            results.append(result)
    except ChildFailed as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2

    def keyed(result: Dict[str, Any], name: str) -> str:
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            keyed(r, name): {"value": common.finite(r["metrics"][name]),
                             "unit": units[name]}
            for r in results for name in units if name in r["metrics"]
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
