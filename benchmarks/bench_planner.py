"""Offload-planner benchmarks: planning throughput and auto-routing.

The planner gates, measured:

* planning a 10k-entry workload trace (mixed kernels, widths, batch
  sizes) must sustain at least **2,000 entries/s** — placement
  memoisation makes steady-state pricing a dict probe, so a trace far
  larger than the paper's two-workload mix stays interactive.
* serving wide-batch requests with ``backend="auto"`` must be at least
  as fast as naming ``functional`` outright, with bit-identical
  outputs: the plan routes >=64-word CIM batches onto the bit-plane
  executor, so cost-aware routing buys throughput instead of taxing it.
"""

import asyncio
import time

import numpy as np

from repro.analysis import format_table
from repro.analysis.planner import TraceEntry, plan
from repro.serve import ServeRequest
from repro.serve.server import KernelServer

TRACE_ENTRIES = 10_000
PLAN_RATE_FLOOR = 2_000.0     # entries/s
SERVE_REQUESTS = 64
SERVE_WORDS = 256             # >= AUTO_BITPLANE_WORDS -> bit-plane routed
WIDTH = 32


def _trace():
    """10k entries over mixed shapes: every builtin kernel, four widths,
    word counts log-spaced across the paper's batch regimes."""
    rng = np.random.default_rng(7)
    kernels = ("comparator", "word-compare", "adder", "cam-match")
    widths = {"comparator": (2,), "word-compare": (8, 16, 32),
              "adder": (8, 16, 32), "cam-match": (4, 8, 16)}
    entries = []
    for i in range(TRACE_ENTRIES):
        kernel = kernels[i % len(kernels)]
        width = widths[kernel][i % len(widths[kernel])]
        words = int(10 ** rng.uniform(0, 6))
        entries.append(TraceEntry(kernel=kernel, width=width, words=words))
    return entries


def _requests(backend):
    rng = np.random.default_rng(11)
    mask = (1 << WIDTH) - 1
    requests = []
    for i in range(SERVE_REQUESTS):
        a = rng.integers(0, mask + 1, size=SERVE_WORDS, dtype=np.uint64)
        b = rng.integers(0, mask + 1, size=SERVE_WORDS, dtype=np.uint64)
        requests.append(ServeRequest(
            id=f"{backend}-{i}", kernel="adder", width=WIDTH,
            operands={"a": tuple(int(v) for v in a),
                      "b": tuple(int(v) for v in b)},
            backend=backend,
        ))
    return requests


def _serve(requests):
    async def scenario():
        async with KernelServer(
            max_batch_size=8,
            queue_limit=SERVE_REQUESTS,
            cache_capacity=0,
        ) as server:
            return await server.submit_many(requests)

    return asyncio.run(scenario())


def test_bench_plan_10k_trace_throughput(benchmark):
    trace = _trace()

    result = benchmark(plan, trace)

    start = time.perf_counter()
    plan(trace)
    wall = time.perf_counter() - start
    rate = TRACE_ENTRIES / wall

    placements = {"cim": 0, "cpu": 0}
    for choice in result.choices:
        placements[choice.placement] += 1
    print()
    print(format_table(
        ["metric", "value"],
        [["trace entries", f"{TRACE_ENTRIES}"],
         ["plan wall", f"{wall:.4f} s"],
         ["entries/s", f"{rate:.0f}"],
         ["cim placements", f"{placements['cim']}"],
         ["cpu placements", f"{placements['cpu']}"]],
        title="10k-entry trace offload planning",
    ))

    assert len(result.choices) == TRACE_ENTRIES
    # Under Table 1 the CIM side wins every placement (the paper's
    # claim); the CPU column exists for derived-technology sweeps.
    assert placements["cim"] == TRACE_ENTRIES
    assert rate >= PLAN_RATE_FLOOR, (
        f"planning only {rate:.0f} entries/s (floor {PLAN_RATE_FLOOR:.0f})")


def test_bench_auto_routing_throughput(benchmark):
    """Auto-routing gate: ``backend="auto"`` on wide batches must meet
    or beat the fixed ``functional`` baseline (the plan sends them to
    the bit-plane executor) while returning identical words."""
    auto = _requests("auto")
    fixed = _requests("functional")

    results = benchmark(_serve, auto)

    start = time.perf_counter()
    auto_results = _serve(auto)
    auto_s = time.perf_counter() - start

    start = time.perf_counter()
    fixed_results = _serve(fixed)
    fixed_s = time.perf_counter() - start

    speedup = fixed_s / auto_s if auto_s else float("inf")
    print()
    print(format_table(
        ["path", "wall", "req/s"],
        [["fixed functional", f"{fixed_s:.4f} s",
          f"{SERVE_REQUESTS / fixed_s:.0f}"],
         ["auto (bit-plane routed)", f"{auto_s:.4f} s",
          f"{SERVE_REQUESTS / auto_s:.0f}"],
         ["speedup", f"{speedup:.2f}x", "-"]],
        title=f"{SERVE_REQUESTS} adder requests x {SERVE_WORDS} words",
    ))

    for routed in results:
        assert routed.backend == "functional_bitplane"
    for routed, baseline in zip(auto_results, fixed_results):
        assert routed.backend == "functional_bitplane"
        assert baseline.backend == "functional"
        assert np.array_equal(routed.outputs["sum"], baseline.outputs["sum"])
    assert auto_s <= fixed_s, (
        f"auto routing slower than fixed backend: {auto_s:.4f}s vs "
        f"{fixed_s:.4f}s")
