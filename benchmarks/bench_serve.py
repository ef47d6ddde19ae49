"""Serving-layer benchmarks: dynamic batching vs sequential execution.

The ISSUE 5 acceptance gates, measured:

* 512 single-word kernel requests served through the batching server,
  which takes up to 64 queued requests per batch, must run at least
  **5x** faster than executing the same 512 requests as sequential
  ``run_kernel`` calls — with bit-identical outputs.  The batcher has
  no timer, so the burst coalesces because it queues behind busy
  workers; one batch must fill all 64 slots.
* an overload burst beyond ``queue_limit`` must reject with
  ``ServerOverloaded`` while every *accepted* request still completes
  correctly, and the server keeps serving afterwards.

ISSUE 6 adds the SLO gate: the p99 request wall latency under a
full-batch burst must stay inside a declared latency objective with
the error budget unburnt, measured from the per-request flight records.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.engine import resolve_kernel, run_kernel
from repro.errors import ServerOverloaded
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLO, SLOTracker
from repro.serve import ServeRequest
from repro.serve.server import KernelServer

REQUESTS = 512
BATCH_WINDOW = 64
WIDTH = 32


def _requests():
    rng = np.random.default_rng(7)
    mask = (1 << WIDTH) - 1
    a = rng.integers(0, mask + 1, size=REQUESTS, dtype=np.uint64)
    b = rng.integers(0, mask + 1, size=REQUESTS, dtype=np.uint64)
    return [
        ServeRequest(
            id=f"r{i}", kernel="adder", width=WIDTH,
            operands={"a": (int(a[i]),), "b": (int(b[i]),)},
        )
        for i in range(REQUESTS)
    ]


def _serve_batched(requests):
    async def scenario():
        async with KernelServer(
            max_batch_size=BATCH_WINDOW,
            queue_limit=REQUESTS,
            cache_capacity=0,  # measure execution, not cache hits
        ) as server:
            return await server.submit_many(requests)

    return asyncio.run(scenario())


def _serve_sequential(requests):
    kernel = resolve_kernel("adder", WIDTH)
    return [
        run_kernel(kernel, {k: list(v) for k, v in r.operands.items()})
        for r in requests
    ]


def test_bench_batched_throughput_vs_sequential(benchmark):
    requests = _requests()

    results = benchmark(_serve_batched, requests)

    start = time.perf_counter()
    batched = _serve_batched(requests)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    sequential = _serve_sequential(requests)
    sequential_s = time.perf_counter() - start

    speedup = sequential_s / batched_s if batched_s else float("inf")
    sizes = sorted({r.batch_requests for r in batched})
    print()
    print(format_table(
        ["path", "wall", "req/s"],
        [["sequential run_kernel", f"{sequential_s:.3f} s",
          f"{REQUESTS / sequential_s:.0f}"],
         ["batched serve", f"{batched_s:.4f} s",
          f"{REQUESTS / batched_s:.0f}"],
         ["speedup", f"{speedup:.1f}x", "-"]],
        title=f"{REQUESTS} adder requests, window {BATCH_WINDOW}",
    ))

    # Bit-identical outputs, request by request.
    for served, alone in zip(batched, sequential):
        assert served.outputs["sum"].tolist() == alone.word("sum").tolist()
    for served in results:
        assert served.batch_requests >= 1
    assert max(sizes) == BATCH_WINDOW, (
        f"batching never filled a {BATCH_WINDOW}-request window: {sizes}")
    assert speedup >= 5.0, (
        f"batched serving only {speedup:.1f}x faster than sequential")


def test_bench_overload_burst_rejects_cleanly(benchmark):
    """Backpressure gate: a burst twice the queue bound rejects the
    overflow with ServerOverloaded, completes every accepted request
    with the right answer, and leaves the server serviceable."""
    queue_limit = 64
    burst = [
        ServeRequest(id=f"b{i}", kernel="adder", width=WIDTH,
                     operands={"a": (i,), "b": (i,)})
        for i in range(2 * queue_limit)
    ]

    def scenario():
        async def run():
            async with KernelServer(
                max_batch_size=BATCH_WINDOW,
                queue_limit=queue_limit,
                cache_capacity=0,
            ) as server:
                outcomes = await server.submit_many(
                    burst, return_exceptions=True)
                followup = await server.submit(ServeRequest(
                    id="after", kernel="adder", width=WIDTH,
                    operands={"a": (21,), "b": (21,)}))
                return outcomes, followup

        return asyncio.run(run())

    outcomes, followup = benchmark(scenario)

    rejected = [o for o in outcomes if isinstance(o, ServerOverloaded)]
    served = [o for o in outcomes if not isinstance(o, BaseException)]
    unexpected = [o for o in outcomes
                  if isinstance(o, BaseException)
                  and not isinstance(o, ServerOverloaded)]
    print(f"\nburst {len(burst)}: {len(served)} served, "
          f"{len(rejected)} rejected, {len(unexpected)} crashed")

    assert not unexpected, f"burst produced non-overload failures: {unexpected[:3]}"
    assert rejected, "burst beyond queue_limit must trip ServerOverloaded"
    assert len(served) + len(rejected) == len(burst)
    for result in served:
        i = int(result.id[1:])
        assert result.outputs["sum"].tolist() == [2 * i], "accepted request lost/corrupted"
    assert followup.outputs["sum"].tolist() == [42], "server unusable after burst"


def test_bench_slo_p99_under_burst(benchmark):
    """SLO gate: serving the full 512-request burst must keep p99 wall
    latency (queue wait included, measured from flight records) inside
    the objective, with zero failed requests burning the error budget."""
    slo = SLO(name="serve-p99", latency_target_s=1.0,
              latency_objective=0.99, error_rate_objective=0.99)
    requests = _requests()

    def scenario():
        recorder = FlightRecorder(capacity=REQUESTS)

        async def run():
            async with KernelServer(
                max_batch_size=BATCH_WINDOW,
                queue_limit=REQUESTS,
                cache_capacity=0,
                flight=recorder,
            ) as server:
                return await server.submit_many(requests, return_exceptions=True)

        outcomes = asyncio.run(run())
        tracker = SLOTracker(slo)
        for record in recorder.last():
            tracker.record(record.wall_s,
                           ok=record.status in ("ok", "cached"))
        return outcomes, tracker

    outcomes, tracker = benchmark(scenario)

    report = tracker.report()
    print(f"\n{tracker.describe()}")
    assert tracker.total == REQUESTS, "a request left no flight record"
    assert not any(isinstance(o, BaseException) for o in outcomes)
    assert report["error_burn"] == 0.0
    assert report["latency_quantile_s"] < slo.latency_target_s
    assert tracker.met(), f"SLO blown: {report}"
