"""Request-scoped serve telemetry end to end (ISSUE 6 tentpole).

The acceptance criterion under test: every request — including the ones
that fail by deadline or rejection — leaves a retrievable flight record
with per-stage timings carrying its request id; trace identity survives
batching onto the worker pool into the engine spans; and the live
latency summary reports per-kernel quantiles.
"""

from __future__ import annotations

import asyncio
import io
import json
import time

import pytest

from repro.engine import resolve_kernel, run_kernel
from repro.errors import DeadlineExceeded, ServerOverloaded, TransientExecutorError
from repro.obs import get_registry, get_tracer
from repro.obs.flight import FlightRecorder
from repro.serve import ServeRequest, result_to_dict
from repro.serve.frontend import serve_jsonl
from repro.serve.server import KernelServer


def adder_request(request_id, a, b, **kwargs):
    return ServeRequest(
        id=request_id, kernel="adder", width=8,
        operands={"a": tuple(a), "b": tuple(b)}, **kwargs)


def run(coro):
    return asyncio.run(coro)


def all_spans(tracer):
    spans = []

    def visit(span):
        spans.append(span)
        for child in span.children:
            visit(child)

    for root in tracer.roots:
        visit(root)
    return spans


class TestFlightRecords:
    def test_ok_request_has_staged_timeline(self):
        recorder = FlightRecorder()

        async def scenario():
            async with KernelServer(flight=recorder) as server:
                return await server.submit(adder_request("r1", [1], [2]))

        result = run(scenario())
        (record,) = recorder.for_request("r1")
        assert record.status == "ok"
        assert record.kernel == "adder"
        assert set(record.stages) >= {"queue_wait", "execute", "split"}
        assert all(v >= 0 for v in record.stages.values())
        assert record.wall_s > 0
        assert record.batch_requests == 1
        assert len(record.trace_id) == 32
        assert result.trace_id == record.trace_id

    def test_caller_trace_id_is_honoured(self):
        recorder = FlightRecorder()

        async def scenario():
            async with KernelServer(flight=recorder) as server:
                return await server.submit(
                    adder_request("r1", [1], [2], trace_id="cafe" * 8))

        result = run(scenario())
        assert result.trace_id == "cafe" * 8
        assert recorder.for_request("r1")[0].trace_id == "cafe" * 8

    def test_deadline_exceeded_leaves_retrievable_record(self):
        """The acceptance criterion: a deadline-exceeded request has a
        flight record with per-stage timings carrying its request id."""
        recorder = FlightRecorder()

        def slow(request, operands, spec):
            time.sleep(0.15)
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(max_batch_size=1,
                                    run_batch=slow,
                                    flight=recorder) as server:
                blocker = asyncio.ensure_future(
                    server.submit(adder_request("slow", [1], [2])))
                await asyncio.sleep(0.02)
                with pytest.raises(DeadlineExceeded):
                    await server.submit(
                        ServeRequest(id="late", kernel="adder", width=16,
                                     operands={"a": (3,), "b": (4,)},
                                     deadline_s=0.03))
                await blocker

        run(scenario())
        (late,) = recorder.for_request("late")
        assert late.status == "deadline"
        assert "deadline" in late.error
        assert "queue_wait" in late.stages  # it was dequeued before expiring
        assert late.wall_s >= 0.03

    def test_overload_rejection_is_recorded(self):
        recorder = FlightRecorder()

        async def scenario():
            # Submissions enqueue synchronously before the batcher task
            # gets scheduled, so a burst larger than queue_limit
            # deterministically trips the backpressure bound.
            async with KernelServer(queue_limit=4, flight=recorder) as server:
                return await server.submit_many(
                    [adder_request(f"r{i}", [i], [i]) for i in range(10)],
                    return_exceptions=True,
                )

        outcomes = run(scenario())
        rejections = [r for r in outcomes if isinstance(r, ServerOverloaded)]
        assert rejections
        rejected = recorder.with_status("rejected")
        assert len(rejected) == len(rejections)
        assert all(r.error == "queue full" for r in rejected)
        # Accepted and rejected flights together cover the whole burst.
        assert len(recorder) == 10

    def test_cache_hit_recorded_with_flag(self):
        recorder = FlightRecorder()

        async def scenario():
            async with KernelServer(flight=recorder) as server:
                await server.submit(adder_request("first", [1], [2]))
                return await server.submit(adder_request("again", [1], [2]))

        result = run(scenario())
        assert result.cached
        (record,) = recorder.for_request("again")
        assert record.status == "cached" and record.cache_hit

    def test_retries_counted_in_record(self):
        recorder = FlightRecorder()
        attempts = []

        def flaky(request, operands, spec):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientExecutorError("blip")
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(retries=2, backoff_s=0.001,
                                    run_batch=flaky, flight=recorder) as server:
                await server.submit(adder_request("r", [4], [5]))

        run(scenario())
        assert recorder.for_request("r")[0].retries == 2

    def test_executor_error_recorded(self):
        recorder = FlightRecorder()

        def broken(request, operands, spec):
            raise ValueError("wired wrong")

        async def scenario():
            async with KernelServer(run_batch=broken,
                                    flight=recorder) as server:
                await server.submit(adder_request("r", [1], [2]))

        with pytest.raises(ValueError):
            run(scenario())
        (record,) = recorder.for_request("r")
        assert record.status == "error"
        assert "wired wrong" in record.error

    def test_telemetry_off_records_nothing(self):
        recorder = FlightRecorder()

        async def scenario():
            async with KernelServer(telemetry=False,
                                    flight=recorder) as server:
                return await server.submit(adder_request("r", [1], [2]))

        result = run(scenario())
        assert result.outputs["sum"].tolist() == [3]
        assert len(recorder) == 0
        assert result.trace_id == ""


class TestTracePropagation:
    def test_batch_span_links_every_member_request_id(self):
        tracer = get_tracer()
        tracer.enable()
        try:
            async def scenario():
                async with KernelServer(flight=FlightRecorder()) as server:
                    await server.submit_many([
                        adder_request(f"r{i}", [i], [i]) for i in range(4)
                    ])

            run(scenario())
            serve_spans = [s for s in all_spans(tracer)
                           if s.name.startswith("serve/")]
            linked = serve_spans[-1].attrs["request_ids"]
            assert sorted(linked) == ["r0", "r1", "r2", "r3"]
            assert len(serve_spans[-1].attrs["trace_id"]) == 32
        finally:
            tracer.disable()

    def test_engine_span_carries_request_identity_across_pool(self):
        """contextvars must survive run_in_executor into run_kernel."""
        tracer = get_tracer()
        tracer.enable()
        try:
            async def scenario():
                async with KernelServer(flight=FlightRecorder()) as server:
                    return await server.submit(adder_request("rid7", [1], [2]))

            result = run(scenario())
            engine_spans = [s for s in all_spans(tracer)
                            if s.name.startswith("engine/")]
            assert engine_spans, "no engine span captured"
            attrs = engine_spans[-1].attrs
            assert attrs["request_id"] == "rid7"
            assert attrs["trace_id"] == result.trace_id
        finally:
            tracer.disable()


class TestLatencyMetrics:
    def test_live_quantiles_per_kernel(self):
        async def scenario():
            async with KernelServer(flight=FlightRecorder()) as server:
                for i in range(8):
                    await server.submit(adder_request(f"q{i}", [i], [1]))

        run(scenario())
        summary = get_registry().get("serve_request_latency_seconds")
        child = summary.labels(kernel="adder")
        assert child.count >= 8
        quantiles = child.quantiles()
        assert quantiles[0.5] is not None and quantiles[0.99] is not None
        assert quantiles[0.5] > 0
        wall = get_registry().get("serve_request_wall_seconds")
        assert wall.labels(kernel="adder").count >= 8
        # µs-scale buckets, not the simulated-unit defaults
        assert wall.buckets[0] == pytest.approx(1e-6)


class TestWireFormat:
    def test_trace_id_round_trips_through_jsonl(self):
        requests = "\n".join([
            json.dumps({"id": "a", "op": "kernel", "kernel": "adder",
                        "width": 8, "operands": {"a": [1], "b": [2]},
                        "trace_id": "beef" * 8}),
        ]) + "\n"
        out = io.StringIO()
        stats = serve_jsonl(io.StringIO(requests), out)
        assert stats.counts == {"ok": 1}
        record = json.loads(out.getvalue())
        assert record["trace_id"] == "beef" * 8

    def test_result_to_dict_includes_trace_id(self):
        async def scenario():
            async with KernelServer(flight=FlightRecorder()) as server:
                return await server.submit(adder_request("r", [1], [2]))

        result = run(scenario())
        assert result_to_dict(result)["trace_id"] == result.trace_id

    def test_unknown_fields_still_rejected(self):
        from repro.errors import ServeError
        from repro.serve import request_from_dict

        with pytest.raises(ServeError):
            request_from_dict({"id": "x", "op": "evaluate", "nope": 1})


class TestStats:
    def test_stats_shape(self):
        async def scenario():
            async with KernelServer(flight=FlightRecorder()) as server:
                await server.submit(adder_request("r", [1], [2]))
                return server.stats()

        stats = run(scenario())
        assert stats["workers"] == 1
        assert stats["telemetry"] is True
        assert stats["cache_entries"] == 1
        assert stats["queue_depth"] == 0
