"""The async batched serving layer (ISSUE 5 tentpole).

Covers the serving contract end to end: request/digest semantics,
dynamic batching with coalescing, the digest result cache, and the four
edge cases the issue calls out — deadline expiry mid-batch, queue-full
rejection that loses no accepted work, retry exhaustion surfacing the
*original* executor error, and drain with requests still in flight.
The hypothesis property at the end is the acceptance criterion: a
batched run is bit-identical to serving each request alone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import logging
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import resolve_kernel, run_kernel
from repro.errors import (
    DeadlineExceeded,
    EngineError,
    ServeError,
    ServerOverloaded,
    TransientExecutorError,
)
from repro.serve import (
    ServeRequest,
    make_request,
    request_from_dict,
    result_to_dict,
)
from repro.serve.frontend import serve_jsonl
from repro.serve.server import KernelServer
from repro.spec import TABLE1


def output_lists(result):
    """A result's outputs as plain lists, for equality checks."""
    return {group: array.tolist() for group, array in result.outputs.items()}


def adder_request(request_id, a, b, *, width=8, **kwargs):
    return ServeRequest(
        id=request_id,
        kernel="adder",
        width=width,
        operands={"a": tuple(a), "b": tuple(b)},
        **kwargs,
    )


def run(coro):
    return asyncio.run(coro)


class TestRequestProtocol:
    def test_digest_ignores_id_and_deadline(self):
        base = adder_request("x", [1], [2])
        twin = adder_request("y", [1], [2], deadline_s=5.0)
        assert base.digest == twin.digest

    def test_digest_covers_semantic_fields(self):
        base = adder_request("x", [1], [2])
        assert base.digest != adder_request("x", [1], [3]).digest
        assert base.digest != adder_request("x", [1], [2], width=16).digest
        assert (base.digest !=
                adder_request("x", [1], [2],
                              overrides={"memristor.write_energy": 2e-15}).digest)

    def test_batch_key_groups_compatible_requests(self):
        key = adder_request("x", [1], [2]).batch_key("spec")
        assert adder_request("y", [7, 8], [9, 10]).batch_key("spec") == key
        assert adder_request("y", [1], [2], width=16).batch_key("spec") != key
        assert adder_request("y", [1], [2]).batch_key("other") != key

    def test_validation_rejects_bad_requests(self):
        with pytest.raises(ServeError):
            ServeRequest(id="x", kind="nope")
        with pytest.raises(ServeError):
            ServeRequest(id="x", kernel="adder")  # functional, no operands
        with pytest.raises(ServeError):
            adder_request("x", [1], [2], deadline_s=0.0)
        with pytest.raises(ServeError):
            adder_request("x", [1], [2], backend="quantum")

    def test_request_from_dict_round_trip(self):
        request = request_from_dict({
            "id": "r1", "op": "kernel", "kernel": "adder", "width": 8,
            "operands": {"a": [1, 2], "b": [3, 4]},
        })
        assert request.operands == {"a": (1, 2), "b": (3, 4)}
        with pytest.raises(ServeError):
            request_from_dict({"id": "r1", "bogus": 1})
        with pytest.raises(ServeError):
            request_from_dict({"id": "r1", "operands": {"a": "12"}})

    def test_result_to_dict_shape(self):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit(adder_request("r", [1], [2]))

        payload = result_to_dict(run(scenario()))
        assert payload["status"] == "ok"
        assert payload["id"] == "r"
        assert payload["outputs"]["sum"] == [3]
        json.dumps(payload)  # wire format must be JSON-serialisable


#: Ways a caller may hand over one operand's words.
OPERAND_FORMS = ("tuple", "list", "numpy-scalars", "int64-array",
                 "uint64-array", "narrowest-array", "make_request")


def operand_form(values, form):
    values = list(values)
    if form == "tuple":
        return tuple(values)
    if form == "numpy-scalars":
        return [np.uint64(v) if v >> 63 else np.int64(v) for v in values]
    if form == "int64-array" and max(values, default=0) >> 63 == 0:
        return np.array(values, dtype=np.int64)
    if form in ("int64-array", "uint64-array"):
        return np.array(values, dtype=np.uint64)
    if form == "narrowest-array":
        return np.array(
            values, dtype=np.min_scalar_type(max(values, default=0)))
    return values


def payload_request(payload, forms, *, backend="functional"):
    """One adder request for ``(width, {name: words})`` with each
    operand in the matching form of *forms*."""
    width, operands = payload
    if forms[0] == "make_request":
        return make_request(kernel="adder", width=width, operands=operands,
                            backend=backend)
    return ServeRequest(
        id="p", kernel="adder", width=width, backend=backend,
        operands={name: operand_form(words, form) for (name, words), form
                  in zip(sorted(operands.items()), forms)})


#: Small value pools, so equal payloads come up often.
PAYLOADS = st.tuples(
    st.sampled_from([8, 16]),
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.sampled_from([0, 1, 2, 2**40, 2**63, 2**64 - 1]),
                 max_size=3),
        min_size=1, max_size=2),
)
FORMS = st.lists(st.sampled_from(OPERAND_FORMS), min_size=2, max_size=2)
OUT_OF_RANGE = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestDigestProperties:
    """Equal digests exactly when the canonical payloads are equal —
    the result-cache contract — whatever form the operands take."""

    @settings(max_examples=150, deadline=None)
    @given(first=PAYLOADS, data=st.data(), forms=FORMS, other_forms=FORMS)
    def test_equal_digests_iff_equal_payloads(self, first, data, forms,
                                               other_forms):
        second = data.draw(st.one_of(st.just(first), PAYLOADS))
        same = (first[0] == second[0] and
                {k: tuple(v) for k, v in first[1].items()}
                == {k: tuple(v) for k, v in second[1].items()})
        one = payload_request(first, forms)
        two = payload_request(second, other_forms)
        assert (one.digest == two.digest) == same

    def test_operand_boundaries_are_framed(self):
        split_after_two = ServeRequest(
            id="x", kernel="adder", width=8,
            operands={"a": (1, 2), "b": (3,)})
        split_after_one = ServeRequest(
            id="x", kernel="adder", width=8,
            operands={"a": (1,), "b": (2, 3)})
        assert split_after_two.digest != split_after_one.digest

    @settings(max_examples=150, deadline=None)
    @given(payload=PAYLOADS, bad=OUT_OF_RANGE, form=st.sampled_from(
        ["tuple", "list"]), at=st.integers(0, 3))
    def test_out_of_range_values_digest_apart(self, payload, bad, form, at):
        width, operands = payload
        name = sorted(operands)[0]
        words = list(operands[name])
        at = min(at, len(words))
        stray = ServeRequest(
            id="x", kernel="adder", width=width,
            operands={**operands, name: operand_form(
                words[:at] + [bad] + words[at:], form)})
        assert len(stray.digest) == 64
        # The same stray payload in another container digests alike.
        twin = ServeRequest(
            id="y", kernel="adder", width=width,
            operands={**operands, name: tuple(words[:at] + [bad] + words[at:])})
        assert twin.digest == stray.digest
        # No in-range stand-in for the stray value shares its digest.
        for stand_in in {0, int(bad) % 2**64}:
            in_range = payload_request(
                (width, {**operands, name: words[:at] + [stand_in]
                         + words[at:]}), ["list"] * len(operands))
            assert in_range.digest != stray.digest

    def test_replace_gets_a_fresh_digest(self):
        request = adder_request("x", [1, 2], [3, 4])
        assert request.digest is request.digest  # memoised
        routed = dataclasses.replace(request, backend="electrical")
        assert routed.digest != request.digest
        assert routed.digest == adder_request(
            "y", [1, 2], [3, 4], backend="electrical").digest
        assert dataclasses.replace(request, operands={
            "a": (1, 2), "b": (3, 5)}).digest == adder_request(
                "z", [1, 2], [3, 5]).digest

    def test_operand_arrays_are_read_only_and_operands_stay_tuples(self):
        request = make_request(kernel="adder", width=8,
                               operands={"a": np.array([1, 2]), "b": [3, 4]})
        assert request.operands == {"a": (1, 2), "b": (3, 4)}
        assert all(type(w) is int for w in request.operands["a"])
        words = request.operand_array("a")
        assert words.dtype == np.uint64 and not words.flags.writeable
        assert request.operand_array("a") is words


class TestMalformedRequestsFailAlone:
    """A malformed request is refused on its own, before it is queued:
    it names its own word index, and the valid requests of the same
    batch still coalesce and succeed."""

    @staticmethod
    def serve_between_neighbours(bad):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit_many([
                    adder_request("ok1", [1, 2, 3], [10, 20, 30]),
                    bad,
                    adder_request("ok2", [7], [8]),
                ], return_exceptions=True)

        first, error, second = run(scenario())
        assert first.outputs["sum"].tolist() == [11, 22, 33]
        assert second.outputs["sum"].tolist() == [15]
        assert first.batch_requests == second.batch_requests == 2
        return error

    @pytest.mark.parametrize("bad, message", [
        (adder_request("bad", [1, 2], [3]),
         "operand 'b' has 1 words, expected 2"),
        (adder_request("bad", [5, 300], [1, 2]),
         "operand 'a' word 1 = 300 does not fit in 8 bits"),
        (adder_request("bad", [4, -1], [1, 2]),
         "operand 'a' word 1 is negative (-1)"),
        (adder_request("bad", [4, 2**64], [1, 2]),
         f"operand 'a' word 1 = {2**64} does not fit in 64 bits"),
        (adder_request("bad", [4, 2.5], [1, 2]),
         "operand 'a' word 1 is float (2.5)"),
    ], ids=["lengths", "too-wide", "negative", "huge", "non-integer"])
    def test_bad_word_batch_fails_alone(self, bad, message):
        error = self.serve_between_neighbours(bad)
        assert isinstance(error, EngineError)
        assert message in str(error)

    def test_bad_bit_signal_fails_alone(self):
        def comparator(request_id, a0):
            return ServeRequest(id=request_id, kernel="comparator", width=2,
                                operands={"a0": (a0,), "a1": (0,), "b": (1,)})

        async def scenario():
            async with KernelServer() as server:
                return await server.submit_many(
                    [comparator("ok", 1), comparator("bad", 2)],
                    return_exceptions=True)

        good, error = run(scenario())
        assert good.outputs["match"].tolist() == [1]
        assert isinstance(error, EngineError)
        assert "operand 'a0' word 0 = 2 is not a bit (0/1)" in str(error)


class TestBatchingAndCache:
    def test_compatible_requests_coalesce_into_one_batch(self):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit_many([
                    adder_request(f"r{i}", [i], [10 + i]) for i in range(6)
                ])

        results = run(scenario())
        assert [r.outputs["sum"].tolist() for r in results] == [
            [10 + 2 * i] for i in range(6)]
        # All six rode one coalesced engine execution.
        assert {r.batch_requests for r in results} == {6}
        assert {r.batch_words for r in results} == {6}

    def test_incompatible_requests_split_groups(self):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit_many([
                    adder_request("a", [1], [2], width=8),
                    adder_request("b", [3], [4], width=16),
                ])

        by_id = {r.id: r for r in run(scenario())}
        assert by_id["a"].batch_requests == 1
        assert by_id["b"].batch_requests == 1
        assert by_id["a"].outputs["sum"].tolist() == [3]
        assert by_id["b"].outputs["sum"].tolist() == [7]

    def test_repeat_submission_hits_result_cache(self):
        async def scenario():
            async with KernelServer() as server:
                first = await server.submit(adder_request("one", [5], [6]))
                second = await server.submit(adder_request("two", [5], [6]))
                return first, second

        first, second = run(scenario())
        assert not first.cached
        assert second.cached
        assert second.id == "two"
        assert output_lists(second) == output_lists(first)

    def test_cache_capacity_evicts_lru(self):
        async def scenario():
            async with KernelServer(cache_capacity=1) as server:
                await server.submit(adder_request("a", [1], [1]))
                await server.submit(adder_request("b", [2], [2]))  # evicts a
                return await server.submit(adder_request("a2", [1], [1]))

        assert not run(scenario()).cached

    def test_result_cache_keyed_on_backend_and_spec(self):
        """Identical operands under two backends and two active specs
        must occupy four distinct cache entries (regression: the cache
        was keyed on the request digest alone, so a server whose active
        spec changed kept returning results priced under the old spec).
        """
        hot = TABLE1.derive(
            {"memristor.write_energy": 2 * TABLE1.memristor.write_energy})

        async def scenario():
            async with KernelServer() as server:
                functional = await server.submit(
                    adder_request("f", [3], [4], backend="functional"))
                analytical = await server.submit(
                    adder_request("a", [3], [4], backend="analytical"))
                entries_two_backends = server.stats()["cache_entries"]
                server.spec = hot  # re-point the active spec
                rehot = await server.submit(
                    adder_request("f2", [3], [4], backend="functional"))
                entries_after_respec = server.stats()["cache_entries"]
                return (functional, analytical, rehot,
                        entries_two_backends, entries_after_respec)

        functional, analytical, rehot, two_backends, after_respec = run(
            scenario())
        assert two_backends == 2  # backend is part of the cache key
        assert after_respec == 3  # new spec -> new entry, no stale hit
        assert not rehot.cached
        assert rehot.spec_digest != functional.spec_digest
        assert rehot.energy > functional.energy
        assert analytical.backend == "analytical"

    def test_per_request_overrides_derive_spec(self):
        async def scenario():
            async with KernelServer() as server:
                base = await server.submit(adder_request("b", [1], [2]))
                hot = await server.submit(adder_request(
                    "h", [1], [2],
                    overrides={"memristor.write_energy": 2 * TABLE1.memristor.write_energy}))
                return base, hot

        base, hot = run(scenario())
        assert output_lists(base) == output_lists(hot)
        assert base.spec_digest != hot.spec_digest
        assert hot.energy > base.energy

    def test_evaluate_requests_return_table2_metrics(self):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit(ServeRequest(id="e", kind="evaluate"))

        result = run(scenario())
        assert result.kind == "evaluate"
        assert result.metrics["dna.improvement.energy_delay"] == pytest.approx(
            2880876.557, rel=1e-6)
        assert "math.cim.computing_efficiency" in result.metrics


class TestWorkConservingBatching:
    """The batcher waits for the executor, never for a timer: requests
    coalesce because they queued behind a running execution, and a
    request that finds the executor idle runs at once."""

    def test_requests_queued_behind_a_busy_worker_coalesce(self):
        started, release = threading.Event(), threading.Event()
        calls = []

        def gated(request, operands, spec):
            calls.append(len(operands["a"]))
            if len(calls) == 1:
                started.set()
                release.wait(timeout=10)
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        n = 5

        async def scenario():
            async with KernelServer(run_batch=gated,
                                    cache_capacity=0) as server:
                hold = asyncio.ensure_future(
                    server.submit(adder_request("hold", [0], [0])))
                await asyncio.to_thread(started.wait, 10)
                waiting = []
                for i in range(n):
                    waiting.append(asyncio.ensure_future(
                        server.submit(adder_request(f"r{i}", [i], [i]))))
                    # One at a time, spaced wider than any batching
                    # window: only the busy worker can make them meet.
                    await asyncio.sleep(0.005)
                release.set()
                return await hold, await asyncio.gather(*waiting)

        hold, results = run(scenario())
        assert hold.batch_requests == 1
        assert [r.batch_requests for r in results] == [n] * n
        assert [r.outputs["sum"].tolist() for r in results] == [
            [2 * i] for i in range(n)]
        assert calls == [1, n]

    def test_lone_request_on_an_idle_server_arms_no_timer(self):
        timers = []

        async def scenario():
            loop = asyncio.get_running_loop()
            async with KernelServer() as server:
                call_at = loop.call_at

                def spy(when, callback, *args, **kwargs):
                    timers.append(callback)
                    return call_at(when, callback, *args, **kwargs)

                loop.call_at = spy  # call_later and wait_for arm through it
                try:
                    return await server.submit(adder_request("solo", [1], [2]))
                finally:
                    del loop.call_at

        result = run(scenario())
        assert result.outputs["sum"].tolist() == [3]
        assert result.batch_requests == 1
        assert timers == []


class TestOneExecutionAtATime:
    """Each server runs one engine execution at a time, whatever
    ``workers`` says, and holds the slot only while an execution runs."""

    def test_two_callers_never_overlap_executions(self):
        lock = threading.Lock()
        running, overlaps, calls = [0], [0], []

        def counting(request, operands, spec):
            with lock:
                running[0] += 1
                overlaps[0] = max(overlaps[0], running[0])
                calls.append(request.width)
            time.sleep(0.005)  # wide enough for a second pool thread
            with lock:
                running[0] -= 1
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def caller(server, width, rounds):
            # Distinct widths never share a batch key, so two callers'
            # requests stay separate groups that could run side by side.
            return [await server.submit(adder_request(
                f"w{width}-{i}", [i], [i], width=width))
                for i in range(rounds)]

        async def scenario():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                server = KernelServer(workers=2, run_batch=counting,
                                      cache_capacity=0)
            async with server:
                return await asyncio.gather(caller(server, 8, 12),
                                            caller(server, 16, 12))

        narrow, wide = run(scenario())
        assert [r.outputs["sum"].tolist() for r in narrow + wide] == [
            [2 * i] for i in range(12)] * 2
        assert sorted(set(calls)) == [8, 16]
        assert overlaps[0] == 1

    def test_backoff_releases_the_slot(self):
        order = []
        failed_once = threading.Event()

        def flaky_narrow(request, operands, spec):
            if request.width == 8 and not failed_once.is_set():
                failed_once.set()
                order.append("narrow failed")
                raise TransientExecutorError("injected")
            order.append(f"width {request.width}")
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(run_batch=flaky_narrow, retries=1,
                                    backoff_s=0.5) as server:
                # Submitted in one loop turn, so one batch holds both
                # groups; the narrow one runs first and fails.
                narrow = asyncio.ensure_future(server.submit(
                    adder_request("narrow", [1], [2])))
                wide = asyncio.ensure_future(server.submit(
                    adder_request("wide", [3], [4], width=16)))
                wide_result = await wide
                narrow_pending = not narrow.done()
                return await narrow, wide_result, narrow_pending

        narrow, wide, narrow_pending = run(scenario())
        assert order == ["narrow failed", "width 16", "width 8"]
        assert narrow_pending, "the wide group waited out the backoff"
        assert narrow.outputs["sum"].tolist() == [3]
        assert wide.outputs["sum"].tolist() == [7]


class TestQueueFullRejection:
    def test_overload_burst_rejects_without_losing_accepted_work(self):
        async def scenario():
            # Submissions enqueue synchronously before the batcher task
            # gets scheduled, so a burst larger than queue_limit
            # deterministically trips the backpressure bound.
            async with KernelServer(queue_limit=4) as server:
                return await server.submit_many(
                    [adder_request(f"r{i}", [i], [i]) for i in range(10)],
                    return_exceptions=True,
                )

        outcomes = run(scenario())
        rejected = [r for r in outcomes if isinstance(r, ServerOverloaded)]
        served = [r for r in outcomes if not isinstance(r, BaseException)]
        assert rejected, "burst beyond queue_limit must trip ServerOverloaded"
        assert len(served) + len(rejected) == 10
        # Every *accepted* request completed with the right answer.
        for result in served:
            i = int(result.id[1:])
            assert result.outputs["sum"].tolist() == [2 * i]

    def test_queue_limit_validation(self):
        with pytest.raises(ServeError):
            KernelServer(queue_limit=0)
        with pytest.raises(ServeError):
            KernelServer(max_batch_size=0)
        with pytest.raises(ServeError):
            KernelServer(retries=-1)


class TestDeadlines:
    def test_deadline_expiry_mid_batch(self):
        """A request whose deadline lapses while a slow batch holds the
        only worker fails with DeadlineExceeded; the slow batch and the
        server survive."""

        def slow_run_batch(request, operands, spec):
            time.sleep(0.15)
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(
                max_batch_size=1, run_batch=slow_run_batch,
            ) as server:
                slow = asyncio.ensure_future(
                    server.submit(adder_request("slow", [1], [2])))
                await asyncio.sleep(0.02)  # let the slow batch occupy the pool
                with pytest.raises(DeadlineExceeded):
                    await server.submit(
                        adder_request("late", [3], [4], width=16,
                                      deadline_s=0.03))
                return await slow

        result = run(scenario())
        assert result.outputs["sum"].tolist() == [3]

    def test_answer_landing_with_the_deadline_counts_once(self):
        """Regression: when the batch's answer and the deadline timer
        land in the same loop turn, the submitter must see the answer
        that was counted and recorded, not a second, deadline status."""
        from repro.obs.flight import FlightRecorder
        from repro.obs.registry import get_registry

        entered, go, returned = (threading.Event(), threading.Event(),
                                 threading.Event())

        def gated(request, operands, spec):
            entered.set()
            go.wait(timeout=10)
            try:
                return run_kernel(
                    resolve_kernel(request.kernel, request.width),
                    operands or {}, spec=spec)
            finally:
                returned.set()

        family = get_registry().get("serve_requests_total")
        counters = {s: family.labels(status=s) for s in ("ok", "deadline")}
        before = {s: c.value for s, c in counters.items()}
        recorder = FlightRecorder(capacity=8)
        deadline_s = 0.2

        async def scenario():
            async with KernelServer(run_batch=gated,
                                    flight=recorder) as server:
                start = time.monotonic()
                task = asyncio.ensure_future(server.submit(adder_request(
                    "edge", [1], [2], deadline_s=deadline_s)))
                await asyncio.to_thread(entered.wait, 10)
                go.set()
                # Block the loop until the worker has answered and the
                # deadline has passed, so both land in one loop turn.
                returned.wait(timeout=10)
                time.sleep(max(0.0, start + deadline_s + 0.05
                               - time.monotonic()))
                return await asyncio.gather(task, return_exceptions=True)

        (outcome,) = run(scenario())
        (record,) = recorder.for_request("edge")
        delta = {s: c.value - before[s] for s, c in counters.items()}
        assert sum(delta.values()) == 1, delta
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, DeadlineExceeded)
            assert record.status == "deadline" and delta["deadline"] == 1
        else:
            assert outcome.outputs["sum"].tolist() == [3]
            assert record.status == "ok" and delta["ok"] == 1

    def test_generous_deadline_still_succeeds(self):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit(
                    adder_request("ok", [2], [3], deadline_s=30.0))

        assert run(scenario()).outputs["sum"].tolist() == [5]


class TestRetries:
    def test_transient_failures_retry_then_succeed(self):
        attempts = []

        def flaky(request, operands, spec):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientExecutorError(f"blip {len(attempts)}")
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(
                retries=2, backoff_s=0.001, run_batch=flaky,
            ) as server:
                return await server.submit(adder_request("r", [4], [5]))

        assert run(scenario()).outputs["sum"].tolist() == [9]
        assert len(attempts) == 3

    def test_retry_exhaustion_surfaces_original_error(self):
        attempts = []

        def always_failing(request, operands, spec):
            attempts.append(1)
            raise TransientExecutorError(f"attempt-{len(attempts)}")

        async def scenario():
            async with KernelServer(
                retries=2, backoff_s=0.001,
                run_batch=always_failing,
            ) as server:
                await server.submit(adder_request("r", [1], [2]))

        with pytest.raises(TransientExecutorError) as excinfo:
            run(scenario())
        assert len(attempts) == 3  # initial try + 2 retries
        assert str(excinfo.value) == "attempt-1"  # the original, not the last

    def test_non_transient_errors_do_not_retry(self):
        attempts = []

        def broken(request, operands, spec):
            attempts.append(1)
            raise ValueError("not transient")

        async def scenario():
            async with KernelServer(
                retries=5, run_batch=broken,
            ) as server:
                await server.submit(adder_request("r", [1], [2]))

        with pytest.raises(ValueError):
            run(scenario())
        assert len(attempts) == 1


class TestDrain:
    def test_drain_finishes_inflight_work(self):
        def slow_run_batch(request, operands, spec):
            time.sleep(0.05)
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            server = KernelServer(run_batch=slow_run_batch)
            tasks = [
                asyncio.ensure_future(
                    server.submit(adder_request(f"r{i}", [i], [i])))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await server.drain()
            results = await asyncio.gather(*tasks)
            return server, results

        server, results = run(scenario())
        assert [r.outputs["sum"].tolist() for r in results] == [
            [0], [2], [4], [6]]

        async def after_close():
            await server.submit(adder_request("late", [1], [1]))

        with pytest.raises(ServeError):
            run(after_close())

    def test_context_manager_drains_on_exit(self):
        async def scenario():
            async with KernelServer() as server:
                result = await server.submit(adder_request("r", [1], [2]))
            assert server._closed
            return result

        assert run(scenario()).outputs["sum"].tolist() == [3]


class TestJsonlFrontend:
    def test_jsonl_round_trip_with_errors(self):
        lines = [
            {"id": "a", "kernel": "adder", "width": 8,
             "operands": {"a": [1, 2], "b": [3, 4]}},
            {"id": "bad", "op": "nope"},
            "not json at all",
            {"id": "c", "kernel": "word-compare", "width": 8,
             "operands": {"a": [2], "b": [2]}},
        ]
        text = "\n".join(
            line if isinstance(line, str) else json.dumps(line)
            for line in lines) + "\n"
        out = io.StringIO()
        stats = serve_jsonl(io.StringIO(text), out)
        records = {r.get("id"): r
                   for r in map(json.loads, out.getvalue().splitlines())}
        assert stats.total == 4
        assert stats.counts["ok"] == 2
        assert stats.counts["error"] == 2
        assert records["a"]["outputs"]["sum"] == [4, 6]
        assert records["c"]["outputs"]["match"] == [1]
        assert records["bad"]["status"] == "error"

    def test_every_line_gets_exactly_one_record(self):
        """Lines that fail with a non-serve exception (a list width, a
        null params) still get their error record, between good lines,
        and the loop returns its stats at EOF."""
        good = {"kernel": "adder", "width": 8,
                "operands": {"a": [1], "b": [2]}}
        lines = [dict(good, id="first"),
                 dict(good, id="wide", width=[8]),
                 dict(good, id="null", params=None),
                 dict(good, id="last", operands={"a": [3], "b": [4]})]
        out = io.StringIO()
        stats = serve_jsonl(
            io.StringIO("".join(json.dumps(line) + "\n" for line in lines)),
            out)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert sorted(r["id"] for r in records) == [
            "first", "last", "null", "wide"]
        by_id = {r["id"]: r for r in records}
        assert by_id["first"]["outputs"]["sum"] == [3]
        assert by_id["last"]["outputs"]["sum"] == [7]
        assert by_id["wide"]["status"] == by_id["null"]["status"] == "error"
        assert "params" in by_id["null"]["error"]
        assert stats.counts == {"ok": 2, "error": 2}

    def test_malformed_numbers_are_refused_by_name(self, caplog):
        """A width or deadline that is not a number is a ServeError
        naming the field: one error record each, nothing logged as an
        unexpected failure."""
        good = {"kernel": "adder", "width": 8,
                "operands": {"a": [1], "b": [2]}}
        lines = [dict(good, id="list", width=[8]),
                 dict(good, id="text", width="x"),
                 dict(good, id="soon", deadline_s="soon"),
                 dict(good, id="ok")]
        caplog.set_level(logging.ERROR, logger="repro.serve.frontend")
        out = io.StringIO()
        stats = serve_jsonl(
            io.StringIO("".join(json.dumps(line) + "\n" for line in lines)),
            out)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {r["id"]: r for r in records}
        assert len(records) == len(by_id) == 4
        assert by_id["ok"]["outputs"]["sum"] == [3]
        for rid, field_name in (("list", "width"), ("text", "width"),
                                ("soon", "deadline_s")):
            assert by_id[rid]["status"] == "error"
            assert by_id[rid]["error"].startswith(field_name), by_id[rid]
        assert stats.counts == {"ok": 1, "error": 3}
        assert not [r for r in caplog.records
                    if "unexpectedly" in r.getMessage()]

    def test_unencodable_result_becomes_an_error_record(self):
        class Unencodable(KernelServer):
            async def submit(self, request):
                result = await super().submit(request)
                if request.id == "odd":
                    return dataclasses.replace(result,
                                               metrics={"x": object()})
                return result

        text = "".join(json.dumps(
            {"id": rid, "kernel": "adder", "width": 8,
             "operands": {"a": [1], "b": [2]}}) + "\n"
            for rid in ("even", "odd"))
        out = io.StringIO()
        stats = serve_jsonl(io.StringIO(text), out, server=Unencodable())
        records = {r["id"]: r
                   for r in map(json.loads, out.getvalue().splitlines())}
        assert records["even"]["status"] == "ok"
        assert records["odd"]["status"] == "error"
        assert "JSON serializable" in records["odd"]["error"]
        assert stats.counts == {"ok": 1, "error": 1}

    def test_metrics_port_serves_while_pumping(self, caplog):
        """The exporter, imported only for ``metrics_port=``, answers
        scrapes while the loop pumps requests."""
        from repro.obs.httpexport import fetch_json

        caplog.set_level(logging.INFO, logger="repro.serve.frontend")
        health = {}

        class Input:
            lines = [json.dumps({"id": "a", "kernel": "adder", "width": 8,
                                 "operands": {"a": [1], "b": [2]}}) + "\n"]

            def readline(self):
                if self.lines:
                    return self.lines.pop()
                (url,) = [record.args[0] for record in caplog.records
                          if record.msg.startswith("metrics endpoint")]
                health.update(fetch_json(url + "/healthz"))
                return ""

        out = io.StringIO()
        stats = serve_jsonl(Input(), out, metrics_port=0)
        assert stats.counts["ok"] == 1
        assert json.loads(out.getvalue())["outputs"]["sum"] == [3]
        assert health["status"] == "ok"

    def test_server_and_options_are_exclusive(self):
        with pytest.raises(ServeError):
            serve_jsonl(io.StringIO(""), io.StringIO(),
                        server=KernelServer(), queue_limit=1)


class TestAutoRouting:
    def test_auto_small_batch_routes_functional(self):
        from repro.obs.registry import get_registry

        counter = get_registry().get(
            "serve_autoroute_total").labels(backend="functional")
        before = counter.value

        async def scenario():
            async with KernelServer() as server:
                return await server.submit(
                    adder_request("r", [1, 2], [3, 4], backend="auto"))

        result = run(scenario())
        assert result.backend == "functional"
        assert result.outputs["sum"].tolist() == [4, 6]
        assert counter.value == before + 1

    def test_auto_large_batch_routes_bitplane(self):
        async def scenario():
            async with KernelServer() as server:
                words = list(range(100))
                return await server.submit(
                    adder_request("r", words, words, backend="auto"))

        result = run(scenario())
        assert result.backend == "functional_bitplane"
        assert result.outputs["sum"].tolist() == [2 * i for i in range(100)]

    def test_auto_operandless_routes_analytical(self):
        async def scenario():
            async with KernelServer() as server:
                return await server.submit(ServeRequest(
                    id="p", kernel="adder", width=8, backend="auto"))

        result = run(scenario())
        assert result.backend == "analytical"
        assert result.energy > 0

    def test_auto_shares_cache_with_explicit_backend(self):
        """Routing rewrites the request before the digest is used, so an
        auto request is indistinguishable from one that named the
        resolved backend — including for the result cache."""

        async def scenario():
            async with KernelServer() as server:
                explicit = await server.submit(
                    adder_request("e", [5], [6], backend="functional"))
                auto = await server.submit(
                    adder_request("a", [5], [6], backend="auto"))
                return explicit, auto

        explicit, auto = run(scenario())
        assert not explicit.cached
        assert auto.cached
        assert output_lists(auto) == output_lists(explicit)

    def test_auto_batched_billing_is_bit_identical_to_solo(self):
        """Acceptance: auto-routed requests coalesce with explicit ones
        (same resolved batch key) and the split billing matches a solo
        engine run exactly."""

        async def scenario():
            async with KernelServer(cache_capacity=0) as server:
                return await server.submit_many([
                    adder_request("auto", [1, 2, 3], [4, 5, 6],
                                  backend="auto"),
                    adder_request("explicit", [7], [8],
                                  backend="functional"),
                ])

        auto, explicit = run(scenario())
        assert auto.batch_requests == 2 and explicit.batch_requests == 2
        alone = run_kernel(resolve_kernel("adder", 8),
                           {"a": [1, 2, 3], "b": [4, 5, 6]})
        assert np.array_equal(auto.outputs["sum"], alone.word("sum"))
        assert auto.energy == alone.energy
        assert auto.steps_per_word == alone.steps_per_word

    def test_flight_record_carries_resolved_backend(self):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(capacity=8)

        async def scenario():
            async with KernelServer(flight=recorder) as server:
                await server.submit(
                    adder_request("fr", [1], [2], backend="auto"))

        run(scenario())
        (record,) = recorder.for_request("fr")
        assert record.backend == "functional"
        assert record.status == "ok"

    def test_jsonl_rejects_unknown_backend_at_parse_time(self):
        """The hostile payload from the issue: a bad ``backend`` must
        fail as a per-line error record naming the offending value, not
        crash the serving loop."""
        text = json.dumps({
            "id": "x", "kernel": "adder", "width": 8,
            "operands": {"a": [1], "b": [2]}, "backend": "quantum",
        }) + "\n"
        out = io.StringIO()
        stats = serve_jsonl(io.StringIO(text), out)
        (record,) = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert stats.total == 1
        assert stats.counts["error"] == 1
        assert record["id"] == "x"
        assert record["status"] == "error"
        assert "quantum" in record["error"]
        assert "auto" in record["error"]  # the error names the legal set

    def test_auto_is_a_legal_wire_backend(self):
        request = request_from_dict({
            "id": "r1", "kernel": "adder", "width": 8,
            "operands": {"a": [1], "b": [2]}, "backend": "auto",
        })
        assert request.backend == "auto"


word8 = st.integers(min_value=0, max_value=255)


class TestBatchedEqualsSequential:
    @given(
        batches=st.lists(
            st.tuples(
                st.sampled_from(["adder", "word-compare"]),
                st.lists(st.tuples(word8, word8), min_size=1, max_size=6),
            ),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_serving_is_bit_identical_to_sequential(self, batches):
        """The acceptance property: coalescing never changes answers."""
        requests = [
            ServeRequest(
                id=f"r{i}", kernel=kernel, width=8,
                operands={"a": tuple(a for a, _ in pairs),
                          "b": tuple(b for _, b in pairs)},
            )
            for i, (kernel, pairs) in enumerate(batches)
        ]

        async def scenario():
            async with KernelServer(cache_capacity=0) as server:
                return await server.submit_many(requests)

        served = run(scenario())
        for request, result in zip(requests, served):
            alone = run_kernel(
                resolve_kernel(request.kernel, request.width),
                {k: list(v) for k, v in request.operands.items()},
            )
            assert result.words == alone.words
            for group in alone.word_outputs:
                assert np.array_equal(
                    result.outputs[group], alone.word(group)), (
                    f"{request.kernel} outputs diverged under batching")
            assert result.energy == pytest.approx(alone.energy, rel=1e-12)


def test_stats_snapshot_is_consistent_under_concurrency():
    """Regression: ``stats()`` (the ``/healthz`` extras) is read from
    the telemetry HTTP thread while the event loop and pool threads
    mutate the cache and lifecycle flags.  Before the server lock it
    read field-by-field mid-mutation and could return a torn snapshot
    (e.g. ``cache_entries`` above capacity mid-evict, or ``closed``
    without ``draining``).  Hammer it from several threads during
    heavy distinct-request load and assert every cut is consistent."""
    capacity = 8
    snapshots = []
    errors = []
    stop = threading.Event()

    async def scenario():
        async with KernelServer(cache_capacity=capacity) as server:
            def hammer():
                while not stop.is_set():
                    try:
                        snapshots.append(server.stats())
                    except Exception as exc:  # noqa: BLE001 - the regression
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for wave in range(8):
                    await server.submit_many([
                        adder_request(f"s{wave}-{i}", [wave], [i])
                        for i in range(16)
                    ])
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        return server.stats()

    final = run(scenario())
    assert not errors, errors[:3]
    assert snapshots, "the stats hammer never ran"
    for snap in snapshots:
        assert snap["workers"] == 1
        assert 0 <= snap["cache_entries"] <= capacity, (
            "torn snapshot: cache seen above capacity mid-evict")
        assert snap["queue_depth"] >= 0
        if snap["closed"]:
            assert snap["draining"], (
                "torn snapshot: closed observed before draining")
    assert final["closed"] and final["draining"]
