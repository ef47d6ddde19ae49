"""Stateful property test of the serving state machine.

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.serve.server.KernelServer` through submissions and
duplicate submissions, deadline expiry, transient and permanent executor
errors, queue-full bursts, malformed requests and drains.  The executor
is a stub around the real engine whose calls block on a
``threading.Event`` gate and raise the faults a rule armed, so every
step is deterministic: no step sleeps to let something happen.

After every step the model checks that

* each request has at most one flight record, and a finished request
  has exactly one whose status matches what its submitter saw;
* flight records reconcile with ``serve_requests_total{status=}``;
* every result, cached or not, bills and answers like its request run
  alone through the engine;

and each drain checks that no future is stranded and no pool thread
outlives it.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine import resolve_kernel, run_kernel
from repro.errors import (
    DeadlineExceeded,
    EngineError,
    ServerOverloaded,
    TransientExecutorError,
)
from repro.obs.flight import FlightRecorder
from repro.obs.registry import get_registry
from repro.serve.request import ServeRequest
from repro.serve.server import KernelServer

STATUSES = ("ok", "cached", "rejected", "deadline", "error")
GATE_TIMEOUT_S = 30.0
#: Few distinct payloads, so repeats (and cache hits) come up often.
PAYLOADS = st.tuples(st.integers(0, 2), st.integers(0, 2))


class PermanentFault(RuntimeError):
    """A non-transient executor failure: never retried."""


def _status(task: "asyncio.Task") -> str:
    """The terminal status the submitter of *task* saw."""
    exc = task.exception()
    if exc is None:
        return "cached" if task.result().cached else "ok"
    if isinstance(exc, ServerOverloaded):
        return "rejected"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    return "error"


def _serve_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("repro-serve")}


class ServingModel(RuleBasedStateMachine):
    """Random serving traffic against one gated server at a time."""

    @initialize(
        queue_limit=st.integers(2, 5),
        max_batch_size=st.integers(1, 4),
        cache_capacity=st.sampled_from([0, 8]),
    )
    def setup(self, queue_limit, max_batch_size, cache_capacity):
        self.options = dict(
            queue_limit=queue_limit,
            max_batch_size=max_batch_size, cache_capacity=cache_capacity,
            retries=1, backoff_s=1e-4)
        self.loop = asyncio.new_event_loop()
        self.recorder = FlightRecorder(capacity=100_000)
        family = get_registry().get("serve_requests_total")
        self.counters = {s: family.labels(status=s) for s in STATUSES}
        self.baseline = {s: c.value for s, c in self.counters.items()}
        self.gate = threading.Event()
        self.gate.set()
        self.faults = []
        self.fault_lock = threading.Lock()
        self.raised = Counter()
        self.tasks = {}      # request id -> submitter task
        self.requests = {}   # request id -> ServeRequest
        self.malformed = set()
        self.payloads = []   # (a, b) of every submit, for duplicates
        self.billed = set()  # ids whose result was checked against solo
        self.serial = 0
        self._start_server()

    # -- plumbing -------------------------------------------------------------

    def _start_server(self):
        self.threads_before = _serve_threads()
        self.server = KernelServer(run_batch=self._run_batch,
                                   flight=self.recorder, **self.options)

    def _run_batch(self, request, operands, spec):
        if not self.gate.wait(timeout=GATE_TIMEOUT_S):
            raise RuntimeError("the gate never opened")
        with self.fault_lock:
            fault = self.faults.pop(0) if self.faults else None
        if fault is not None:
            self.raised[fault] += 1
            raise fault("injected")
        return run_kernel(resolve_kernel(request.kernel, request.width),
                          operands or {}, backend=request.backend, spec=spec)

    def _next_id(self):
        self.serial += 1
        return f"q{self.serial}"

    def _submit(self, a, b):
        request = ServeRequest(id=self._next_id(), kernel="adder", width=8,
                               operands={"a": tuple(a), "b": tuple(b)})
        self.requests[request.id] = request
        self.tasks[request.id] = self.loop.create_task(
            self.server.submit(request))
        return request.id

    def _unique_words(self):
        """Operands no other request carries (never a cache hit)."""
        self.serial += 1
        return (self.serial % 256, self.serial // 256 % 256, 255)

    def _settle(self):
        """Open gate: run until every submitter has its answer.  Closed
        gate: give queued work a few loop turns to reach the pool."""
        if self.gate.is_set():
            pending = [t for t in self.tasks.values() if not t.done()]
            if pending:
                self.loop.run_until_complete(
                    asyncio.wait(pending, timeout=GATE_TIMEOUT_S))
            assert all(t.done() for t in self.tasks.values())
        else:
            for _ in range(8):
                self.loop.run_until_complete(asyncio.sleep(0))

    # -- rules ----------------------------------------------------------------

    @rule(payload=PAYLOADS)
    def submit(self, payload):
        self.payloads.append(((payload[0],), (payload[1],)))
        self._submit(*self.payloads[-1])
        self._settle()

    @precondition(lambda self: self.payloads)
    @rule(index=st.integers(0, 10**6))
    def duplicate_submit(self, index):
        """Re-send an earlier payload under a fresh id: a cache hit when
        the cache holds its result, a fresh execution otherwise."""
        a, b = self.payloads[index % len(self.payloads)]
        self._submit(a, b)
        self._settle()

    @rule()
    def hold(self):
        self.gate.clear()

    @rule()
    def release(self):
        self.gate.set()
        self._settle()

    @precondition(lambda self: not self.gate.is_set())
    @rule()
    def deadline_expires(self):
        """With the gate shut nothing can finish, so a short deadline
        always lapses, whether the request is queued or executing —
        unless a full queue refuses it first."""
        full = self.server.queue_depth >= self.server.queue_limit
        words = self._unique_words()
        request = ServeRequest(id=self._next_id(), kernel="adder", width=8,
                               operands={"a": words, "b": words},
                               deadline_s=0.001)
        self.requests[request.id] = request
        task = self.loop.create_task(self.server.submit(request))
        self.tasks[request.id] = task
        self.loop.run_until_complete(
            asyncio.wait([task], timeout=GATE_TIMEOUT_S))
        expected = ServerOverloaded if full else DeadlineExceeded
        assert isinstance(task.exception(), expected), task.exception()

    @rule(kind=st.sampled_from([TransientExecutorError, PermanentFault]),
          count=st.integers(1, 2))
    def arm_faults(self, kind, count):
        """The next *count* executor calls raise *kind*: one transient
        fault is retried away (``retries=1``), two exhaust the retry."""
        with self.fault_lock:
            self.faults.extend([kind] * count)

    @rule(extra=st.integers(1, 3))
    def queue_full_burst(self, extra):
        burst = self.server.queue_limit + extra
        ids = [self._submit(self._unique_words(), self._unique_words())
               for _ in range(burst)]
        self._settle()
        for _ in range(8):  # every burst submission gets its first turn
            self.loop.run_until_complete(asyncio.sleep(0))
        rejected = [rid for rid in ids if self.tasks[rid].done()
                    and _status(self.tasks[rid]) == "rejected"]
        assert len(rejected) >= extra
        assert burst - len(rejected) <= self.server.queue_limit

    @rule()
    def malformed(self):
        """Operand lengths disagree: refused alone, before queueing."""
        rid = self._submit((1, 2), (3,))
        self.malformed.add(rid)
        self.loop.run_until_complete(
            asyncio.wait([self.tasks[rid]], timeout=GATE_TIMEOUT_S))
        assert isinstance(self.tasks[rid].exception(), EngineError)
        self._settle()

    @rule()
    def drain(self):
        self.gate.set()
        self.loop.run_until_complete(self.server.drain())
        self._settle()
        self._check_drained()
        self._start_server()

    def _check_drained(self):
        assert all(t.done() for t in self.tasks.values()), "stranded future"
        self.one_terminal_status_each()
        self.flight_reconciles_with_counters()
        self.results_bill_like_solo()
        stats = self.server.stats()
        assert stats["closed"] and stats["queue_depth"] == 0
        assert stats["inflight_batches"] == 0
        leaked = _serve_threads() - self.threads_before
        assert not leaked, f"pool threads outlived drain(): {leaked}"

    # -- invariants -----------------------------------------------------------

    @invariant()
    def one_terminal_status_each(self):
        per_id = Counter(r.request_id for r in self.recorder.last())
        assert all(n == 1 for n in per_id.values()), per_id.most_common(3)
        for rid, task in self.tasks.items():
            if not task.done():
                continue
            (record,) = self.recorder.for_request(rid)
            assert record.status == _status(task), (rid, record.status)
            if rid in self.malformed:
                assert record.status == "error"
            elif isinstance(task.exception(), (
                    TransientExecutorError, PermanentFault)):
                assert self.raised[type(task.exception())] > 0

    @invariant()
    def flight_reconciles_with_counters(self):
        by_status = Counter(r.status for r in self.recorder.last())
        for status, counter in self.counters.items():
            assert counter.value - self.baseline[status] == by_status[status], (
                status, counter.value - self.baseline[status],
                by_status[status])

    @invariant()
    def results_bill_like_solo(self):
        for rid, task in self.tasks.items():
            if (rid in self.billed or not task.done()
                    or task.exception() is not None):
                continue
            self.billed.add(rid)
            result = task.result()
            operands = self.requests[rid].operands
            alone = run_kernel(resolve_kernel("adder", 8),
                               {k: list(v) for k, v in operands.items()})
            assert (result.outputs["sum"].tolist()
                    == alone.word("sum").tolist())
            assert result.energy == pytest.approx(alone.energy, rel=1e-12)
            assert result.steps_per_word == alone.steps_per_word

    def teardown(self):
        self.gate.set()
        try:
            self.loop.run_until_complete(self.server.drain())
            self._settle()
            self._check_drained()
        finally:
            self.loop.close()


TestServingModel = ServingModel.TestCase
TestServingModel.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)
