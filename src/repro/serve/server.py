"""The asyncio batching job server.

Dataflow (DESIGN.md section 8)::

    submit() ──▶ digest cache ──▶ bounded queue ──▶ batcher ──▶ executor thread
                    │  hit               │ full         │ slot free   │
                    ▼                    ▼              ▼             ▼
                 cached result    ServerOverloaded   coalesce     engine batch
                                                     by key     ──▶ slice ──▶ futures

* **Per-request checks** — a kernel request's operands are checked on
  their own before it is queued
  (:meth:`~repro.serve.request.ServeRequest.check_operands`), so a
  malformed request fails alone instead of failing the batch it would
  have been coalesced into.
* **Backpressure** — the request queue is bounded (``queue_limit``);
  a full queue rejects the submission with
  :class:`~repro.errors.ServerOverloaded` *before* accepting it, so an
  overload burst never corrupts or delays already-accepted work.
* **Work-conserving batching** — the batcher takes the first queued
  request, waits for the executor, then takes whatever else is
  already queued, up to ``max_batch_size`` requests; there is no
  timer.  Requests that arrive while the executor is busy pile up and
  coalesce; a request that finds it idle waits for nothing.  One
  engine execution runs at a time, on one executor thread: the
  executors are GIL-bound NumPy, so a second concurrent execution only
  contends for the interpreter instead of adding throughput.  The
  execution slot is held only while an execution runs, never across a
  retry backoff.  The batch is grouped by
  :meth:`~repro.serve.request.ServeRequest.batch_key` and each group
  coalesces its members' memoised operand arrays into one engine
  execution
  (:func:`~repro.engine.coalesce_operand_batches` ➜
  :func:`~repro.engine.run_kernel`); each member gets its slice of the
  batch's output words and its share of the bill, exactly what
  :meth:`~repro.engine.BatchResult.split` would give it.
* **Deadlines** — each request may carry ``deadline_s``; expiry
  cancels the submitter's wait with
  :class:`~repro.errors.DeadlineExceeded` and drops the request from
  any batch it has not yet joined.
* **Retries** — transient executor failures (default:
  :class:`~repro.errors.TransientExecutorError`) retry with exponential
  backoff up to ``retries`` times; exhaustion surfaces the *original*
  executor error to every coalesced submitter.
* **Result cache** — completed results are kept in a digest-keyed LRU;
  repeat submissions return immediately (``cached=True``).
* **Drain** — :meth:`KernelServer.drain` stops intake, lets every
  queued and in-flight request finish, then shuts the executor down;
  ``async with KernelServer(...)`` drains on exit.

Telemetry (all always-on unless ``telemetry=False``): per-request
trace propagation (``trace_id``/``request_id`` riding
:mod:`repro.obs.context` through the batcher onto the executor thread, so
engine spans executed inside a coalesced batch carry the request
identity), a :class:`~repro.obs.flight.FlightRecord` per request with
stage timings (``queue_wait`` / ``batch_wait`` / ``execute`` /
``split``), ``serve_requests_total{status=}`` (ok / cached / rejected /
deadline / error), per-kernel ``serve_request_wall_seconds``
(µs-resolution buckets) and ``serve_request_latency_seconds`` (live
p50/p95/p99 summary), ``serve_batch_size`` + ``serve_batch_words``
histograms, ``serve_queue_depth`` gauge, ``serve_retries_total``
counter, and a ``serve/<kernel>`` span per executed batch linking every
member request id.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from ..engine import (
    BatchResult,
    coalesce_operand_batches,
    resolve_kernel,
    run_kernel,
)
from ..errors import (
    DeadlineExceeded,
    EngineError,
    ServeError,
    ServerOverloaded,
    TransientExecutorError,
)
from ..obs.context import (
    TraceContext,
    bind_trace,
    new_request_id,
    new_trace_context,
    new_trace_id,
    unbind_trace,
)
from ..obs.flight import FlightRecord, FlightRecorder, get_flight_recorder
from ..obs.logsetup import get_logger
from ..obs.registry import LATENCY_BUCKETS, Histogram, Summary, get_registry
from ..obs.tracing import get_tracer
from ..spec import TABLE1, TechSpec
from .request import ServeRequest, ServeResult, Words

__all__ = ["AutoRouter", "KernelServer", "RunBatchFn", "SpecResolver"]

_LOG = get_logger("serve")

_WARNED: Set[str] = set()


def ignored_option(spelling: str, value: Any) -> None:
    """Warn once per process that *spelling* was passed; it is ignored.

    The serving layer's deprecation policy (DESIGN.md section 12): a
    dead option defaults to ``None`` and is never forwarded, and a
    caller passing anything else gets one :class:`DeprecationWarning`
    per spelling (e.g. ``"KernelServer(workers=)"``) per process.
    """
    if value is None or spelling in _WARNED:
        return
    _WARNED.add(spelling)
    warnings.warn(f"{spelling} is deprecated and ignored; stop passing it",
                  DeprecationWarning, stacklevel=3)


#: Injectable batch executor: ``(request, operands, spec) -> BatchResult``.
#: *request* is the group's representative; *operands* the coalesced
#: operand mapping (``None`` for evaluate / analytical groups).
RunBatchFn = Callable[
    [ServeRequest, Optional[Mapping[str, Sequence[int]]], TechSpec],
    BatchResult,
]

_REGISTRY = get_registry()
_REQUESTS_FAMILY = _REGISTRY.counter(
    "serve_requests_total", "serving requests, by terminal status")
_REQUESTS = {
    status: _REQUESTS_FAMILY.labels(status=status)
    for status in ("ok", "cached", "rejected", "deadline", "error")
}
_BATCH_SIZE = _REGISTRY.histogram(
    "serve_batch_size", "requests coalesced per executed batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
_BATCH_WORDS = _REGISTRY.histogram(
    "serve_batch_words", "operand words per executed batch",
    buckets=(1, 4, 16, 64, 256, 1024, 4096, 16384))
_QUEUE_DEPTH = _REGISTRY.gauge(
    "serve_queue_depth", "requests waiting in the server queue")
_RETRIES = _REGISTRY.counter(
    "serve_retries_total", "transient executor failures retried")
_AUTOROUTE_FAMILY = _REGISTRY.counter(
    "serve_autoroute_total",
    "auto-routed requests, by plan-resolved backend")
_AUTOROUTE: Dict[str, Any] = {}
_WALL = _REGISTRY.histogram(
    "serve_request_wall_seconds",
    "request wall latency (accept to respond), by kernel",
    buckets=LATENCY_BUCKETS)
_LATENCY = _REGISTRY.summary(
    "serve_request_latency_seconds",
    "live wall-latency quantiles (p50/p95/p99), by kernel")


@dataclass
class _Pending:
    """One accepted request waiting for its batch to complete.

    Telemetry rides along as raw ``perf_counter`` stamps (``trace`` set
    means telemetry is on for this request); the
    :class:`~repro.obs.flight.FlightRecord` itself is assembled once at
    finalize time — building the record lazily keeps the per-request
    hot path to a handful of float stores.  ``group_stamps`` is one
    tuple shared by every member of an executed batch:
    ``(started, executed, retries, batch_requests, batch_words)``.
    ``digest`` is the request digest, read once at submission.
    """

    request: ServeRequest
    spec: TechSpec
    digest: str
    future: "asyncio.Future[ServeResult]"
    expires_at: Optional[float] = None
    cancelled: bool = False
    trace: Optional[TraceContext] = None
    accepted_at: float = 0.0
    dequeued_at: float = 0.0
    group_stamps: Optional[Tuple[float, float, int, int, int]] = None
    flight_done: bool = False


class _Stop:
    """Queue sentinel that ends the batcher after a drain."""


_STOP = _Stop()


def _default_run_batch(
    request: ServeRequest,
    operands: Optional[Mapping[str, Sequence[int]]],
    spec: TechSpec,
) -> BatchResult:
    """The production executor: resolve + run the engine kernel."""
    kernel = resolve_kernel(request.kernel, request.width)
    if request.backend == "analytical":
        words = request.words if operands is None else None
        return run_kernel(kernel, operands or None, backend="analytical",
                          words=words, spec=spec)
    return run_kernel(kernel, operands or {}, backend=request.backend,
                      spec=spec)


def _run_evaluate(request: ServeRequest, spec: TechSpec) -> Dict[str, float]:
    """Execute one Table 2 evaluation under *spec* (pool thread)."""
    from ..core.evaluate import table2

    packing = str(request.params.get("dna_packing", "paper"))
    result = table2(dna_packing=packing, spec=spec)
    metrics: Dict[str, float] = {}
    for (application, architecture), metric_set in result.metrics.items():
        for name, value in metric_set.as_dict().items():
            metrics[f"{application}.{architecture}.{name}"] = value
    for application, factors in result.improvements.items():
        metrics[f"{application}.improvement.energy_delay"] = factors.energy_delay
        metrics[f"{application}.improvement.computing_efficiency"] = (
            factors.computing_efficiency)
    return metrics


class SpecResolver:
    """Per-request spec derivation with a bounded memo.

    ``TechSpec.derive`` walks and re-freezes the whole tree, so a
    server (or a cluster front door, which must resolve the spec
    *before* its shared-cache probe) memoises derivations per canonical
    override payload.  The memo is a simple bounded dict — overrides
    repeat heavily in steady state.
    """

    def __init__(self, base: TechSpec, *, capacity: int = 256) -> None:
        self.base = base
        self._capacity = int(capacity)
        self._memo: Dict[str, TechSpec] = {}

    def resolve(self, overrides: Mapping[str, Any]) -> TechSpec:
        if not overrides:
            return self.base
        key = json.dumps(
            {k: overrides[k] for k in sorted(overrides)},
            sort_keys=True, default=str)
        spec = self._memo.get(key)
        if spec is None:
            spec = self.base.derive(overrides)
            if len(self._memo) >= self._capacity:
                self._memo.pop(next(iter(self._memo)))
            self._memo[key] = spec
        return spec


class AutoRouter:
    """Resolve ``backend="auto"`` requests via the cached offload plan.

    Operand-less requests want pricing, not values — they go
    analytical.  Otherwise the planner places the request's
    (kernel, width, words) shape under the CIM/CPU cost models and
    suggests the engine backend; placements are memoised per
    ``(spec, kernel, width, words)`` so steady-state routing is one
    dict probe.  Each resolution bumps
    ``serve_autoroute_total{backend=}``.  Shared by
    :class:`KernelServer` and the cluster front door (which must
    resolve *before* probing the shared result cache, so auto and
    explicit submissions of the same work share cache entries).
    """

    def __init__(self, *, capacity: int = 1024) -> None:
        self._capacity = int(capacity)
        self._memo: Dict[Tuple[str, str, int, int], str] = {}

    def resolve(self, request: ServeRequest, spec: TechSpec) -> ServeRequest:
        if request.backend != "auto" or request.kind != "kernel":
            return request
        if not request.operands:
            resolved = "analytical"
        else:
            key = (spec.digest, request.kernel.lower(),
                   request.width, request.words)
            hit = self._memo.get(key)
            if hit is None:
                from ..analysis.planner import plan_request

                hit = plan_request(
                    request.kernel, request.width, request.words, spec=spec
                ).backend
                if len(self._memo) >= self._capacity:
                    self._memo.pop(next(iter(self._memo)))
                self._memo[key] = hit
            resolved = hit
        child = _AUTOROUTE.get(resolved)
        if child is None:
            child = _AUTOROUTE_FAMILY.labels(backend=resolved)
            _AUTOROUTE[resolved] = child
        child.inc()
        return replace(request, backend=resolved)


class KernelServer:
    """Asyncio front door for kernel execution and evaluation requests.

    See the module docstring for the dataflow.  All methods must be
    called from one running event loop; engine executions run one at a
    time on a single executor thread.

    Parameters mirror the serving knobs: ``max_batch_size`` (the most
    requests one batch takes), ``queue_limit``
    (backpressure bound), ``retries`` / ``backoff_s`` / ``transient``
    (retry policy), ``cache_capacity`` (digest result cache),
    ``spec`` (base :class:`~repro.spec.TechSpec`; per-request
    ``overrides`` derive from it), ``run_batch`` (injectable
    executor, for tests and alternative engines), ``telemetry``
    (request-scoped tracing + flight records + latency quantiles; on by
    default, the off switch exists for the A/B overhead benchmark), and
    ``flight`` (the recorder to write to; the process-wide one by
    default).  ``workers`` is a deprecated no-op: there is one executor
    thread.
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 64,
        queue_limit: int = 1024,
        workers: Optional[int] = None,
        retries: int = 2,
        backoff_s: float = 0.005,
        cache_capacity: int = 1024,
        spec: TechSpec = TABLE1,
        run_batch: Optional[RunBatchFn] = None,
        transient: Tuple[Type[BaseException], ...] = (TransientExecutorError,),
        telemetry: bool = True,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ServeError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        ignored_option("KernelServer(workers=)", workers)
        self.max_batch_size = int(max_batch_size)
        self.queue_limit = int(queue_limit)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.cache_capacity = int(cache_capacity)
        self.transient = transient
        self._run_batch: RunBatchFn = run_batch or _default_run_batch
        self.telemetry = bool(telemetry)
        self._flight = flight if flight is not None else get_flight_recorder()
        self._wall_metrics: Dict[str, Tuple[Histogram, Summary]] = {}

        # The asyncio primitives are created lazily inside the running
        # loop (_ensure_started): on Python 3.9 constructing them here
        # would bind whatever loop get_event_loop() returns at import
        # time, breaking later use under asyncio.run().
        self._queue: Optional["asyncio.Queue[Union[_Pending, _Stop]]"] = None
        self._batcher_task: Optional["asyncio.Task[None]"] = None
        self._inflight: "set[asyncio.Task[None]]" = set()
        # Held while an engine execution runs on the executor thread.
        self._slot: Optional[asyncio.Lock] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._draining = False
        self._closed = False
        self._cache: "OrderedDict[str, ServeResult]" = OrderedDict()
        self._specs = SpecResolver(spec)
        self._auto = AutoRouter()
        # Guards the result cache and the stats() snapshot: the event
        # loop mutates state while the telemetry HTTP thread (or any
        # other thread) reads it through stats()/healthz.
        self._lock = threading.Lock()

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the queue right now (0 before start)."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def spec(self) -> TechSpec:
        """The active base spec (per-request ``overrides`` derive from it)."""
        return self._specs.base

    @spec.setter
    def spec(self, value: TechSpec) -> None:
        # Re-pointing the active spec rebuilds the derivation memo:
        # cached derivations of the old base must never leak.
        self._specs = SpecResolver(value)

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "KernelServer":
        self._ensure_started()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()

    def _ensure_started(self) -> None:
        if self._closed:
            raise ServeError("server is closed")
        if self._batcher_task is None or self._batcher_task.done():
            if self._draining:
                raise ServeError("server is draining; not accepting requests")
            if self._queue is None:
                self._queue = asyncio.Queue()
            if self._slot is None:
                self._slot = asyncio.Lock()
            self._pool = self._pool or ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve")
            self._batcher_task = asyncio.get_running_loop().create_task(
                self._batch_loop(), name="repro-serve-batcher")

    async def drain(self) -> None:
        """Stop intake, finish all accepted work, release the executor."""
        if self._closed:
            return
        self._draining = True
        if self._batcher_task is not None:
            assert self._queue is not None
            self._queue.put_nowait(_STOP)
            await self._batcher_task
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._batcher_task = None
        self._closed = True
        _QUEUE_DEPTH.set(0)

    # -- client API ---------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResult:
        """Serve one request; raises the typed serve errors on failure.

        Cache hits return immediately; otherwise the request is queued
        (or rejected with :class:`~repro.errors.ServerOverloaded` when
        the queue is full) and awaited until its batch completes or its
        deadline expires (:class:`~repro.errors.DeadlineExceeded`).
        """
        try:
            return await self._submit(request)
        finally:
            request.release_arrays()

    async def _submit(self, request: ServeRequest) -> ServeResult:
        if self._draining or self._closed:
            raise ServeError("server is draining; not accepting requests")
        self._ensure_started()
        assert self._queue is not None
        queue = self._queue

        trace: Optional[TraceContext] = None
        accepted_at = 0.0
        if self.telemetry:
            if request.trace_id or request.id:
                trace = TraceContext(
                    trace_id=request.trace_id or new_trace_id(),
                    request_id=request.id or new_request_id(),
                )
            else:
                trace = new_trace_context()
            accepted_at = time.perf_counter()
        trace_id = trace.trace_id if trace is not None else request.trace_id

        # Resolve the spec BEFORE the cache probe: the result cache is
        # keyed on (request digest, resolved spec digest), so the same
        # request served under a different active spec (base spec or
        # overrides) can never collide — and the executor backend is
        # part of the request digest itself.
        spec = self._derive_spec(request.overrides)
        # Auto-routing resolves BEFORE the cache probe and queueing:
        # from here on the request carries a concrete backend, so the
        # digest, batch key, coalescing, split billing, and flight
        # record all behave exactly as if the caller had named it.
        if request.backend == "auto":
            request = self._autoroute(request, spec)
        digest = request.digest
        cached = self._cache_get(self._result_key(digest, spec))
        if cached is not None:
            _REQUESTS["cached"].inc()
            if trace is not None:
                now = time.perf_counter()
                kernel = request.kernel or request.kind
                self._flight.record(FlightRecord(
                    request_id=trace.request_id, trace_id=trace.trace_id,
                    kernel=kernel, backend=request.backend, status="cached",
                    cache_hit=True, accepted_at=accepted_at,
                    finished_at=now, closed=True))
                self._observe_wall(kernel, now - accepted_at)
            return cached.for_request(request.id, cached=True,
                                      trace_id=trace_id)

        # Check operands per request, before queueing: a malformed
        # request coalesced with others would fail their whole batch.
        if request.kind == "kernel" and request.operands:
            try:
                request.check_operands(
                    resolve_kernel(request.kernel, request.width))
            except EngineError as exc:
                self._refuse(request, trace, accepted_at, "error", repr(exc))
                raise

        if queue.qsize() >= self.queue_limit:
            self._refuse(request, trace, accepted_at, "rejected", "queue full")
            raise ServerOverloaded(
                f"request queue full ({self.queue_limit} pending); retry later"
            )

        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            spec=spec,
            digest=digest,
            future=loop.create_future(),
            expires_at=(None if request.deadline_s is None
                        else loop.time() + request.deadline_s),
            trace=trace,
            accepted_at=accepted_at,
        )
        queue.put_nowait(pending)
        _QUEUE_DEPTH.set(queue.qsize())
        if request.deadline_s is None:
            return await pending.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(pending.future), request.deadline_s)
        except asyncio.TimeoutError:
            if pending.future.done():
                # The answer landed in the same loop turn as the timer;
                # it is already counted and recorded, so it stands.
                return pending.future.result()
            pending.cancelled = True
            pending.future.cancel()
            _REQUESTS["deadline"].inc()
            self._finalize_flight(
                pending, "deadline",
                error=f"missed {request.deadline_s}s deadline")
            raise DeadlineExceeded(
                f"request {request.id or digest[:12]} missed its "
                f"{request.deadline_s}s deadline"
            ) from None

    async def submit_many(
        self,
        requests: Sequence[ServeRequest],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ServeResult, BaseException]]:
        """Submit a request mix concurrently, preserving order.

        With ``return_exceptions`` each failed slot holds its typed
        error instead of aborting the gather — the bulk-client idiom.
        """
        return await asyncio.gather(
            *(self.submit(r) for r in requests),
            return_exceptions=return_exceptions,
        )

    # -- internals ----------------------------------------------------------

    def _autoroute(self, request: ServeRequest, spec: TechSpec) -> ServeRequest:
        """Resolve ``backend="auto"`` (see :class:`AutoRouter`)."""
        return self._auto.resolve(request, spec)

    def _derive_spec(self, overrides: Mapping[str, Any]) -> TechSpec:
        return self._specs.resolve(overrides)

    @staticmethod
    def _result_key(digest: str, spec: TechSpec) -> str:
        """Result-cache key: request content *digest* + resolved spec
        digest.  The request digest already folds in the executor
        backend; appending the spec digest distinguishes identical
        requests served under different active specs."""
        return f"{digest}:{spec.digest}"

    def _refuse(
        self,
        request: ServeRequest,
        trace: Optional[TraceContext],
        accepted_at: float,
        status: str,
        error: str,
    ) -> None:
        """Count and record a request turned away before queueing."""
        _REQUESTS[status].inc()
        if trace is not None:
            flight = FlightRecord(
                request_id=trace.request_id, trace_id=trace.trace_id,
                kernel=request.kernel or request.kind,
                backend=request.backend, status=status, error=error,
                accepted_at=accepted_at, finished_at=time.perf_counter(),
                closed=True)
            self._flight.record(flight)
            _LOG.warning("refused: %s", flight.describe())

    def _cache_get(self, digest: str) -> Optional[ServeResult]:
        with self._lock:
            result = self._cache.get(digest)
            if result is not None:
                self._cache.move_to_end(digest)
            return result

    def _cache_put(self, digest: str, result: ServeResult) -> None:
        if self.cache_capacity < 1:
            return
        with self._lock:
            self._cache[digest] = result
            self._cache.move_to_end(digest)
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)

    async def _batch_loop(self) -> None:
        """Dispatch work-conserving batches until the drain sentinel.

        Take the first queued request, wait for the executor, then take
        whatever else is already queued (up to ``max_batch_size``) —
        no timer.  While an execution runs the queue fills, so load
        coalesces; an idle server dispatches a lone request at once.
        """
        loop = asyncio.get_running_loop()
        assert self._queue is not None and self._slot is not None
        queue, slot = self._queue, self._slot
        stopping = False
        while not stopping:
            first = await queue.get()
            if isinstance(first, _Stop):
                break
            self._mark_dequeued(first)
            batch: List[_Pending] = [first]
            async with slot:  # wait for the running execution to finish
                pass
            while len(batch) < self.max_batch_size:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if isinstance(item, _Stop):
                    stopping = True
                    break
                self._mark_dequeued(item)
                batch.append(item)
            _QUEUE_DEPTH.set(queue.qsize())
            for group in self._group(batch):
                task = loop.create_task(self._run_group(group))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)

    @staticmethod
    def _group(batch: Sequence[_Pending]) -> List[List[_Pending]]:
        groups: "OrderedDict[Tuple[Any, ...], List[_Pending]]" = OrderedDict()
        for pending in batch:
            key = pending.request.batch_key(pending.spec.digest)
            groups.setdefault(key, []).append(pending)
        return list(groups.values())

    def _expire(self, members: Sequence[_Pending]) -> List[_Pending]:
        """Drop cancelled/deadline-expired members, failing their futures."""
        now = asyncio.get_running_loop().time()
        live: List[_Pending] = []
        for pending in members:
            expired = (pending.expires_at is not None
                       and now >= pending.expires_at)
            if pending.cancelled or pending.future.done():
                continue
            if expired:
                pending.cancelled = True
                _REQUESTS["deadline"].inc()
                pending.future.set_exception(DeadlineExceeded(
                    f"request {pending.request.id or '?'} expired "
                    "before its batch ran"))
                self._finalize_flight(pending, "deadline",
                                      error="expired before its batch ran")
                continue
            live.append(pending)
        return live

    async def _execute_with_retry(
        self,
        fn: Callable[[], Any],
        kernel_name: str,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[Any, int, float]:
        """Run *fn* on the executor; retry transient failures with backoff.

        Returns ``(result, retries_used, started)``, *started* being when
        the first attempt got the execution slot.  The slot is held only
        while an attempt runs: a backoff sleep releases it, so another
        group executes meanwhile.  When *trace* is given it is bound into
        the context the executor thread runs under — ``run_in_executor``
        does **not** propagate contextvars by itself, so without the
        explicit ``copy_context().run`` the engine spans inside *fn*
        could not see the request identity.
        """
        loop = asyncio.get_running_loop()
        assert self._pool is not None and self._slot is not None
        pool, slot = self._pool, self._slot
        call = fn
        if trace is not None:
            token = bind_trace(trace)
            try:
                snapshot = contextvars.copy_context()
            finally:
                unbind_trace(token)
            call = lambda: snapshot.run(fn)  # noqa: E731 - tiny adapter
        original: Optional[BaseException] = None
        started = 0.0
        for attempt in range(self.retries + 1):
            try:
                async with slot:
                    if not attempt:
                        started = time.perf_counter()
                    result = await loop.run_in_executor(pool, call)
                return result, attempt, started
            except self.transient as exc:
                if original is None:
                    original = exc
                if attempt >= self.retries:
                    raise original
                _RETRIES.inc()
                await asyncio.sleep(self.backoff_s * (2 ** attempt))
        raise ServeError(f"unreachable retry state for {kernel_name}")

    async def _run_group(self, members: Sequence[_Pending]) -> None:
        """Coalesce, execute (with retries), slice, respond, cache."""
        live = self._expire(members)
        if not live:
            return
        representative = live[0]
        request = representative.request
        spec = representative.spec
        name = request.kernel or request.kind
        _BATCH_SIZE.observe(len(live))
        try:
            if request.kind == "evaluate":
                await self._run_evaluate_group(live)
                return
            merged: Optional[Dict[str, Any]] = None
            sizes = [p.request.words for p in live]
            if request.operands:
                merged_map, sizes = coalesce_operand_batches(
                    [p.request.operand_arrays() for p in live])
                merged = dict(merged_map)
            total_words = sum(sizes)
            _BATCH_WORDS.observe(total_words)
            # The span is opened *after* the awaited execution and
            # backdated: concurrent groups interleave on the event
            # loop, so holding it open across the await would close
            # spans out of LIFO order.
            batch, retries_used, started = await self._execute_with_retry(
                lambda: self._run_batch(request, merged, spec), name,
                trace=representative.trace)
            executed = time.perf_counter()
            self._stamp_group(live, started, executed, retries_used,
                              len(live), total_words)
            attrs: Dict[str, Any] = dict(
                requests=len(live), words=total_words,
                backend=request.backend, spec=spec.short_digest)
            if representative.trace is not None:
                attrs["trace_id"] = representative.trace.trace_id
                attrs["request_ids"] = self._request_ids(live)
            with get_tracer().span(f"serve/{name}", **attrs) as span:
                span.backdate(started)
                span.add_sim(energy=batch.energy, latency=batch.latency,
                             steps=batch.steps_per_word * batch.words)
            self._respond_kernel(live, batch, sizes, total_words)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - fanned out to futures
            for pending in live:
                if not pending.future.done():
                    _REQUESTS["error"].inc()
                    pending.future.set_exception(exc)
                self._finalize_flight(pending, "error", error=repr(exc))

    async def _run_evaluate_group(self, live: Sequence[_Pending]) -> None:
        representative = live[0]
        request, spec = representative.request, representative.spec
        metrics, retries_used, started = await self._execute_with_retry(
            lambda: _run_evaluate(request, spec), request.kind,
            trace=representative.trace)
        executed = time.perf_counter()
        self._stamp_group(live, started, executed, retries_used,
                          len(live), len(live))
        attrs: Dict[str, Any] = dict(requests=len(live),
                                     spec=spec.short_digest)
        if representative.trace is not None:
            attrs["trace_id"] = representative.trace.trace_id
            attrs["request_ids"] = self._request_ids(live)
        with get_tracer().span(f"serve/{request.kind}", **attrs) as span:
            span.backdate(started)
        walls: List[float] = []
        for pending in live:
            result = ServeResult(
                id=pending.request.id,
                kind="evaluate",
                kernel="table2",
                backend="analytical",
                words=1,
                metrics=dict(metrics),
                spec_digest=spec.digest,
                batch_words=len(live),
                batch_requests=len(live),
                digest=pending.digest,
                trace_id=self._trace_id_for(pending),
            )
            self._finish(pending, result, walls=walls)
        self._observe_wall_many("table2", walls)

    def _respond_kernel(
        self,
        live: Sequence[_Pending],
        batch: BatchResult,
        sizes: Sequence[int],
        total_words: int,
    ) -> None:
        """Answer each member with its slice of the batch.

        Each word group is assembled once for the whole batch and frozen
        (cache hits share the arrays); members get read-only slices of
        it.  Energy is billed per word and latency once per lock-step
        batch — bit for bit what :meth:`BatchResult.split` bills.
        """
        groups: Dict[str, Words] = {}
        if batch.outputs is not None:
            for group in batch.word_outputs:
                words = batch.word(group)
                words.flags.writeable = False
                groups[group] = words
        # Operand-less (analytical) members of one group are
        # content-identical by construction: one execution serves all.
        whole = (not live[0].request.operands
                 or (len(live) == 1 and batch.words == sizes[0]))
        energy_per_word = 0.0
        if not whole:
            if sum(sizes) != batch.words:
                raise EngineError(f"member sizes sum to {sum(sizes)}, "
                                  f"batch has {batch.words} words")
            energy_per_word = batch.energy / batch.words
        walls: List[float] = []
        offset = 0
        for pending, size in zip(live, sizes):
            if whole:
                outputs, words_billed, energy = (
                    dict(groups), batch.words, batch.energy)
            else:
                outputs = {group: words[offset:offset + size]
                           for group, words in groups.items()}
                words_billed, energy = size, energy_per_word * size
                offset += size
            result = ServeResult(
                id=pending.request.id,
                kind=pending.request.kind,
                kernel=batch.kernel,
                backend=batch.backend,
                words=words_billed,
                outputs=outputs,
                energy=energy,
                latency=batch.latency,
                steps_per_word=batch.steps_per_word,
                spec_digest=pending.spec.digest,
                batch_words=total_words,
                batch_requests=len(live),
                digest=pending.digest,
                trace_id=self._trace_id_for(pending),
            )
            self._finish(pending, result, walls=walls)
        # Label with the request-level kernel name (what the flight
        # records carry), not the engine's resolved variant name.
        first = live[0].request
        self._observe_wall_many(first.kernel or first.kind, walls)

    def _finish(
        self,
        pending: _Pending,
        result: ServeResult,
        walls: Optional[List[float]] = None,
    ) -> None:
        self._cache_put(self._result_key(pending.digest, pending.spec), result)
        if not pending.future.done():
            _REQUESTS["ok"].inc()
            pending.future.set_result(result)
        self._finalize_flight(pending, "ok", walls=walls)

    # -- telemetry helpers ---------------------------------------------------

    @staticmethod
    def _trace_id_for(pending: _Pending) -> str:
        if pending.trace is not None:
            return pending.trace.trace_id
        return pending.request.trace_id

    @staticmethod
    def _request_ids(live: Sequence[_Pending]) -> List[str]:
        """Every member's request id — the batch-span linkage attr."""
        return [
            p.trace.request_id if p.trace is not None else (p.request.id or "?")
            for p in live
        ]

    @staticmethod
    def _mark_dequeued(pending: _Pending) -> None:
        if pending.trace is not None:
            pending.dequeued_at = time.perf_counter()

    @staticmethod
    def _stamp_group(
        live: Sequence[_Pending],
        started: float,
        executed: float,
        retries_used: int,
        batch_requests: int,
        batch_words: int,
    ) -> None:
        """Hand every member one shared tuple of batch-level stamps."""
        stamps = (started, executed, retries_used, batch_requests,
                  batch_words)
        for pending in live:
            if pending.trace is not None:
                pending.group_stamps = stamps

    def _finalize_flight(
        self,
        pending: _Pending,
        status: str,
        *,
        error: str = "",
        walls: Optional[List[float]] = None,
    ) -> None:
        """Assemble + record the flight exactly once (racing paths safe).

        The record is built here, from the stamps the pipeline left on
        *pending*, rather than mutated incrementally along the way —
        racing finish paths (submitter-side deadline vs. worker-side
        batch completion) are serialised by ``flight_done``.  When
        *walls* is given the wall latency is appended there instead of
        observed immediately: batch completion paths flush the whole
        burst through :meth:`_observe_wall_many` in one locked call.
        """
        trace = pending.trace
        if trace is None or pending.flight_done:
            return
        pending.flight_done = True
        now = time.perf_counter()
        request = pending.request
        kernel = request.kernel or request.kind
        stages: Dict[str, float] = {}
        dequeued = pending.dequeued_at
        if dequeued:
            stages["queue_wait"] = dequeued - pending.accepted_at
        stamps = pending.group_stamps
        retries = batch_requests = batch_words = 0
        if stamps is not None:
            started, executed, retries, batch_requests, batch_words = stamps
            if dequeued:
                stages["batch_wait"] = started - dequeued
            stages["execute"] = executed - started
            if status == "ok":
                stages["split"] = now - executed
        # Positional, in FlightRecord field order — kwargs processing is
        # measurable on this per-request path.
        flight = FlightRecord(
            trace.request_id, trace.trace_id, kernel, request.backend,
            status, False, retries, batch_requests, batch_words,
            pending.accepted_at, now, stages, error, True)
        self._flight.record(flight)
        if status == "ok":
            wall = now - pending.accepted_at
            if walls is not None:
                walls.append(wall)
            else:
                self._observe_wall(kernel, wall)
        else:
            _LOG.warning("%s", flight.describe())

    def _observe_wall(self, kernel: str, wall_s: float) -> None:
        # Cache the labelled children per kernel: labels() is a locked
        # dict lookup, and this runs once per request.
        pair = self._wall_metrics.get(kernel)
        if pair is None:
            pair = (_WALL.labels(kernel=kernel), _LATENCY.labels(kernel=kernel))
            self._wall_metrics[kernel] = pair
        pair[0].observe(wall_s)
        pair[1].observe(wall_s)

    def _observe_wall_many(self, kernel: str, walls: Sequence[float]) -> None:
        """Flush one batch's wall latencies in two locked calls."""
        if not walls:
            return
        pair = self._wall_metrics.get(kernel)
        if pair is None:
            pair = (_WALL.labels(kernel=kernel), _LATENCY.labels(kernel=kernel))
            self._wall_metrics[kernel] = pair
        pair[0].observe_many(walls)
        pair[1].observe_many(walls)

    def stats(self) -> Dict[str, Any]:
        """Live operational stats (the ``/healthz`` extra fields).

        Snapshotted under the server lock: ``/healthz`` runs this from
        the telemetry HTTP thread while the event loop and pool threads
        mutate the cache and lifecycle flags, so the fields must be read
        as one consistent cut, not field-by-field mid-mutation
        (regression: ``tests/test_serve.py::
        test_stats_snapshot_is_consistent_under_concurrency``).
        """
        with self._lock:
            return {
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "inflight_batches": len(self._inflight),
                "workers": 1,
                "cache_entries": len(self._cache),
                "flight_capacity": self._flight.capacity,
                "telemetry": self.telemetry,
                "draining": self._draining,
                "closed": self._closed,
            }
