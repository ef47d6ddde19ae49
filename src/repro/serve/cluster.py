"""The sharded cluster layer: N batching servers behind one front door.

Dataflow (DESIGN.md section 12)::

    submit() ──▶ quota ──▶ auto-route ──▶ shared cache ──▶ router ──▶ shard 0 (KernelServer)
                   │ over      │ plan         │ hit           │  hash  shard 1 (KernelServer)
                   ▼           ▼              ▼               │  slot    ⋮ × replicas
              ServerOverloaded concrete    cached result      └─▶ round-robin in slot
              (shed, counted)  backend

A :class:`ClusterServer` runs ``shards × replicas``
:class:`~repro.serve.server.KernelServer` instances behind a
:class:`~repro.serve.router.ShardRouter` that consistent-hashes on the
batching identity ``(kernel, width, spec digest)``, so batchable
traffic keeps landing on the same shard and keeps coalescing there —
sharding multiplies executors and batchers without giving up the
dynamic-batching win.  Everything a single server guarantees
still holds per request, because each shard *is* a single server: the
deadline, retry, backpressure and billing machinery is reused, not
reimplemented.

Cluster-level additions:

* **Shared result cache** — one digest-keyed LRU spanning every shard
  (per-shard caches are disabled); a repeat submission is served at the
  front door no matter which shard or replica computed it first.
* **Admission control** — ``quota`` bounds each tenant's in-flight
  requests; a tenant at its quota is shed with
  :class:`~repro.errors.ServerOverloaded` *before* admission, so one
  hot tenant cannot starve the rest (``cluster_shed_total{reason="quota"}``).
* **Load shedding** — shard backpressure (bounded queues) propagates as
  :class:`~repro.errors.ServerOverloaded` before accepted work is ever
  lost, counted on ``cluster_shed_total{reason="overload"}``.
* **Replicas** — ``replicas > 1`` puts extra servers behind every hash
  slot, round-robined per slot: the capacity knob for hot kernels,
  trading some batch coalescence for parallelism.

Telemetry: per-shard ``cluster_shard_queue_depth`` gauges,
``cluster_requests_total{shard=}`` routed counters,
``cluster_shed_total{reason=}``, ``cluster_cache_hits_total``, plus
every per-request metric and flight record the shards already emit —
all visible on the same ``/metrics`` endpoint, with ``stats()``
aggregating shard snapshots for ``/healthz``.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from threading import Lock
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..errors import ServeError, ServerOverloaded, TransientExecutorError
from ..obs.context import new_trace_context
from ..obs.flight import FlightRecord, FlightRecorder, get_flight_recorder
from ..obs.logsetup import get_logger
from ..obs.registry import get_registry
from ..spec import TABLE1, TechSpec
from .request import ServeRequest, ServeResult
from .router import DEFAULT_VNODES, ShardRouter
from .server import (
    _REQUESTS,
    AutoRouter,
    KernelServer,
    RunBatchFn,
    SpecResolver,
    ignored_option,
)

__all__ = ["ClusterServer"]

_LOG = get_logger("serve.cluster")

_REGISTRY = get_registry()
_SHARD_DEPTH_FAMILY = _REGISTRY.gauge(
    "cluster_shard_queue_depth", "queued requests, by shard")
_ROUTED_FAMILY = _REGISTRY.counter(
    "cluster_requests_total", "requests routed to shards, by shard")
_SHED_FAMILY = _REGISTRY.counter(
    "cluster_shed_total", "requests shed at the cluster front door, by reason")
_CACHE_HITS = _REGISTRY.counter(
    "cluster_cache_hits_total", "front-door shared-result-cache hits")
_SHED = {
    reason: _SHED_FAMILY.labels(reason=reason)
    for reason in ("quota", "overload")
}


class ClusterServer:
    """N sharded :class:`KernelServer` instances behind one ``submit()``.

    ``shards``/``replicas``/``vnodes`` shape the
    :class:`~repro.serve.router.ShardRouter`; ``quota`` is the
    per-tenant in-flight admission bound (``None`` = unlimited);
    ``cache_capacity`` sizes the *shared* result cache (the per-shard
    caches are disabled in favour of it).  Every other knob mirrors
    :class:`KernelServer` and applies per shard — ``queue_limit`` is
    each shard's backpressure bound, and each shard runs one engine
    execution at a time, so total concurrency scales with the shard
    count.  ``workers`` is a deprecated no-op, as on
    :class:`KernelServer`.

    The submit/submit_many/stats/drain surface matches
    :class:`KernelServer`, which is what lets the
    :class:`~repro.serve.client.Client` facade front either
    interchangeably.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        replicas: int = 1,
        quota: Optional[int] = None,
        vnodes: int = DEFAULT_VNODES,
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
        if quota is not None and quota < 1:
            raise ServeError(f"quota must be >= 1 in-flight, got {quota}")
        ignored_option("ClusterServer(workers=)", workers)
        self.router = ShardRouter(shards, replicas=replicas, vnodes=vnodes)
        self.quota = None if quota is None else int(quota)
        self.cache_capacity = int(cache_capacity)
        self.telemetry = bool(telemetry)
        self._flight = flight if flight is not None else get_flight_recorder()
        self._servers: List[KernelServer] = [
            KernelServer(
                max_batch_size=max_batch_size,
                queue_limit=queue_limit,
                retries=retries,
                backoff_s=backoff_s,
                cache_capacity=0,  # the shared front-door cache replaces these
                spec=spec,
                run_batch=run_batch,
                transient=transient,
                telemetry=telemetry,
                flight=self._flight,
            )
            for _ in range(self.router.servers)
        ]
        self._specs = SpecResolver(spec)
        self._auto = AutoRouter()
        self._cache: "OrderedDict[str, ServeResult]" = OrderedDict()
        self._tenant_inflight: Dict[str, int] = {}
        self._draining = False
        self._closed = False
        # Guards the shared cache, tenant counters, and the stats()
        # snapshot against the telemetry HTTP thread (same contract as
        # KernelServer.stats).
        self._lock = Lock()
        self._routed: Dict[int, Any] = {}
        self._depth: Dict[int, Any] = {}

    # -- introspection -------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.router.shards

    @property
    def replicas(self) -> int:
        return self.router.replicas

    @property
    def servers(self) -> Sequence[KernelServer]:
        """The flattened shard×replica server list (read-only view)."""
        return tuple(self._servers)

    @property
    def spec(self) -> TechSpec:
        return self._specs.base

    def describe(self) -> str:
        return (f"ClusterServer({self.router.describe()}, "
                f"quota={self.quota}, cache={self.cache_capacity})")

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "ClusterServer":
        if self._closed:
            raise ServeError("cluster is closed")
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Stop intake, drain every shard, release their pools."""
        if self._closed:
            return
        self._draining = True
        await asyncio.gather(*(server.drain() for server in self._servers))
        self._closed = True
        for shard in range(self.router.shards):
            self._depth_gauge(shard).set(0)

    # -- client API ----------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResult:
        """Serve one request through the cluster (see module docstring).

        Raises the same typed errors a single server does —
        :class:`~repro.errors.ServerOverloaded` additionally covers the
        cluster-level quota shed, always *before* the request is
        accepted, so shedding never loses admitted work.
        """
        if self._draining or self._closed:
            raise ServeError("cluster is draining; not accepting requests")
        tenant = request.tenant or "default"
        if self.quota is not None:
            with self._lock:
                inflight = self._tenant_inflight.get(tenant, 0)
                if inflight >= self.quota:
                    admitted = False
                else:
                    self._tenant_inflight[tenant] = inflight + 1
                    admitted = True
            if not admitted:
                self._shed(request, "quota",
                           f"tenant {tenant!r} at quota "
                           f"({self.quota} in flight); retry later")
        try:
            return await self._submit_admitted(request)
        finally:
            if self.quota is not None:
                with self._lock:
                    remaining = self._tenant_inflight.get(tenant, 1) - 1
                    if remaining <= 0:
                        self._tenant_inflight.pop(tenant, None)
                    else:
                        self._tenant_inflight[tenant] = remaining

    async def _submit_admitted(self, request: ServeRequest) -> ServeResult:
        accepted_at = time.perf_counter() if self.telemetry else 0.0
        # Same ordering contract as KernelServer.submit: resolve the
        # spec and the "auto" backend BEFORE the cache probe, so auto
        # and explicit submissions of identical work share one shared
        # cache entry and one shard-side batch identity.
        spec = self._specs.resolve(request.overrides)
        request = self._auto.resolve(request, spec)
        key = f"{request.digest}:{spec.digest}"
        cached = self._cache_get(key)
        if cached is not None:
            _CACHE_HITS.inc()
            _REQUESTS["cached"].inc()
            trace_id = request.trace_id
            if self.telemetry:
                trace = new_trace_context()
                trace_id = request.trace_id or trace.trace_id
                self._flight.record(FlightRecord(
                    request_id=request.id or trace.request_id,
                    trace_id=trace_id,
                    kernel=request.kernel or request.kind,
                    backend=request.backend, status="cached", cache_hit=True,
                    accepted_at=accepted_at,
                    finished_at=time.perf_counter(), closed=True))
            return cached.for_request(request.id, cached=True,
                                      trace_id=trace_id)

        shard, replica = self.router.pick(
            request.kernel or request.kind, request.width, spec.digest)
        server = self._servers[self.router.server_index(shard, replica)]
        self._routed_counter(shard).inc()
        try:
            result = await server.submit(request)
        except ServerOverloaded:
            _SHED["overload"].inc()
            raise
        finally:
            self._depth_gauge(shard).set(server.queue_depth)
        if not result.cached:
            self._cache_put(key, result)
        return result

    async def submit_many(
        self,
        requests: Sequence[ServeRequest],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ServeResult, BaseException]]:
        """Submit a request mix concurrently, preserving order."""
        return await asyncio.gather(
            *(self.submit(r) for r in requests),
            return_exceptions=return_exceptions,
        )

    # -- internals -----------------------------------------------------------

    def _shed(self, request: ServeRequest, reason: str, message: str) -> None:
        """Reject *request* before admission: count, record, raise."""
        _SHED[reason].inc()
        _REQUESTS["rejected"].inc()
        if self.telemetry:
            trace = new_trace_context()
            now = time.perf_counter()
            flight = FlightRecord(
                request_id=request.id or trace.request_id,
                trace_id=request.trace_id or trace.trace_id,
                kernel=request.kernel or request.kind,
                backend=request.backend, status="rejected", error=message,
                accepted_at=now, finished_at=now, closed=True)
            self._flight.record(flight)
            _LOG.warning("shed (%s): %s", reason, flight.describe())
        raise ServerOverloaded(message)

    def _cache_get(self, key: str) -> Optional[ServeResult]:
        with self._lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
            return result

    def _cache_put(self, key: str, result: ServeResult) -> None:
        if self.cache_capacity < 1:
            return
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)

    def _routed_counter(self, shard: int) -> Any:
        child = self._routed.get(shard)
        if child is None:
            child = _ROUTED_FAMILY.labels(shard=str(shard))
            self._routed[shard] = child
        return child

    def _depth_gauge(self, shard: int) -> Any:
        child = self._depth.get(shard)
        if child is None:
            child = _SHARD_DEPTH_FAMILY.labels(shard=str(shard))
            self._depth[shard] = child
        return child

    # -- telemetry -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregated operational stats (the ``/healthz`` extras).

        One consistent cut of the cluster-level fields under the
        cluster lock, plus each shard's own locked snapshot.
        """
        shard_stats = [server.stats() for server in self._servers]
        with self._lock:
            tenants = dict(self._tenant_inflight)
            cache_entries = len(self._cache)
            draining = self._draining
            closed = self._closed
        return {
            "shards": self.router.shards,
            "replicas": self.router.replicas,
            "servers": len(self._servers),
            "quota": self.quota,
            "tenants_inflight": tenants,
            "cache_entries": cache_entries,
            "queue_depth": sum(s["queue_depth"] for s in shard_stats),
            "inflight_batches": sum(s["inflight_batches"]
                                    for s in shard_stats),
            "workers": sum(s["workers"] for s in shard_stats),
            "telemetry": self.telemetry,
            "draining": draining,
            "closed": closed,
            "shard_stats": shard_stats,
        }
