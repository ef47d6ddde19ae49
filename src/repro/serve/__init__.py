"""repro.serve — the async batched serving layer, now sharded.

The request-serving front door the ROADMAP's "heavy traffic" north star
asks for: an :mod:`asyncio` job server that accepts kernel-execution
and Table 2 evaluation requests, coalesces compatible requests into
single engine functional batches (work-conserving batching: the
batcher waits for a free worker, never for a timer, then takes up to
``max_batch_size`` queued requests), runs them on a bounded worker
pool, and serves repeat submissions from a digest-keyed result
cache — and, since PR 10, a sharded cluster of those servers behind a
consistent-hash router, fronted by one uniform client facade.

**The way in is** :func:`repro.api.connect`::

    from repro import api

    with api.connect(shards=4, quota=64) as client:
        result = client.submit(api.request(
            kernel="adder", width=8,
            operands={"a": [1, 2], "b": [3, 4]}))
        print(result.outputs["sum"])   # [4 6], a read-only uint64 array

One ``Client`` protocol (``submit / submit_many / stats / close``)
fronts every transport: an in-process
:class:`~repro.serve.server.KernelServer`, the sharded
:class:`~repro.serve.cluster.ClusterServer`
(consistent-hash routing on ``(kernel, width, spec digest)`` so
batchable traffic coalesces per shard, replicas per hash slot, a shared
result cache, per-tenant quotas, load shedding), or the JSONL wire
protocol behind ``repro serve``.  Async callers hold the server object
itself and ``await server.submit(...)`` inside ``async with``.

Stable protocol exports: :class:`ServeRequest` / :class:`ServeResult`
(:func:`make_request` builds them; JSONL codecs
:func:`request_from_dict` / :func:`result_to_dict`), the
:class:`~repro.serve.client.Client` protocol and :func:`connect`
factory, and :class:`ServeStats`.  Servers are built through
:func:`repro.api.connect` / :func:`repro.api.serve`; for advanced
in-process use import them from their submodules
(``repro.serve.server.KernelServer``,
``repro.serve.cluster.ClusterServer``,
``repro.serve.frontend.serve_jsonl``).

Telemetry: every request gets a ``trace_id``/``request_id`` that
survives batching into the engine spans, a per-request flight record
with stage timings (:mod:`repro.obs.flight`), live per-kernel
p50/p95/p99 latency (``serve_request_latency_seconds``), plus
``serve_requests_total{status=}``, ``serve_request_wall_seconds``,
``serve_batch_size`` / ``serve_batch_words`` histograms,
``serve_queue_depth`` gauge, ``serve_retries_total``, per-batch
``serve/<kernel>`` spans linking every member request id, and — at the
cluster layer — ``cluster_requests_total{shard=}``,
``cluster_shard_queue_depth{shard=}``, ``cluster_shed_total{reason=}``
and ``cluster_cache_hits_total``.  A live ``/metrics`` + ``/healthz``
+ ``/flight`` endpoint mounts alongside the JSONL front end via
``metrics_port`` (the ``repro serve --metrics-port`` flag; watch it
with ``repro top``).
"""

from .client import Client, connect
from .frontend import ServeStats
from .request import (
    REQUEST_KINDS,
    SERVE_BACKENDS,
    ServeRequest,
    ServeResult,
    make_request,
    request_from_dict,
    result_to_dict,
)
from .server import RunBatchFn

__all__ = [
    "Client",
    "REQUEST_KINDS",
    "RunBatchFn",
    "SERVE_BACKENDS",
    "ServeRequest",
    "ServeResult",
    "ServeStats",
    "connect",
    "make_request",
    "request_from_dict",
    "result_to_dict",
]
