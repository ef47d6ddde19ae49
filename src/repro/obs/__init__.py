"""Observability layer: metrics, tracing, flight records, exporters.

This package is the measurement substrate for the whole simulator:

* :mod:`repro.obs.registry` — process-wide counters / gauges /
  histograms / streaming-quantile summaries, thread-safe and cheap
  enough to stay on in hot loops;
* :mod:`repro.obs.tracing` — nestable wall-clock spans that also carry
  simulated energy/latency (disabled by default, free when off);
* :mod:`repro.obs.context` — request-scoped ``trace_id``/``request_id``
  propagation over :mod:`contextvars` (survives batching and worker
  pools);
* :mod:`repro.obs.quantiles` — P² streaming quantile digests (live
  p50/p95/p99 with no buffered samples);
* :mod:`repro.obs.flight` — the flight recorder: a bounded ring of
  per-request stage timelines for "why was this request slow";
* :mod:`repro.obs.slo` — declared latency/error objectives with
  error-budget burn tracking;
* :mod:`repro.obs.export` — JSON-lines, Prometheus-text and console
  exporters;
* :mod:`repro.obs.httpexport` — the live ``/metrics`` + ``/healthz`` +
  ``/flight`` asyncio HTTP endpoint (stdlib only) and the ``repro top``
  client helpers, imported on first access (it pulls in ``urllib`` and
  ``http.client``, which only ``metrics_port=`` and ``repro top`` use);
* :mod:`repro.obs.bench` — the ``BENCH_<name>.json`` benchmark
  telemetry harness;
* :mod:`repro.obs.logsetup` — stdlib logging configuration
  (``NullHandler`` on the ``repro`` root logger).

Quick start::

    from repro.obs import get_registry, get_tracer

    pulses = get_registry().counter("my_pulses_total")
    latency = get_registry().summary("my_latency_seconds")
    tracer = get_tracer()
    tracer.enable()
    with tracer.span("phase") as sp:
        pulses.inc(8)
        latency.observe(1.2e-4)
        sp.add_sim(energy=8e-15, latency=8e-10)
    print(tracer.render())
"""

import importlib
from typing import Any, List

from .registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    get_registry,
)
from .tracing import NULL_SPAN, Span, Tracer, get_tracer
from .context import (
    TraceContext,
    bind_trace,
    current_trace,
    new_request_id,
    new_trace_id,
    trace_context,
    unbind_trace,
)
from .quantiles import DEFAULT_QUANTILES, P2Quantile, QuantileDigest
from .flight import FlightRecord, FlightRecorder, get_flight_recorder
from .slo import SLO, SLOTracker
from .logsetup import configure_logging, get_logger
from . import (
    bench,
    context,
    export,
    flight,
    logsetup,
    quantiles,
    registry,
    slo,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "get_registry",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "TraceContext",
    "current_trace",
    "bind_trace",
    "unbind_trace",
    "trace_context",
    "new_trace_id",
    "new_request_id",
    "DEFAULT_QUANTILES",
    "P2Quantile",
    "QuantileDigest",
    "FlightRecord",
    "FlightRecorder",
    "get_flight_recorder",
    "SLO",
    "SLOTracker",
    "TelemetryHTTPServer",
    "configure_logging",
    "get_logger",
    "bench",
    "context",
    "export",
    "flight",
    "httpexport",
    "logsetup",
    "quantiles",
    "registry",
    "slo",
    "tracing",
]


def __getattr__(name: str) -> Any:
    if name in ("httpexport", "TelemetryHTTPServer"):
        module = importlib.import_module(".httpexport", __name__)
        return module if name == "httpexport" else module.TelemetryHTTPServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | {"httpexport", "TelemetryHTTPServer"})
