"""Scriptable JSONL front end for the serving layer (``repro serve``).

One request per input line, one JSON result per output line::

    $ printf '%s\n' \
        '{"id":"a","op":"kernel","kernel":"adder","width":8,"operands":{"a":[1,2],"b":[3,4]}}' \
        '{"id":"e","op":"evaluate"}' \
      | python -m repro serve
    {"id": "a", "status": "ok", ...}
    {"id": "e", "status": "ok", ...}

Results stream out in *completion* order (batching reorders), so every
record echoes its request ``id``.  Every line gets exactly one record:
any failure while decoding, serving or encoding it becomes
``{"id": ..., "status": "rejected" | "deadline" | "error", "error": ...}``
rather than crashing the loop, which is what makes an overload burst
observable without losing accepted requests.  Output words travel as
integer lists.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, IO, Mapping, Optional, Union

from ..errors import DeadlineExceeded, ReproError, ServeError, ServerOverloaded
from ..obs.logsetup import get_logger
from .cluster import ClusterServer
from .request import request_from_dict, result_to_dict
from .server import KernelServer

if TYPE_CHECKING:
    from ..obs.httpexport import TelemetryHTTPServer

__all__ = ["ServeStats", "serve_jsonl"]

#: Either server core the frontend can pump requests into.
AnyServer = Union[KernelServer, ClusterServer]

_LOG = get_logger("serve.frontend")


@dataclass
class ServeStats:
    """Terminal-status tally of one ``serve_jsonl`` run."""

    counts: Dict[str, int] = field(default_factory=dict)

    def bump(self, status: str) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"served {self.total} requests ({parts or 'none'})"


def _error_record(request_id: Optional[str], exc: BaseException) -> Dict[str, Any]:
    if isinstance(exc, ServerOverloaded):
        status = "rejected"
    elif isinstance(exc, DeadlineExceeded):
        status = "deadline"
    else:
        status = "error"
    return {"id": request_id, "status": status, "error": str(exc)}


async def _pump(
    in_stream: IO[str],
    out_stream: IO[str],
    server: AnyServer,
    stats: ServeStats,
    metrics_port: Optional[int] = None,
) -> None:
    loop = asyncio.get_running_loop()
    telemetry: Optional[TelemetryHTTPServer] = None
    if metrics_port is not None:
        # Imported here: urllib and http.client add start-up time to
        # every serve process, and only a metrics endpoint needs them.
        from ..obs import httpexport

        telemetry = httpexport.TelemetryHTTPServer(
            port=metrics_port, health=server.stats)
        await telemetry.start()
        _LOG.info("metrics endpoint: %s/metrics", telemetry.url)
    lock = asyncio.Lock()
    tasks = []

    async def emit(text: str) -> None:
        async with lock:
            out_stream.write(text + "\n")
            out_stream.flush()

    async def handle(line: str) -> None:
        # Every line gets exactly one record: whatever fails while
        # decoding, serving or encoding it becomes its error record, so
        # a caller waiting on its id never waits forever.
        request_id: Optional[str] = None
        try:
            payload = json.loads(line)
            if isinstance(payload, Mapping) and payload.get("id"):
                # Echo the caller's id even when validation rejects the
                # request — error records must stay attributable.
                request_id = str(payload["id"])
            request = request_from_dict(payload)
            request_id = request.id or None
            result = await server.submit(request)
            text = json.dumps(result_to_dict(result))
            status = "cached" if result.cached else "ok"
        except Exception as exc:  # noqa: BLE001 - one record per line
            if not isinstance(exc, (ReproError, ValueError)):
                _LOG.error("request %s failed unexpectedly", request_id,
                           exc_info=exc)
            record = _error_record(request_id, exc)
            text = json.dumps(record)
            status = str(record["status"])
        stats.bump(status)
        await emit(text)

    try:
        async with server:
            while True:
                line = await loop.run_in_executor(None, in_stream.readline)
                if not line:
                    break
                if not line.strip():
                    continue
                tasks.append(loop.create_task(handle(line)))
            if tasks:
                await asyncio.gather(*tasks)
    finally:
        if telemetry is not None:
            await telemetry.stop()


def serve_jsonl(
    in_stream: IO[str],
    out_stream: IO[str],
    *,
    server: Optional[AnyServer] = None,
    metrics_port: Optional[int] = None,
    shards: int = 1,
    replicas: int = 1,
    quota: Optional[int] = None,
    **server_options: Any,
) -> ServeStats:
    """Serve newline-delimited JSON requests until EOF, then drain.

    Lines are submitted as they are read, and the server's batcher is
    work-conserving: requests read while every worker is busy coalesce
    into one batch, and a lone request on an idle server runs at once.
    Pass an existing *server* (a
    :class:`~repro.serve.server.KernelServer` or
    :class:`~repro.serve.cluster.ClusterServer`), or server keyword
    options (``max_batch_size``, ``queue_limit``, ``workers``,
    ``spec``, ...) — with ``shards``/``replicas``/``quota`` at
    non-defaults the loop fronts a sharded :class:`ClusterServer`
    instead of a single server.  With *metrics_port* a
    :class:`~repro.obs.httpexport.TelemetryHTTPServer` runs alongside
    for the duration, exposing ``/metrics`` + ``/healthz`` + ``/flight``
    (``0`` = any free port).  Returns the status tally.
    """
    clustered = shards != 1 or replicas != 1 or quota is not None
    if server is not None and (server_options or clustered):
        raise ServeError("pass either server= or server options, not both")
    stats = ServeStats()
    if server is not None:
        instance: AnyServer = server
    elif clustered:
        instance = ClusterServer(shards=shards, replicas=replicas,
                                 quota=quota, **server_options)
    else:
        instance = KernelServer(**server_options)
    asyncio.run(_pump(in_stream, out_stream, instance, stats,
                      metrics_port=metrics_port))
    return stats
