"""The unified client facade: one surface for every serving transport.

``api.connect(target=...)`` (this module's :func:`connect`) returns a
:class:`Client` — a synchronous protocol object with
``submit() / submit_many() / stats() / close()`` — regardless of what
actually serves the requests:

``target="local"``
    An in-process :class:`~repro.serve.server.KernelServer` (or, when
    ``shards``/``replicas``/``quota`` say so, a
    :class:`~repro.serve.cluster.ClusterServer`) running on a private
    background event loop owned by the client.
``target="cluster"``
    Always the sharded :class:`ClusterServer`, even at 1 shard.
``target="jsonl"``
    The full JSONL wire protocol: a ``serve_jsonl`` loop on a
    background thread, spoken to over an OS pipe pair exactly as
    ``repro serve`` would be over stdin/stdout — results demuxed by
    request id, error records mapped back to the typed serve errors.
``target=<server instance>``
    Wrap an existing (not yet started) ``KernelServer``/``ClusterServer``.

Why synchronous: callers that already live in an event loop should hold
the server object and ``await server.submit(...)`` directly; the client
facade exists for everything else — scripts, tests, benchmarks, REPLs —
where "connect, submit, read the result" should be three plain calls.
Clients are context managers; ``close()`` drains the underlying server
so accepted work is never abandoned.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
from typing import (
    Any,
    Dict,
    IO,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from ..errors import DeadlineExceeded, ServeError, ServerOverloaded
from .cluster import ClusterServer
from .request import ServeRequest, ServeResult, Words
from .server import KernelServer

__all__ = ["Client", "JsonlClient", "ServerClient", "connect"]

#: Either server core the facade can front in-process.
AnyServer = Union[KernelServer, ClusterServer]


@runtime_checkable
class Client(Protocol):
    """What every serving transport looks like to a caller.

    ``submit`` returns the :class:`ServeResult` or raises the same
    typed errors the servers raise (:class:`~repro.errors.ServerOverloaded`,
    :class:`~repro.errors.DeadlineExceeded`, :class:`~repro.errors.ServeError`);
    ``submit_many`` preserves order and can trap per-slot exceptions;
    ``stats`` exposes the transport's operational snapshot; ``close``
    drains.  All implementations are reusable as context managers.
    """

    def submit(self, request: ServeRequest) -> ServeResult:
        ...

    def submit_many(
        self,
        requests: Sequence[ServeRequest],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ServeResult, BaseException]]:
        ...

    def stats(self) -> Dict[str, Any]:
        ...

    def close(self) -> None:
        ...

    def __enter__(self) -> "Client":
        ...

    def __exit__(self, *exc: object) -> None:
        ...


class ServerClient:
    """Synchronous facade over an in-process server core.

    Owns a private event loop on a daemon thread; the server is entered
    on that loop at construction and drained on :meth:`close`.  Calls
    are plain blocking functions — safe from any thread *except* the
    client's own loop thread (there is no such path in practice).
    """

    def __init__(self, server: AnyServer) -> None:
        self._server = server
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client",
            daemon=True)
        self._thread.start()
        self._closed = False
        try:
            self._call(server.__aenter__())
        except BaseException:
            self._stop_loop()
            raise

    @property
    def server(self) -> AnyServer:
        """The wrapped server core (for async callers and tests)."""
        return self._server

    def _call(self, coroutine: Any) -> Any:
        if self._closed:
            coroutine.close()  # dispose cleanly: it will never be awaited
            raise ServeError("client is closed")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def submit(self, request: ServeRequest) -> ServeResult:
        result: ServeResult = self._call(self._server.submit(request))
        return result

    def submit_many(
        self,
        requests: Sequence[ServeRequest],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ServeResult, BaseException]]:
        results: List[Union[ServeResult, BaseException]] = self._call(
            self._server.submit_many(
                requests, return_exceptions=return_exceptions))
        return results

    def stats(self) -> Dict[str, Any]:
        stats = dict(self._server.stats())
        stats["transport"] = ("cluster" if isinstance(self._server,
                                                      ClusterServer)
                              else "local")
        return stats

    def close(self) -> None:
        """Drain the server, then tear the loop down.  Idempotent."""
        if self._closed:
            return
        try:
            self._call(self._server.drain())
        finally:
            self._closed = True
            self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class JsonlClient:
    """Speak the ``repro serve`` wire protocol over an in-process pipe.

    A real ``serve_jsonl`` loop runs on a background thread reading one
    pipe and writing another — byte-for-byte the stdin/stdout protocol,
    including completion-order responses and per-line error records.
    The client demuxes responses by a wire-level request id it mints
    per submission (the caller's own ``id`` is restored on the way
    out), and maps error records back to the typed serve errors.

    Results are rebuilt from the wire record, so wire lossiness shows
    through honestly: ``spec_digest`` comes back truncated to 12 hex
    chars and per-word billing floats ride JSON (still bit-exact —
    ``json`` round-trips doubles).
    """

    def __init__(self, **server_options: Any) -> None:
        from .frontend import serve_jsonl

        request_rd, request_wr = os.pipe()
        response_rd, response_wr = os.pipe()
        self._requests: IO[str] = os.fdopen(request_wr, "w")
        self._responses: IO[str] = os.fdopen(response_rd, "r")
        server_in: IO[str] = os.fdopen(request_rd, "r")
        server_out: IO[str] = os.fdopen(response_wr, "w")
        self._wire_ids = itertools.count(1)
        self._pending: Dict[str, "ResponseSlot"] = {}
        self._tally: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False

        def run() -> None:
            try:
                serve_jsonl(server_in, server_out, **server_options)
            finally:
                # Unblocks the reader thread (EOF) even if the serve
                # loop died; the reader then fails any pending waits.
                server_out.close()
                server_in.close()

        self._server_thread = threading.Thread(
            target=run, name="repro-jsonl-server", daemon=True)
        self._reader_thread = threading.Thread(
            target=self._read_loop, name="repro-jsonl-reader", daemon=True)
        self._server_thread.start()
        self._reader_thread.start()

    # -- wire plumbing -------------------------------------------------------

    def _read_loop(self) -> None:
        for line in self._responses:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            wire_id = str(record.get("id", ""))
            with self._lock:
                slot = self._pending.pop(wire_id, None)
                status = str(record.get("status", "error"))
                self._tally[status] = self._tally.get(status, 0) + 1
            if slot is not None:
                slot.resolve(record)
        # EOF: the server is gone; nothing pending can complete.
        with self._lock:
            orphans = list(self._pending.values())
            self._pending.clear()
        for slot in orphans:
            slot.fail(ServeError("jsonl server closed before responding"))

    def _post(self, request: ServeRequest) -> "ResponseSlot":
        # Encode first and register the slot only once its line is
        # written: a request that cannot be encoded leaves nothing
        # pending.  The reader pops slots under the same lock, so a
        # response cannot overtake its registration.
        wire_id = f"w{next(self._wire_ids)}"
        line = json.dumps(_request_to_wire(request, wire_id)) + "\n"
        slot = ResponseSlot(request)
        with self._lock:
            if self._closed:
                raise ServeError("client is closed")
            self._requests.write(line)
            self._requests.flush()
            self._pending[wire_id] = slot
        return slot

    # -- Client protocol -----------------------------------------------------

    def submit(self, request: ServeRequest) -> ServeResult:
        return self._post(request).result()

    def submit_many(
        self,
        requests: Sequence[ServeRequest],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[ServeResult, BaseException]]:
        slots = [self._post(request) for request in requests]
        results: List[Union[ServeResult, BaseException]] = []
        for slot in slots:
            try:
                results.append(slot.result())
            except Exception as exc:  # noqa: BLE001 - per-slot policy
                if not return_exceptions:
                    raise
                results.append(exc)
        return results

    def stats(self) -> Dict[str, Any]:
        """Client-side tally (the wire carries no stats op)."""
        with self._lock:
            counts = dict(self._tally)
            pending = len(self._pending)
        return {
            "transport": "jsonl",
            "counts": counts,
            "requests": sum(counts.values()),
            "pending": pending,
            "closed": self._closed,
        }

    def close(self) -> None:
        """EOF the request pipe; the serve loop drains and exits."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._requests.close()
        self._server_thread.join()
        self._reader_thread.join()
        self._responses.close()

    def __enter__(self) -> "JsonlClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ResponseSlot:
    """One in-flight JSONL submission awaiting its response record."""

    def __init__(self, request: ServeRequest) -> None:
        self._request = request
        self._event = threading.Event()
        self._record: Optional[Mapping[str, Any]] = None
        self._error: Optional[BaseException] = None

    def resolve(self, record: Mapping[str, Any]) -> None:
        self._record = record
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self) -> ServeResult:
        self._event.wait()
        if self._error is not None:
            raise self._error
        assert self._record is not None
        return _result_from_wire(self._record, self._request)


def _request_to_wire(request: ServeRequest, wire_id: str) -> Dict[str, Any]:
    """Flatten a request for the JSONL wire, under a minted wire id."""
    payload: Dict[str, Any] = {
        "id": wire_id,
        "op": request.kind,
        "width": request.width,
        "backend": request.backend,
    }
    if request.kernel:
        payload["kernel"] = request.kernel
    if request.operands:
        payload["operands"] = {
            name: [int(value) for value in values]
            for name, values in request.operands.items()
        }
    if request.params:
        payload["params"] = dict(request.params)
    if request.overrides:
        payload["overrides"] = dict(request.overrides)
    if request.deadline_s is not None:
        payload["deadline_s"] = request.deadline_s
    if request.trace_id:
        payload["trace_id"] = request.trace_id
    if request.tenant:
        payload["tenant"] = request.tenant
    return payload


def _result_from_wire(
    record: Mapping[str, Any], request: ServeRequest
) -> ServeResult:
    """Rebuild a :class:`ServeResult` from one wire record.

    Error records raise the same typed exception the in-process path
    would have raised, re-addressed with the caller's own request id.
    Output word lists become read-only uint64 arrays, as the servers
    return them.
    """
    status = str(record.get("status", "error"))
    if status != "ok":
        message = str(record.get("error", "unknown serve failure"))
        if status == "rejected":
            raise ServerOverloaded(message)
        if status == "deadline":
            raise DeadlineExceeded(message)
        raise ServeError(message)
    outputs: Dict[str, Words] = {}
    for name, words in dict(record.get("outputs", {})).items():
        array = np.array(words, dtype=np.uint64)
        array.flags.writeable = False
        outputs[str(name)] = array
    metrics: Dict[str, float] = {
        str(name): float(value)
        for name, value in dict(record.get("metrics", {})).items()
    }
    return ServeResult(
        id=request.id,
        kind=str(record.get("op", request.kind)),
        kernel=str(record.get("kernel", request.kernel)),
        backend=str(record.get("backend", request.backend)),
        words=int(record.get("words", 0)),
        outputs=outputs,
        metrics=metrics,
        energy=float(record.get("energy_j", 0.0)),
        latency=float(record.get("latency_s", 0.0)),
        spec_digest=str(record.get("spec_digest", "")),
        batch_words=int(record.get("batch_words", 0)),
        batch_requests=int(record.get("batch_requests", 0)),
        cached=bool(record.get("cached", False)),
        trace_id=str(record.get("trace_id", "")),
    )


def connect(
    target: Union[str, KernelServer, ClusterServer] = "local",
    *,
    shards: int = 1,
    replicas: int = 1,
    quota: Optional[int] = None,
    **server_options: Any,
) -> Client:
    """Open a :class:`Client` onto a serving target (see module docstring).

    ``target`` is ``"local"``, ``"cluster"``, ``"jsonl"``, or an
    existing server instance (which must not have been started yet and
    takes no further options).  ``shards``/``replicas``/``quota``
    select and shape the cluster layer — ``target="local"`` upgrades to
    a cluster automatically when any of them is non-default; all other
    keyword options go to the underlying server(s) verbatim
    (``max_batch_size``, ``queue_limit``, ``spec``, ...).
    """
    if isinstance(target, (KernelServer, ClusterServer)):
        if server_options or shards != 1 or replicas != 1 or quota is not None:
            raise ServeError(
                "pass either a server instance or server options, not both")
        return ServerClient(target)
    clustered = shards != 1 or replicas != 1 or quota is not None
    if target == "local" and not clustered:
        return ServerClient(KernelServer(**server_options))
    if target in ("local", "cluster"):
        return ServerClient(ClusterServer(
            shards=shards, replicas=replicas, quota=quota, **server_options))
    if target == "jsonl":
        if clustered:
            server_options.update(
                shards=shards, replicas=replicas, quota=quota)
        return JsonlClient(**server_options)
    raise ServeError(
        f"unknown connect target {target!r}; expected 'local', 'cluster', "
        "'jsonl', or a server instance")
