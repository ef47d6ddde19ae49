"""Flight recorder: a bounded ring buffer of per-request stage timelines.

"Why was this request slow?" needs more than aggregate histograms — it
needs the last N requests' *individual* timelines: how long each one
queued, waited for a free worker, executed, and split, whether it
hit the cache, how often it retried, and how it terminated.  The
serving layer records one :class:`FlightRecord` per completed request
into a :class:`FlightRecorder` (``collections.deque`` ring, oldest
evicted first), so the recent past is always queryable — in-process via
:func:`get_flight_recorder`, over HTTP via ``/flight?last=N``
(:mod:`repro.obs.httpexport`), and post-mortem on
``DeadlineExceeded`` / ``ServerOverloaded`` failures, whose records are
also logged for debugging.

Recording is cheap by construction: a record is a small mutable
dataclass filled with ``time.perf_counter`` deltas as the request moves
through the pipeline, and ``deque.append`` with ``maxlen`` is O(1).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from ..errors import ObservabilityError

__all__ = [
    "FlightRecord",
    "FlightRecorder",
    "get_flight_recorder",
]

#: Terminal statuses a flight record may carry.
RECORD_STATUSES = ("pending", "ok", "cached", "rejected", "deadline", "error")


@dataclass(slots=True)
class FlightRecord:
    """One request's journey through the serving pipeline.

    ``stages`` maps stage name -> seconds, in pipeline order (typically
    ``queue_wait`` / ``batch_wait`` / ``execute`` / ``split``); absent
    stages were never reached.  ``accepted_at`` / ``finished_at`` are
    ``time.perf_counter`` values, so only their difference
    (:attr:`wall_s`) is meaningful.
    """

    request_id: str
    trace_id: str = ""
    kernel: str = ""
    backend: str = ""
    status: str = "pending"
    cache_hit: bool = False
    retries: int = 0
    batch_requests: int = 0
    batch_words: int = 0
    accepted_at: float = 0.0
    finished_at: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    closed: bool = False

    @property
    def wall_s(self) -> float:
        """Accepted-to-finished wall seconds (0.0 while pending)."""
        if self.finished_at <= self.accepted_at:
            return 0.0
        return self.finished_at - self.accepted_at

    def close(self, status: str, *, error: str = "", at: float = 0.0) -> bool:
        """Mark the record terminal exactly once.

        Returns ``False`` (and changes nothing) if already closed — the
        pipeline has racing finish paths (deadline on the submitter side
        vs. batch completion on the worker side) and the first one wins.
        """
        if self.closed:
            return False
        if status not in RECORD_STATUSES:
            raise ObservabilityError(
                f"unknown flight status {status!r}; one of {RECORD_STATUSES}"
            )
        self.status = status
        self.error = error
        if at:
            self.finished_at = at
        self.closed = True
        return True

    def as_dict(self) -> Dict[str, Any]:
        """Plain-data view for JSON export (perf-counter fields folded
        into ``wall_s``)."""
        out: Dict[str, Any] = {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "kernel": self.kernel,
            "backend": self.backend,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "retries": self.retries,
            "batch_requests": self.batch_requests,
            "batch_words": self.batch_words,
            "wall_s": self.wall_s,
            "stages": dict(self.stages),
        }
        if self.error:
            out["error"] = self.error
        return out

    def describe(self) -> str:
        """One debugging line: id, status, wall, per-stage breakdown."""
        stages = " ".join(
            f"{name}={seconds * 1e6:.0f}us"
            for name, seconds in self.stages.items()
        )
        tail = f" error={self.error!r}" if self.error else ""
        return (
            f"flight {self.request_id or '?'} [{self.status}] "
            f"kernel={self.kernel or '-'} wall={self.wall_s * 1e6:.0f}us "
            f"retries={self.retries} batch={self.batch_requests}"
            f"{' ' + stages if stages else ''}{tail}"
        )


class FlightRecorder:
    """Bounded, thread-safe ring buffer of completed flight records."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._records: Deque[FlightRecord] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._records)

    def record(self, record: FlightRecord) -> None:
        """Append one terminal record (oldest evicted beyond capacity).

        Lock-free: ``deque.append`` with ``maxlen`` is a single atomic
        operation under the GIL (this is the per-request hot path).
        Readers still lock, but only to take a consistent snapshot.
        """
        self._records.append(record)

    def last(self, n: Optional[int] = None) -> List[FlightRecord]:
        """The most recent *n* records (all retained ones by default),
        oldest first."""
        with self._lock:
            records = list(self._records)
        if n is None or n >= len(records):
            return records
        if n <= 0:
            return []
        return records[-n:]

    def for_request(self, request_id: str) -> List[FlightRecord]:
        """Every retained record carrying *request_id*, oldest first."""
        with self._lock:
            return [r for r in self._records if r.request_id == request_id]

    def with_status(self, status: str) -> List[FlightRecord]:
        """Every retained record that terminated with *status*."""
        with self._lock:
            return [r for r in self._records if r.status == status]

    def as_dicts(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """JSON-ready dumps of the most recent records, oldest first."""
        return [record.as_dict() for record in self.last(last)]

    def clear(self) -> None:
        """Drop every retained record."""
        with self._lock:
            self._records.clear()


#: The process-wide recorder the serving layer writes to by default.
FLIGHT = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide :class:`FlightRecorder`."""
    return FLIGHT
