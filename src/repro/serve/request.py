"""Serving protocol types: requests, results, digests, JSON codecs.

A :class:`ServeRequest` describes one unit of work the server accepts:

``kernel``
    Execute a built-in engine kernel (resolved through
    :func:`repro.engine.resolve_kernel`) over an operand word batch on
    one of the engine backends.  Compatible kernel requests — same
    kernel, width, backend, spec digest, and operand keys — coalesce
    into a single engine functional batch.
``evaluate``
    Re-run the full Table 2 evaluation (optionally under per-request
    :meth:`~repro.spec.TechSpec.derive` overrides) and return its
    metrics; identical evaluations dedupe within a batch and
    across the digest-keyed result cache.

Identity is content-addressed: :attr:`ServeRequest.digest` is a SHA-256
over the *semantic* fields only (not the caller's id, deadline, trace
id or tenant), and it keys the server's result cache so repeat
submissions are served without re-execution.  The hash covers a
canonical JSON header (kind, kernel, width, backend, sorted operand
names, params, spec overrides), then each operand in name order as its
word count and its words as fixed-width little-endian uint64 bytes.  An
operand that does not fit that form (a negative word, one of ``2**64``
or more, a non-integer) is hashed as a separately tagged canonical
JSON encoding instead, so the digest never raises and never equates two
different payloads.  It is computed once per request, on first use,
from the same memoised read-only word arrays
(:meth:`ServeRequest.operand_array`) the server coalesces into engine
batches.
"""

from __future__ import annotations

import array
import hashlib
import json
import operator
import struct
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..engine import BACKENDS, CompiledKernel
from ..errors import EngineError, ServeError

__all__ = [
    "REQUEST_KINDS",
    "SERVE_BACKENDS",
    "ServeRequest",
    "ServeResult",
    "make_request",
    "request_from_dict",
    "result_to_dict",
]

#: Accepted values of :attr:`ServeRequest.kind`.
REQUEST_KINDS: Tuple[str, ...] = ("kernel", "evaluate")

#: Accepted values of :attr:`ServeRequest.backend`: every engine
#: backend plus ``"auto"`` — let the server's cached offload plan
#: (:mod:`repro.analysis.planner`) pick the backend per request.
SERVE_BACKENDS: Tuple[str, ...] = tuple(BACKENDS) + ("auto",)


#: One output word group: a read-only uint64 vector.
Words = npt.NDArray[np.uint64]

#: Operand values that ``array.array`` would read as raw memory.
_BUFFERS = (str, bytes, bytearray, memoryview)


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _words(values: Any) -> Optional[np.ndarray]:
    """*values* as a read-only uint64 vector, or ``None`` when they are
    not a flat run of integers in ``[0, 2**64)``."""
    words: np.ndarray
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "biu":
            return None
        if values.dtype.kind == "i" and values.size and values.min() < 0:
            return None
        words = values.astype(np.uint64)
    elif isinstance(values, _BUFFERS):
        return None
    else:
        # array("Q") accepts exactly the integers (via __index__) that
        # fit 64 unsigned bits; floats and strings raise instead of
        # being silently truncated or parsed.
        try:
            words = np.frombuffer(array.array("Q", values), dtype=np.uint64)
        except (TypeError, OverflowError, ValueError):
            return None
    words.flags.writeable = False
    return words


def _canonical_value(value: Any) -> Any:
    """JSON form of an operand the fixed-width encoding cannot hold:
    integers stay integers, sequences become lists, anything else
    becomes ``{type name: repr}``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, Sequence) and not isinstance(value, _BUFFERS):
        return [_canonical_value(item) for item in value]
    try:
        return operator.index(value)
    except TypeError:
        return {type(value).__name__: repr(value)}


def _word_error(name: str, values: Any) -> EngineError:
    """Name the first word of operand *name* that is not an integer in
    ``[0, 2**64)``."""
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if isinstance(items, Sequence) and not isinstance(items, _BUFFERS):
        for index, value in enumerate(items):
            try:
                number = operator.index(value)
            except TypeError:
                return EngineError(
                    f"operand {name!r} word {index} is "
                    f"{type(value).__name__} ({value!r}); words must be "
                    "integers")
            if number < 0:
                return EngineError(
                    f"operand {name!r} word {index} is negative ({number}); "
                    "words must be non-negative")
            if number >> 64:
                return EngineError(
                    f"operand {name!r} word {index} = {number} does not "
                    "fit in 64 bits")
    return EngineError(
        f"operand {name!r} must be a flat sequence of integer words")


@dataclass(frozen=True)
class ServeRequest:
    """One unit of serving work (see the module docstring).

    ``operands`` maps word-group names to integer word tuples (kernel
    requests); ``params`` carries evaluation options (``dna_packing``);
    ``overrides`` are dotted :meth:`~repro.spec.TechSpec.derive` paths
    applied per request; ``deadline_s`` is the caller's total time
    budget measured from submission (``None`` = no deadline);
    ``trace_id`` is the caller's distributed-trace identity — purely
    observational, so (like ``id`` and ``deadline_s``) it is excluded
    from :attr:`digest` and a fresh one is minted server-side when the
    caller sends none.  ``tenant`` names the submitting principal for
    the cluster layer's admission control (quotas); like ``id`` it is
    attribution, not content, so it is excluded from :attr:`digest`
    (two tenants asking for the same work share one cache entry) and
    from :meth:`batch_key` (their requests coalesce; billing is split
    per request regardless).
    """

    id: str
    kind: str = "kernel"
    kernel: str = ""
    width: int = 32
    operands: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    backend: str = "functional"
    params: Mapping[str, Any] = field(default_factory=dict)
    overrides: Mapping[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None
    trace_id: str = ""
    tenant: str = ""
    # Memos, filled on first use; replace() starts a fresh pair.
    _digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False)
    _arrays: Dict[str, Optional[np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ServeError(
                f"request kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )
        if self.kind == "kernel":
            if not self.kernel:
                raise ServeError("kernel requests need a kernel name")
            if self.backend not in SERVE_BACKENDS:
                raise ServeError(
                    f"backend must be one of {SERVE_BACKENDS}, "
                    f"got {self.backend!r}"
                )
            # "auto" without operands resolves to the analytical backend
            # server-side, so it shares analytical's operand exemption.
            if self.backend not in ("analytical", "auto") and not self.operands:
                raise ServeError(
                    f"{self.backend} kernel requests need operands"
                )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    @property
    def words(self) -> int:
        """Word count of the operand batch (1 for evaluate requests)."""
        if self.kind != "kernel" or not self.operands:
            return 1
        return max(len(values) for values in self.operands.values())

    @property
    def digest(self) -> str:
        """Content digest — the result-cache key (id/deadline excluded).

        Computed on first use and memoised; see the module docstring
        for the encoding.
        """
        digest = self._digest
        if digest is None:
            header = _canonical({
                "kind": self.kind,
                "kernel": self.kernel.lower(),
                "width": self.width,
                "backend": self.backend,
                "operands": sorted(self.operands),
                "params": {k: self.params[k] for k in sorted(self.params)},
                "overrides": {
                    k: self.overrides[k] for k in sorted(self.overrides)},
            }).encode()
            sha = hashlib.sha256(struct.pack("<Q", len(header)) + header)
            for name in sorted(self.operands):
                words = self._operand_words(name)
                if words is not None:
                    sha.update(b"w" + struct.pack("<Q", words.size))
                    sha.update(words.astype("<u8", copy=False).tobytes())
                else:
                    blob = _canonical(
                        _canonical_value(self.operands[name])).encode()
                    sha.update(b"j" + struct.pack("<Q", len(blob)) + blob)
            digest = sha.hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def _operand_words(self, name: str) -> Optional[np.ndarray]:
        if name not in self._arrays:
            self._arrays[name] = _words(self.operands[name])
        return self._arrays[name]

    def operand_array(self, name: str) -> np.ndarray:
        """Operand *name* as a read-only uint64 word vector, built once.

        Raises :class:`~repro.errors.EngineError` naming the first word
        that is not an integer in ``[0, 2**64)``.
        """
        words = self._operand_words(name)
        if words is None:
            raise _word_error(name, self.operands[name])
        return words

    def operand_arrays(self) -> Dict[str, np.ndarray]:
        """Every operand as :meth:`operand_array` builds it."""
        return {name: self.operand_array(name) for name in self.operands}

    def release_arrays(self) -> None:
        """Drop the memoised operand arrays (the digest stays memoised);
        the next use rebuilds them.  A server calls this when it is done
        with a request, so a caller that keeps its requests does not
        also keep a second copy of every word."""
        self._arrays.clear()

    def check_operands(self, kernel: CompiledKernel) -> None:
        """Raise :class:`~repro.errors.EngineError` unless this request's
        operands fit *kernel* on their own.

        Every operand must name a word group or input signal of
        *kernel*, hold integer words that fit the group's width (0/1 for
        a signal), and match the others' word count.  Errors name the
        word index within this request, so a malformed request is
        refused before it can be coalesced with (and fail) others.
        """
        count: Optional[int] = None
        for name in sorted(self.operands):
            group = kernel.word_inputs.get(name)
            if group is not None:
                width = len(group)
            elif name in kernel.inputs:
                width = 1
            else:
                raise EngineError(
                    f"{kernel.name}: unknown operand {name!r}; word groups: "
                    f"{sorted(kernel.word_inputs)}, signals: "
                    f"{list(kernel.inputs)}")
            words = self.operand_array(name)
            if count is None:
                count = words.size
                if not count:
                    raise EngineError(f"operand {name!r} has no words")
            elif words.size != count:
                raise EngineError(
                    f"operand {name!r} has {words.size} words, "
                    f"expected {count}")
            too_wide = np.flatnonzero(words >> np.uint64(width))
            if too_wide.size:
                index = int(too_wide[0])
                fit = ("is not a bit (0/1)" if name in kernel.inputs
                       else f"does not fit in {width} bits")
                raise EngineError(
                    f"operand {name!r} word {index} = {int(words[index])} "
                    f"{fit}")

    def batch_key(self, spec_digest: str) -> Tuple[Any, ...]:
        """Coalescing compatibility key: requests sharing it can merge
        into one engine execution under one derived spec."""
        return (
            self.kind,
            self.kernel.lower(),
            self.width,
            self.backend,
            spec_digest,
            tuple(sorted(self.operands)),
            _canonical({k: self.params[k] for k in sorted(self.params)}),
        )


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one successfully served request.

    Failures never become results — they surface as typed
    :class:`~repro.errors.ServeError` subclasses from ``submit`` (the
    JSONL frontend turns them into error records).  ``outputs`` maps
    word-group name -> a read-only ``np.uint64`` word array (kernel
    requests; empty for the analytical backend).  The arrays are
    read-only because result-cache hits share them (:meth:`for_request`
    copies no words); compare with ``.tolist()`` or
    :func:`numpy.array_equal`, and ``.copy()`` one to modify it.
    ``metrics`` carries the Table 2 numbers (evaluate requests).
    ``batch_words``/``batch_requests`` record the coalesced batch this
    request rode in; ``cached`` marks result-cache hits.
    """

    id: str
    kind: str
    kernel: str
    backend: str
    words: int
    outputs: Mapping[str, Words] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    energy: float = 0.0
    latency: float = 0.0
    steps_per_word: int = 0
    spec_digest: str = ""
    batch_words: int = 0
    batch_requests: int = 0
    cached: bool = False
    digest: str = ""
    trace_id: str = ""

    def for_request(
        self, request_id: str, *, cached: bool = False, trace_id: str = ""
    ) -> "ServeResult":
        """The same payload re-addressed to another submitter (the
        output arrays are shared, not copied)."""
        return replace(
            self, id=request_id, cached=cached,
            trace_id=trace_id or self.trace_id,
        )


def make_request(
    *,
    kernel: str = "",
    id: str = "",
    kind: str = "kernel",
    width: int = 32,
    operands: Optional[Mapping[str, Sequence[int]]] = None,
    backend: str = "auto",
    params: Optional[Mapping[str, Any]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    deadline_s: Optional[float] = None,
    trace_id: str = "",
    tenant: str = "",
) -> ServeRequest:
    """The one way to build a :class:`ServeRequest` (``api.request``).

    Normalises what the dataclass constructor takes literally: operand
    values become canonical integer tuples (so numpy arrays and lists
    digest identically), and ``backend`` defaults to ``"auto"`` — the
    cost-aware routing path — instead of the wire format's legacy
    ``"functional"``.  Evaluate requests ignore the backend, so it is
    pinned to the wire default there; helper-built and wire-built
    evaluations share digests (and therefore cache entries).

    Every construction path funnels through here: the JSONL frontend
    (:func:`request_from_dict`), the load generator
    (:mod:`repro.serve.loadgen`), and :func:`repro.api.request`.
    """
    if kind == "evaluate":
        backend = "functional"
    normalised: Dict[str, Tuple[int, ...]] = {
        str(name): tuple(int(value) for value in values)
        for name, values in (operands or {}).items()
    }
    return ServeRequest(
        id=str(id),
        kind=str(kind),
        kernel=str(kernel),
        width=int(width),
        operands=normalised,
        backend=str(backend),
        params=dict(params or {}),
        overrides=dict(overrides or {}),
        deadline_s=None if deadline_s is None else float(deadline_s),
        trace_id=str(trace_id),
        tenant=str(tenant),
    )


def _wire_number(key: str, value: Any, kind: Callable[[Any], Any]) -> Any:
    """``kind(value)`` for wire field *key*, refused as a
    :class:`ServeError` naming *key* when it is not such a number."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ServeError(
            f"{key} must be a number, got {value!r}") from None


def request_from_dict(payload: Mapping[str, Any]) -> ServeRequest:
    """Build a :class:`ServeRequest` from one decoded JSONL object."""
    if not isinstance(payload, Mapping):
        raise ServeError(f"request must be a JSON object, got {type(payload).__name__}")
    known = {"id", "op", "kind", "kernel", "width", "operands", "backend",
             "params", "overrides", "deadline_s", "trace_id", "tenant"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ServeError(f"unknown request fields {unknown}")
    # Validate the backend at parse time: a bad value must become a
    # per-line error record naming it, never an accepted request that
    # fails deep inside the engine after queueing.
    kind = str(payload.get("op", payload.get("kind", "kernel")))
    backend = str(payload.get("backend", "functional"))
    if kind == "kernel" and backend not in SERVE_BACKENDS:
        raise ServeError(
            f"backend must be one of {SERVE_BACKENDS}, got {backend!r}"
        )
    raw_operands = payload.get("operands", {})
    if not isinstance(raw_operands, Mapping):
        raise ServeError("operands must map names to integer word lists")
    for key in ("params", "overrides"):
        if not isinstance(payload.get(key, {}), Mapping):
            raise ServeError(f"{key} must be a JSON object")
    operands: Dict[str, Tuple[int, ...]] = {}
    for name, values in raw_operands.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise ServeError(f"operand {name!r} must be a list of integers")
        operands[str(name)] = tuple(int(v) for v in values)
    deadline = payload.get("deadline_s")
    return make_request(
        id=str(payload.get("id", "")),
        kind=kind,
        kernel=str(payload.get("kernel", "")),
        width=_wire_number("width", payload.get("width", 32), int),
        operands=operands,
        backend=backend,
        params=dict(payload.get("params", {})),
        overrides=dict(payload.get("overrides", {})),
        deadline_s=(None if deadline is None
                    else _wire_number("deadline_s", deadline, float)),
        trace_id=str(payload.get("trace_id", "")),
        tenant=str(payload.get("tenant", "")),
    )


def result_to_dict(result: ServeResult) -> Dict[str, Any]:
    """Flatten a :class:`ServeResult` for the JSONL wire format (output
    words become lists of Python ints)."""
    out: Dict[str, Any] = {
        "id": result.id,
        "status": "ok",
        "op": result.kind,
        "kernel": result.kernel,
        "backend": result.backend,
        "words": result.words,
        "energy_j": result.energy,
        "latency_s": result.latency,
        "spec_digest": result.spec_digest[:12],
        "batch_words": result.batch_words,
        "batch_requests": result.batch_requests,
        "cached": result.cached,
    }
    if result.trace_id:
        out["trace_id"] = result.trace_id
    if result.outputs:
        out["outputs"] = {k: v.tolist() for k, v in result.outputs.items()}
    if result.metrics:
        out["metrics"] = dict(result.metrics)
    return out
