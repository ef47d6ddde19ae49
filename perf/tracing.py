"""Spans around the program's public calls, installed from outside.

:class:`Tracer` replaces a function at every module-level binding in the
loaded ``repro.*`` modules (so ``from .engine import run_kernel`` call
sites are covered too), or a method/property on the class that defines
it, with a wrapper that records one span per call and otherwise passes
arguments, return values and exceptions through unchanged.
:meth:`Tracer.restore` puts every original object back.

A span is ``(id, name, thread, start, end, parent, request_id, cold)``:
``parent`` is the id of the innermost open span on the same thread
(``-1`` for none); coroutine spans interleave on the event loop, so they
never become parents.  ``request_id`` comes from the bound
``repro.obs.context`` trace, else from a request argument.  ``cold`` is
set when the span was given a probe whose value moved during the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import common

SPAN_FIELDS = ("id", "name", "thread", "start", "end", "parent",
               "request_id", "cold")

#: (span name, module, attribute path) of every traced entry point,
#: grouped by layer; the span name's first part is the layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("client.submit", "repro.serve.client", "ServerClient.submit"),
    ("server.submit", "repro.serve.server", "KernelServer.submit"),
    ("request.digest", "repro.serve.request", "ServeRequest.digest"),
    ("engine.resolve_kernel", "repro.engine.builtins", "resolve_kernel"),
    ("engine.coalesce", "repro.engine.executors", "coalesce_operand_batches"),
    ("engine.run_kernel", "repro.engine.executors", "run_kernel"),
    ("engine.pack_words", "repro.engine.packing", "pack_words"),
    ("engine.executor_run", "repro.engine.executors",
     "FunctionalBatchExecutor.run"),
    ("engine.split", "repro.engine.executors", "BatchResult.split"),
    ("engine.word", "repro.engine.executors", "BatchResult.word"),
    ("board.pulse", "repro.board.ideal", "IdealSimBoard.pulse"),
    ("board.column_currents_many", "repro.board.ideal",
     "IdealSimBoard.column_currents_many"),
    ("board.read_iv_variants", "repro.board.ideal",
     "IdealSimBoard.read_iv_variants"),
    ("solver.solve_many", "repro.crossbar.solver",
     "solve_many_with_wire_resistance"),
    ("solver.junction_variants", "repro.crossbar.solver",
     "solve_junction_variants"),
)


class Tracer:
    """Records spans from wrappers it installs; see the module docstring.

    ``prefix`` names the package whose loaded modules are searched for
    bindings; ``request_id_of`` maps one call argument to a request id
    (``""`` when it is not a request); ``current_request_id`` returns the
    id bound to the running context, if any.
    """

    def __init__(
        self,
        *,
        prefix: str = "repro",
        request_id_of: Callable[[Any], str] = lambda arg: "",
        current_request_id: Callable[[], str] = lambda: "",
    ) -> None:
        self.prefix = prefix
        self.spans: List[Tuple[Any, ...]] = []
        self.recording = False
        self.missing: List[str] = []
        self._request_id_of = request_id_of
        self._current_request_id = current_request_id
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installing ----------------------------------------------------------

    def install(self, name: str, module_name: str, path: str,
                probe: Optional[Callable[[], float]] = None) -> bool:
        """Wrap ``module_name:path`` as span *name*.

        Returns ``False`` (and records *name* in :attr:`missing`) when the
        module or attribute no longer exists.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(name)
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.missing.append(name)
                return False
            if isinstance(original, property):
                wrapped: Any = property(
                    self._wrap(name, original.fget, probe), original.fset,
                    original.fdel, original.__doc__)
            else:
                wrapped = self._wrap(name, original, probe)
            self._set(owner, attr, wrapped, original)
            return True
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return False
        wrapped = self._wrap(name, original, probe)
        for module_key, loaded in list(sys.modules.items()):
            if module_key != self.prefix and not module_key.startswith(
                    self.prefix + "."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped, original)
        return True

    def restore(self) -> None:
        """Put back every object :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, owner: Any, attr: str, wrapped: Any, original: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request_id(self, args: Sequence[Any]) -> str:
        rid = self._current_request_id()
        if rid:
            return rid
        for arg in args:
            rid = self._request_id_of(arg)
            if rid:
                return rid
        return ""

    def _wrap(self, name: str, fn: Callable[..., Any],
              probe: Optional[Callable[[], float]]) -> Callable[..., Any]:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                span_id = next(tracer._ids)
                rid = tracer._request_id(args)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.spans.append((
                        span_id, name, threading.get_ident(), start,
                        time.perf_counter(), -1, rid, False))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            rid = tracer._request_id(args)
            before = probe() if probe is not None else 0.0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                cold = probe is not None and probe() != before
                tracer.spans.append((span_id, name, threading.get_ident(),
                                     start, end, parent, rid, cold))
        return wrapper


# -- span arithmetic -----------------------------------------------------------


def durations(spans: Sequence[Tuple[Any, ...]]) -> Dict[str, List[float]]:
    """Span name -> durations in seconds, in completion order."""
    out: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        out[span[1]].append(span[4] - span[3])
    return out


def self_times(spans: Sequence[Tuple[Any, ...]]) -> Dict[str, List[float]]:
    """Span name -> self times: duration minus the time child spans cover.

    Children share their parent's thread and nest inside it, so the part
    of the parent they cover is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5] >= 0:
            covered[span[5]] += span[4] - span[3]
    out: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        out[span[1]].append(span[4] - span[3] - covered.get(span[0], 0.0))
    return out


def by_request(spans: Sequence[Tuple[Any, ...]], name: str) -> Dict[str, float]:
    """Request id -> duration of the span *name* carrying it."""
    return {span[6]: span[4] - span[3]
            for span in spans if span[1] == name and span[6]}


def _pct(values: Sequence[float], p: int, scale: float) -> float:
    """Percentile of *values* times *scale*; 0 when a layer was never
    called on this workload."""
    return common.percentile(values, p) * scale if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


#: Per-call p50 of these spans, reported as ``<span>.us_per_call.p50``.
PER_CALL = ("request.digest", "engine.run_kernel", "engine.resolve_kernel",
            "engine.coalesce", "engine.pack_words", "engine.executor_run",
            "engine.split", "engine.word", "board.pulse",
            "board.column_currents_many", "board.read_iv_variants")

FLIGHT_STAGES = ("queue_wait", "batch_wait", "execute", "split")


def layer_metrics(
    spans: Sequence[Tuple[Any, ...]],
    flights: Sequence[Any],
    counters: Dict[str, float],
    ops: int,
    lags_ms: Sequence[float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    *flights* are the server's flight records, *counters* the deltas of
    the program's own counters (``words``, ``misses``, ``hits``,
    ``solves``) over the window, *ops* the ops sent and *lags_ms* how
    late the open-loop generator sent each one.
    """
    times = durations(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    client = by_request(spans, "client.submit")
    server = by_request(spans, "server.submit")
    out["client.hop_us.p50"] = _pct(
        [client[r] - server[r] for r in client if r in server], 50, 1e6)
    out["server.submit_us.p50"] = _pct(times["server.submit"], 50, 1e6)
    stages = {stage: [f.stages[stage] for f in flights if stage in f.stages]
              for stage in FLIGHT_STAGES}
    out["server.queue_wait_us.p50"] = _pct(stages["queue_wait"], 50, 1e6)
    out["server.queue_wait_us.p90"] = _pct(stages["queue_wait"], 90, 1e6)
    for stage in FLIGHT_STAGES[1:]:
        out[f"server.{stage}_us.p50"] = _pct(stages[stage], 50, 1e6)
    executed = [f for f in flights if f.batch_requests]
    out["server.batch_requests.mean"] = _mean(
        [f.batch_requests for f in executed])
    out["server.batch_words.mean"] = _mean([f.batch_words for f in executed])
    out["server.cache_hit_ratio"] = _mean([float(f.cache_hit) for f in flights])
    out["request.digest.calls_per_request"] = len(times["request.digest"]) / ops
    out["engine.run_kernel.calls_per_request"] = (
        len(times["engine.run_kernel"]) / ops)
    words = counters.get("words", 0.0)
    out["engine.run_kernel.ns_per_word"] = (
        sum(times["engine.run_kernel"]) / words * 1e9 if words else 0.0)
    for name in PER_CALL:
        out[f"{name}.us_per_call.p50"] = _pct(times[name], 50, 1e6)
    out["engine.self_us.p50"] = _pct(own["engine.run_kernel"], 50, 1e6)
    out["board.self_us.p50"] = _pct(
        [t for name, values in own.items() if name.startswith("board.")
         for t in values], 50, 1e6)
    misses, hits = counters.get("misses", 0.0), counters.get("hits", 0.0)
    out["solver.factorizations"] = misses
    out["solver.factor_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out["solver.solves"] = counters.get("solves", 0.0)
    for name in ("solve_many", "junction_variants"):
        calls = [s for s in spans if s[1] == f"solver.{name}"]
        for label, cold in (("warm", False), ("cold", True)):
            out[f"solver.{name}.{label}_us.p50"] = _pct(
                [s[4] - s[3] for s in calls if s[7] == cold], 50, 1e6)
    out["loadgen.lag_ms.p50"] = _pct(lags_ms, 50, 1.0)
    out["loadgen.lag_ms.p99"] = _pct(lags_ms, 99, 1.0)
    return out
