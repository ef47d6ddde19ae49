"""The benchmark's workloads: seeded inputs, drivers and output checks.

Run as a child process by ``perf/run.py``, one workload per process::

    python perf/workloads.py --workload serve_open_small --seed 1 \\
        --seconds 12 --mode run --out perf_out

``--mode setup`` only imports, constructs and warms the program and
reports the set-up time; ``--mode run`` then runs the timed window and
checks every output; ``--mode trace`` does the same with spans installed
around the layers' public calls (``tracing.py``) and reports per-layer
metrics.  The last line of standard output is one JSON object.

Inputs depend only on ``--seed`` and the op count; the op count is
``max(MIN_OPS, ops_per_second x --seconds)``, so every count the program
makes repeats exactly for one seed and one ``--seconds``.  The program
is reached only through ``api.connect(target=<KernelServer>)``,
``api.request(backend="functional")``, ``KernelServer``,
``api.make_board(kind="ideal")``, ``api.run_kernel`` and
``api.solve_crossbar``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import resource
import sys
import threading
import time
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import common

#: A p90 needs at least 90 samples beyond it.
MIN_OPS = 900

#: Thread-pool size of every server: the box's core count.
SERVER_WORKERS = 2

#: The small-request kernel mix: (kernel, width), drawn uniformly.
KERNELS: Tuple[Tuple[str, int], ...] = (
    ("adder", 32), ("word-compare", 32), ("cam-match", 32), ("adder", 16))
SMALL_WORDS = (1, 8)
#: serve_open_small: Poisson arrivals, and the share of exact repeats
#: drawn from the last REPEAT_WINDOW distinct requests (twice the
#: server's 1 024-entry result cache, so both hits and evictions happen).
OPEN_RATE_HZ = 300.0
REPEAT_SHARE = 0.25
REPEAT_WINDOW = 2048
BULK_WORDS = 4096
BULK_CLIENTS = 2
#: Operand words of bulk requests come from a seeded pool of distinct
#: values, so the pre-built requests share integer objects.
BULK_POOL = 65536

CROSSBAR_SIZE = 64
WIRE_RESISTANCE = 1.0
G_LRS = 1e-4
G_HRS = 1e-6
WRITE_SHARE = 0.25
VECTORS = 8
V_MAX = 0.2
V_READ = 0.2

#: Checks: every BILLING_EVERY-th served request against a solo run,
#: every RESOLVE_EVERY-th crossbar step against a cold re-solve.
BILLING_EVERY = 32
RESOLVE_EVERY = 16
REL_ENERGY = 1e-12
REL_CURRENT = 1e-9

#: Workload -> driver and the nominal op rate that sets its op count.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "serve_open_small": {"driver": "open", "ops_per_second": OPEN_RATE_HZ},
    "serve_seq_small": {"driver": "seq", "ops_per_second": 330.0},
    "serve_bulk": {"driver": "bulk", "ops_per_second": 140.0},
    "crossbar_rw": {"driver": "crossbar", "ops_per_second": 85.0},
}

MAX_ERRORS = 10


def op_count(workload: str, seconds: float) -> int:
    """Ops one run of *workload* makes for a ``--seconds`` window."""
    rate = WORKLOADS[workload]["ops_per_second"]
    return max(MIN_OPS, int(round(rate * seconds)))


# -- inputs ---------------------------------------------------------------------


def _balanced(rng: random.Random, items: Sequence[Any], count: int) -> List[Any]:
    """*count* draws that use every item equally often (to within one),
    in seeded random order: the mix is fixed, only the order varies."""
    items = list(items)
    pool = items * (count // len(items)) + rng.sample(items, count % len(items))
    rng.shuffle(pool)
    return pool


def small_specs(rng: random.Random, count: int, repeats: bool
                ) -> List[Tuple[str, int, List[int], List[int]]]:
    """(kernel, width, a, b) per request; compare kernels get a == b on
    about half of their words.

    Every kernel and every word count is equally common.  With *repeats*,
    exactly REPEAT_SHARE of the requests (never the first) are exact
    copies of one of the last REPEAT_WINDOW distinct requests.
    """
    copies = set(rng.sample(range(1, count), round(REPEAT_SHARE * count))
                 if repeats else ())
    fresh = count - len(copies)
    shapes = list(zip(_balanced(rng, KERNELS, fresh), _balanced(
        rng, range(SMALL_WORDS[0], SMALL_WORDS[1] + 1), fresh)))
    distinct: List[Tuple[str, int, List[int], List[int]]] = []
    out = []
    for index in range(count):
        if index in copies:
            low = max(0, len(distinct) - REPEAT_WINDOW)
            out.append(distinct[rng.randrange(low, len(distinct))])
            continue
        (kernel, width), words = shapes[len(distinct)]
        a = [rng.getrandbits(width) for _ in range(words)]
        if kernel == "adder":
            b = [rng.getrandbits(width) for _ in range(words)]
        else:
            b = [x if rng.random() < 0.5 else rng.getrandbits(width) for x in a]
        distinct.append((kernel, width, a, b))
        out.append(distinct[-1])
    return out


def bulk_specs(rng: random.Random, count: int
               ) -> Iterator[Tuple[str, int, List[int], List[int]]]:
    """(kernel, width, a, b) per 4 096-word request, generated lazily so
    only the built requests stay in memory; every kernel equally common;
    compare kernels get a == b on the first half of their words."""
    pools = {width: [rng.getrandbits(width) for _ in range(BULK_POOL)]
             for width in sorted({w for _, w in KERNELS})}
    half = BULK_WORDS // 2
    for kernel, width in _balanced(rng, KERNELS, count):
        pool = pools[width]
        a = rng.choices(pool, k=BULK_WORDS)
        if kernel == "adder":
            b = rng.choices(pool, k=BULK_WORDS)
        else:
            b = a[:half] + rng.choices(pool, k=BULK_WORDS - half)
        yield kernel, width, a, b


def build_requests(api: Any, specs: Iterable[Tuple[str, int, List[int], List[int]]]
                   ) -> List[Any]:
    """The workload's requests, with ids ``r0``, ``r1``, ... in send order."""
    return [
        api.request(kernel=kernel, width=width, operands={"a": a, "b": b},
                    backend="functional", id=f"r{i}")
        for i, (kernel, width, a, b) in enumerate(specs)
    ]


def warmup_requests(api: Any, seed: int, words: int) -> List[Any]:
    """One request per kernel, from a stream separate from the workload's."""
    rng = random.Random(f"warmup-{seed}")
    return [
        api.request(kernel=kernel, width=width,
                    operands={"a": [rng.getrandbits(width) for _ in range(words)],
                              "b": [rng.getrandbits(width) for _ in range(words)]},
                    backend="functional", id=f"warmup{i}")
        for i, (kernel, width) in enumerate(KERNELS)
    ]


def arrival_offsets(rng: random.Random, count: int, rate_hz: float
                    ) -> List[float]:
    """Send times (seconds from the start) of *count* Poisson arrivals at
    *rate_hz*, conditioned to span exactly ``count / rate_hz`` seconds:
    sorted uniform times, so the offered load is the same for every seed."""
    span = count / rate_hz
    return sorted(rng.uniform(0.0, span) for _ in range(count))


# -- checks ---------------------------------------------------------------------


def oracle_error(kernel: str, width: int, a: Sequence[int], b: Sequence[int],
                 outputs: Dict[str, Sequence[int]]) -> Optional[str]:
    """Why *outputs* are wrong for kernel(a, b) by Python-int arithmetic,
    or ``None`` when they are right."""
    if kernel == "adder":
        mask = (1 << width) - 1
        want = {"sum": tuple((x + y) & mask for x, y in zip(a, b)),
                "cout": tuple((x + y) >> width for x, y in zip(a, b))}
    else:
        want = {"match": tuple(int(x == y) for x, y in zip(a, b))}
    for group, words in want.items():
        if tuple(outputs.get(group, ())) != words:
            return f"{kernel}-{width} output {group!r} differs from the oracle"
    if set(outputs) != set(want):
        return f"{kernel}-{width} output groups {sorted(outputs)} != {sorted(want)}"
    return None


def billing_error(result: Any, solo: Any) -> Optional[str]:
    """Why a served *result* does not bill like the *solo* engine run."""
    for group in solo.word_outputs:
        if tuple(int(w) for w in solo.word(group)) != tuple(result.outputs[group]):
            return f"output {group!r} differs from the solo run"
    if result.latency != solo.latency:
        return f"latency {result.latency!r} != solo {solo.latency!r}"
    if abs(result.energy - solo.energy) > REL_ENERGY * abs(solo.energy):
        return f"energy {result.energy!r} != solo {solo.energy!r}"
    return None


def check_served(api: Any, requests: Sequence[Any], results: Sequence[Any]
                 ) -> List[str]:
    """Oracle every served output; bill every BILLING_EVERY-th solo."""
    errors: List[str] = []
    for index, (request, result) in enumerate(zip(requests, results)):
        if result is None:
            continue
        a, b = request.operands["a"], request.operands["b"]
        error = oracle_error(request.kernel, request.width, a, b,
                             dict(result.outputs))
        if error is None and index % BILLING_EVERY == 0:
            solo = api.run_kernel(kernel=request.kernel, width=request.width,
                                  operands=dict(request.operands),
                                  backend="functional")
            error = billing_error(result, solo)
        if error is not None:
            errors.append(f"request {request.id}: {error}")
    return errors


def table2_hex(api: Any) -> Dict[str, str]:
    """Every Table 2 number as ``float.hex``, keyed by cell and metric."""
    result = api.table2()
    out = {}
    for (application, architecture), metrics in sorted(result.metrics.items()):
        for name, value in metrics.as_dict().items():
            out[f"{application}.{architecture}.{name}"] = float(value).hex()
    for application, factors in sorted(result.improvements.items()):
        for name in ("energy_delay", "computing_efficiency",
                     "performance_per_area"):
            out[f"{application}.improvement.{name}"] = float(
                getattr(factors, name)).hex()
    return out


def check_table2(api: Any) -> List[str]:
    with open(f"{common.PERF_DIR}/table2_golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    got = table2_hex(api)
    return [f"Table 2 {key}: {got.get(key)} != golden {value}"
            for key, value in sorted(golden.items()) if got.get(key) != value]


def conservation_error(row_currents: Any, col_currents: Any) -> Optional[str]:
    """Current into the rows must leave through the columns."""
    total_in, total_out = float(row_currents.sum()), float(col_currents.sum())
    scale = max(float(abs(row_currents).sum()), float(abs(col_currents).sum()),
                1e-300)
    if abs(total_in - total_out) > REL_CURRENT * scale:
        return f"rows carry {total_in!r} A, columns {total_out!r} A"
    return None


def close_error(got: Any, want: Any, what: str) -> Optional[str]:
    import numpy as np

    scale = max(float(np.abs(want).max()), 1e-300)
    if float(np.abs(got - want).max()) > REL_CURRENT * scale:
        return f"{what} differs from the cold re-solve"
    return None


# -- serve drivers ----------------------------------------------------------------


class Outcome:
    """Per-op latencies and results of one timed window; an op that
    failed keeps an infinite latency and no result, and its error is
    kept in ``errors``."""

    def __init__(self, ops: int) -> None:
        self.latencies = [float("inf")] * ops
        self.results: List[Any] = [None] * ops
        self.errors: List[str] = []
        self.lags: List[float] = []
        self.first_send = 0.0
        self.last_done = 0.0
        self.peak_rss_mb = 0.0

    def end_window(self) -> None:
        """Stamp the peak memory of the window, before any check runs."""
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r is None)


def _new_server(ops: int) -> Tuple[Any, Any]:
    """A server as the workloads configure it, and its flight recorder."""
    from repro.obs.flight import FlightRecorder
    from repro.serve.server import KernelServer

    flight = FlightRecorder(capacity=ops)
    return KernelServer(workers=SERVER_WORKERS, flight=flight), flight


async def _open_loop(server: Any, requests: Sequence[Any],
                     offsets: Sequence[float], outcome: Outcome,
                     on_start: Callable[[], None]) -> None:
    """Send each request at its due time, whatever is still in flight."""
    from repro.errors import ServeError

    loop = asyncio.get_running_loop()
    perf = time.perf_counter

    async def one(index: int, due: float) -> None:
        try:
            result = await server.submit(requests[index])
        except ServeError as exc:
            outcome.errors.append(f"request {index}: {exc!r}")
            return
        done = perf()
        outcome.results[index] = result
        outcome.latencies[index] = done - due
        outcome.last_done = max(outcome.last_done, done)

    on_start()
    tasks = []
    start = perf() + 0.01
    outcome.first_send = start
    lags = outcome.lags
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(perf() - due)
        tasks.append(loop.create_task(one(index, due)))
    await asyncio.gather(*tasks)


def _closed_loop(client: Any, requests: Sequence[Any], threads: int,
                 outcome: Outcome) -> None:
    """*threads* callers, each sending its next request on the last reply."""
    from repro.errors import ServeError

    perf = time.perf_counter
    done_at = [0.0] * threads

    def caller(lane: int) -> None:
        for index in range(lane, len(requests), threads):
            sent = perf()
            try:
                result = client.submit(requests[index])
            except ServeError as exc:
                outcome.errors.append(f"request {index}: {exc!r}")
                continue
            done = perf()
            outcome.results[index] = result
            outcome.latencies[index] = done - sent
            done_at[lane] = done

    outcome.first_send = perf()
    if threads == 1:
        caller(0)
    else:
        workers = [threading.Thread(target=caller, args=(lane,))
                   for lane in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    outcome.last_done = max(done_at)


def run_serve(name: str, seed: int, ops: int, mode: str, t0: float,
              trace: Any) -> Dict[str, Any]:
    """Set up, warm, time and check one serving workload."""
    from repro import api

    driver = WORKLOADS[name]["driver"]
    words = BULK_WORDS if driver == "bulk" else 1
    report: Dict[str, Any] = {}
    server, flight = _new_server(ops)
    warm = warmup_requests(api, seed, words)
    outcome = Outcome(ops)

    if driver == "open":
        async def main() -> None:
            for request in warm:
                await server.submit(request)
            report["setup_s"] = time.perf_counter() - t0
            if mode == "setup":
                await server.drain()
                return
            rng = random.Random(seed)
            requests = build_requests(api, small_specs(rng, ops, True))
            offsets = arrival_offsets(rng, ops, OPEN_RATE_HZ)
            report["requests"] = requests
            await _open_loop(server, requests, offsets, outcome,
                             lambda: trace.begin(flight))
            outcome.end_window()
            trace.end()
            await server.drain()
        asyncio.run(main())
    else:
        client = api.connect(target=server)
        try:
            for request in warm:
                client.submit(request)
            report["setup_s"] = time.perf_counter() - t0
            if mode != "setup":
                rng = random.Random(seed)
                specs = (bulk_specs(rng, ops) if driver == "bulk"
                         else small_specs(rng, ops, False))
                requests = build_requests(api, specs)
                report["requests"] = requests
                trace.begin(flight)
                _closed_loop(client, requests,
                             BULK_CLIENTS if driver == "bulk" else 1, outcome)
                outcome.end_window()
                trace.end()
        finally:
            client.close()
    if mode == "setup":
        return report
    report["outcome"] = outcome
    report["checks"] = check_served(api, report.pop("requests"),
                                    outcome.results)
    return report


# -- crossbar driver ----------------------------------------------------------------


def crossbar_inputs(seed: int, ops: int) -> Tuple[Any, ...]:
    """``(lrs, warm_drive, writes, cells, drives)`` for one run: the
    initial LRS map, the warm-up drive block, which steps write (exactly
    WRITE_SHARE of them), the cell each step would write, and each
    step's VECTORS x rows drive block."""
    import numpy as np

    n = CROSSBAR_SIZE
    rng = np.random.default_rng(seed)
    lrs = rng.random((n, n)) < 0.5
    warm = rng.uniform(0.0, V_MAX, (VECTORS, n))
    writes = np.zeros(ops, dtype=bool)
    writes[rng.choice(ops, round(WRITE_SHARE * ops), replace=False)] = True
    cells = rng.integers(0, n, size=(ops, 2))
    drives = rng.uniform(0.0, V_MAX, size=(ops, VECTORS, n))
    return lrs, warm, writes, cells, drives


def run_crossbar(seed: int, ops: int, mode: str, t0: float,
                 trace: Any) -> Dict[str, Any]:
    """Random single-cell writes between batched reads on a 64x64 board.

    Every write flips a cell between LRS and HRS, so it always changes
    the conductances and the next reads need new factorizations; reads
    between writes reuse the cached ones.
    """
    from repro import api
    import numpy as np

    n = CROSSBAR_SIZE
    lrs, warm, writes, cells, drives = crossbar_inputs(seed, ops)
    board = api.make_board(kind="ideal", rows=n, cols=n)
    g = np.where(lrs, G_LRS, G_HRS)
    board.program(g)
    cols_grounded = {j: 0.0 for j in range(n)}
    read_rows, read_cols = {0: V_READ}, {0: 0.0}

    def other(row: int, col: int) -> float:
        return G_HRS if lrs[row, col] else G_LRS

    board.column_currents_many(warm, wire_resistance=WIRE_RESISTANCE)
    board.read_iv_variants(read_rows, read_cols, [(0, 0, other(0, 0))],
                           wire_resistance=WIRE_RESISTANCE)
    report: Dict[str, Any] = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        return report

    outcome = Outcome(ops)
    kept: List[Tuple[Any, ...]] = []
    snapshots: List[Tuple[Any, ...]] = []
    perf = time.perf_counter
    trace.begin(None)
    outcome.first_send = perf()
    for step in range(ops):
        row, col = int(cells[step, 0]), int(cells[step, 1])
        started = perf()
        if writes[step]:
            board.pulse(row, col, other(row, col))
        currents = board.column_currents_many(
            drives[step], wire_resistance=WIRE_RESISTANCE)
        base, variants = board.read_iv_variants(
            read_rows, read_cols, [(0, 0, other(0, 0))],
            wire_resistance=WIRE_RESISTANCE)
        done = perf()
        outcome.latencies[step] = done - started
        outcome.results[step] = currents
        if writes[step]:
            lrs[row, col] = not lrs[row, col]
            g[row, col] = G_LRS if lrs[row, col] else G_HRS
        kept.append((base.row_currents, base.col_currents,
                     variants[0].row_currents, variants[0].col_currents))
        if step % RESOLVE_EVERY == 0:
            snapshots.append((step, g.copy(), other(0, 0)))
    outcome.last_done = perf()
    outcome.end_window()
    trace.end()

    checks: List[str] = []
    for step, currents in enumerate(kept):
        for rows_i, cols_i in (currents[:2], currents[2:]):
            error = conservation_error(rows_i, cols_i)
            if error:
                checks.append(f"step {step}: {error}")
    from repro.crossbar.solver import clear_factorization_cache

    clear_factorization_cache()
    for step, g_step, flipped in snapshots:
        for k in range(VECTORS):
            cold = api.solve_crossbar(
                conductances=g_step,
                row_drive={i: float(v) for i, v in enumerate(drives[step, k])},
                col_drive=cols_grounded, wire_resistance=WIRE_RESISTANCE)
            for error in (conservation_error(cold.row_currents, cold.col_currents),
                          close_error(outcome.results[step][k], cold.col_currents,
                                      f"vector {k} column currents")):
                if error:
                    checks.append(f"step {step}: {error}")
        g_var = g_step.copy()
        g_var[0, 0] = flipped
        for label, g_read, (rows_i, cols_i) in (
                ("read", g_step, kept[step][:2]),
                ("read variant", g_var, kept[step][2:])):
            cold = api.solve_crossbar(conductances=g_read, row_drive=read_rows,
                                      col_drive=read_cols,
                                      wire_resistance=WIRE_RESISTANCE)
            for error in (close_error(rows_i, cold.row_currents,
                                      f"{label} row currents"),
                          close_error(cols_i, cold.col_currents,
                                      f"{label} column currents")):
                if error:
                    checks.append(f"step {step}: {error}")
    report["outcome"] = outcome
    report["checks"] = checks
    return report


# -- tracing hooks ----------------------------------------------------------------


class NoTrace:
    """The untraced run: window hooks that do nothing."""

    def begin(self, flight: Any) -> None:
        pass

    def end(self) -> None:
        pass


class Trace:
    """Spans and counter deltas for the timed window of a traced run."""

    COUNTERS = {
        "words": ("engine_words_executed_total", None),
        "misses": ("crossbar_factorization_cache_total", ("result", "miss")),
        "hits": ("crossbar_factorization_cache_total", ("result", "hit")),
        "solves": ("crossbar_solves_total", ("solver", "wire_resistance")),
    }

    def __init__(self) -> None:
        import tracing
        from repro.obs.context import current_trace
        from repro.obs.registry import get_registry
        from repro.serve.request import ServeRequest

        def request_id_of(arg: Any) -> str:
            return arg.id if isinstance(arg, ServeRequest) else ""

        def current_request_id() -> str:
            context = current_trace()
            return context.request_id if context is not None else ""

        registry = get_registry()
        self.counters = {}
        for key, (name, label) in self.COUNTERS.items():
            counter = registry.counter(name)
            self.counters[key] = (counter if label is None
                                  else counter.labels(**{label[0]: label[1]}))
        self.tracer = tracing.Tracer(request_id_of=request_id_of,
                                     current_request_id=current_request_id)
        miss = self.counters["misses"]
        for name, module, path in tracing.TARGETS:
            probe = (lambda: miss.value) if name.startswith("solver.") else None
            self.tracer.install(name, module, path, probe=probe)
        self.flight: Any = None
        self.before: Dict[str, float] = {}
        self.delta: Dict[str, float] = {}

    def begin(self, flight: Any) -> None:
        """Start recording; *flight* is the server's flight recorder."""
        self.flight = flight
        if flight is not None:
            flight.clear()
        self.before = {k: c.value for k, c in self.counters.items()}
        self.tracer.recording = True

    def end(self) -> None:
        self.tracer.recording = False
        self.delta = {k: c.value - self.before[k]
                      for k, c in self.counters.items()}
        self.tracer.restore()

    def flight_records(self) -> List[Any]:
        return [] if self.flight is None else self.flight.last()


# -- entry point ------------------------------------------------------------------


def summarise(outcome: Outcome) -> Dict[str, float]:
    """End-to-end numbers of one window (times in ms)."""
    latencies = outcome.latencies
    ok = len(latencies) - outcome.failed
    window = max(outcome.last_done - outcome.first_send, 1e-9)
    return {
        "p50_ms": common.finite(common.percentile(latencies, 50) * 1e3),
        "p90_ms": common.finite(common.percentile(latencies, 90) * 1e3),
        "p99_ms": common.finite(common.percentile(latencies, 99) * 1e3),
        "throughput_ops": ok / window,
        "window_s": window,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def run(workload: str, seed: int, seconds: float, mode: str, out_dir: str
        ) -> Dict[str, Any]:
    t0 = time.perf_counter()
    common.use_src()
    import repro  # noqa: F401 - the set-up clock starts before this import

    ops = op_count(workload, seconds)
    trace: Any = NoTrace()
    if mode == "trace":
        # Import every traced module first, so the wrappers reach every
        # binding; counted in set-up time only on traced runs.
        import repro.api  # noqa: F401
        import repro.board.ideal  # noqa: F401
        import repro.serve.client  # noqa: F401
        trace = Trace()
    if WORKLOADS[workload]["driver"] == "crossbar":
        report = run_crossbar(seed, ops, mode, t0, trace)
    else:
        report = run_serve(workload, seed, ops, mode, t0, trace)
    result: Dict[str, Any] = {"workload": workload, "seed": seed, "ops": ops,
                              "setup_s": report["setup_s"]}
    if mode == "setup":
        return result
    from repro import api

    outcome: Outcome = report["outcome"]
    checks = report["checks"] + check_table2(api)
    result.update(summarise(outcome))
    result.update(
        attempted=ops, failed=outcome.failed,
        failures=outcome.errors[:MAX_ERRORS],
        correct=not checks, checks=checks[:MAX_ERRORS],
    )
    if mode == "trace":
        import tracing

        spans = trace.tracer.spans
        result["layers"] = tracing.layer_metrics(
            spans, trace.flight_records(), trace.delta, ops,
            [lag * 1e3 for lag in outcome.lags])
        result["missing_spans"] = trace.tracer.missing
        common.write_json(f"{out_dir}/trace_{workload}.json", {
            "workload": workload, "seed": seed, "fields": tracing.SPAN_FIELDS,
            "spans": spans})
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        default="run")
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.mode, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
