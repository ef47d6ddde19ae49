"""The ladder: one fixed small request timed at each layer's entry point.

Every rung repeats one call warm and reports its median, its spread
(IQR) and the time it adds over the rung below it, all in µs::

    python perf/ladder.py

The engine and serving rungs run a 1-word 8-bit add (a fresh operand
pair per repeat, so the result cache never answers); the board and
solver rungs run on a random LRS/HRS array with ``wire_resistance=1``.
A rung whose entry point no longer exists is reported ``absent`` and
does not fail the run; a rung with nothing below it adds its whole time.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import common

WARMUP = 5
WORKERS = 2
STATS = ("p50_us", "iqr_us", "delta_us")


class Absent(Exception):
    """The rung's entry point is gone from the program."""


def metric_names() -> List[str]:
    return [f"ladder.{rung}.{stat}" for rung in RUNGS for stat in STATS]


def _adds(api: Any, count: int) -> List[Any]:
    return [api.request(kernel="adder", width=8, backend="functional",
                        operands={"a": [i % 256], "b": [i // 256]})
            for i in range(count)]


def _time(call: Callable[[int], Any], repeats: int) -> List[float]:
    for i in range(WARMUP):
        call(i)
    samples = []
    for i in range(WARMUP, WARMUP + repeats):
        start = time.perf_counter()
        call(i)
        samples.append(time.perf_counter() - start)
    return samples


def _engine(api: Any, backend: str, repeats: int) -> List[float]:
    from repro.engine import BACKENDS

    if backend not in BACKENDS:
        raise Absent(backend)
    return _time(lambda i: api.run_kernel(
        kernel="adder", width=8, backend=backend,
        operands={"a": [i % 256], "b": [i // 256]}), repeats)


def _server(api: Any, repeats: int) -> List[float]:
    from repro.serve.server import KernelServer

    requests = _adds(api, WARMUP + repeats)

    async def main() -> List[float]:
        server = KernelServer(workers=WORKERS)
        samples = []
        try:
            for i, request in enumerate(requests):
                start = time.perf_counter()
                await server.submit(request)
                samples.append(time.perf_counter() - start)
        finally:
            await server.drain()
        return samples[WARMUP:]

    return asyncio.run(main())


def _client(api: Any, repeats: int, **options: Any) -> List[float]:
    from repro.errors import ReproError

    requests = _adds(api, WARMUP + repeats)
    try:
        client = api.connect(workers=WORKERS, **options)
    except (ReproError, TypeError) as exc:
        raise Absent(str(exc)) from None
    with client:
        return _time(lambda i: client.submit(requests[i]), repeats)


def _array(size: int) -> Any:
    import numpy as np

    rng = np.random.default_rng(size)
    return np.where(rng.random((size, size)) < 0.5, 1e-4, 1e-6), rng


def _solver(api: Any, kind: str, size: int, repeats: int) -> List[float]:
    from repro.crossbar import solver

    g, rng = _array(size)
    rows = {i: float(v) for i, v in enumerate(rng.uniform(0, 0.2, size))}
    cols = {j: 0.0 for j in range(size)}
    if kind == "factor":
        def call(i: int) -> Any:
            solver.clear_factorization_cache()
            return api.solve_crossbar(conductances=g, row_drive=rows,
                                      col_drive=cols, wire_resistance=1.0)
    elif kind == "solve8":
        drives = [({i: float(v) for i, v in enumerate(row)}, cols)
                  for row in rng.uniform(0, 0.2, (8, size))]

        def call(i: int) -> Any:
            return solver.solve_many_with_wire_resistance(
                g, drives, wire_resistance=1.0)
    else:
        flipped = 1e-6 if g[0, 0] > 1e-5 else 1e-4

        def call(i: int) -> Any:
            return solver.solve_junction_variants(
                g, {0: 0.2}, {0: 0.0}, [(0, 0, flipped)], wire_resistance=1.0)
    try:
        return _time(call, repeats)
    finally:
        solver.clear_factorization_cache()


def _board(api: Any, repeats: int) -> List[float]:
    g, rng = _array(64)
    board = api.make_board(kind="ideal", rows=64, cols=64)
    board.program(g)
    voltages = rng.uniform(0, 0.2, (8, 64))
    return _time(lambda i: board.column_currents_many(
        voltages, wire_resistance=1.0), repeats)


#: name -> (rung below or None, warm repeats, measurement).  Repeats of
#: the slow solver rungs are cut so the whole ladder stays near 15 s.
RUNGS: Dict[str, Tuple[Optional[str], int, Callable[[Any, int], List[float]]]] = {
    "engine.functional": (
        None, 300, lambda api, n: _engine(api, "functional", n)),
    "engine.functional_bitplane": (
        None, 300, lambda api, n: _engine(api, "functional_bitplane", n)),
    "serve.server": ("engine.functional", 300, _server),
    "serve.local": (
        "serve.server", 300, lambda api, n: _client(api, n, target="local")),
    "serve.cluster": (
        "serve.local", 300, lambda api, n: _client(api, n, shards=2)),
    "serve.jsonl": (
        "serve.local", 300, lambda api, n: _client(api, n, target="jsonl")),
    "board.column_currents_64": ("solver.solve8.64", 300, _board),
    "solver.factor.64": (
        None, 30, lambda api, n: _solver(api, "factor", 64, n)),
    "solver.solve8.64": (
        None, 300, lambda api, n: _solver(api, "solve8", 64, n)),
    "solver.rank1.64": (
        None, 300, lambda api, n: _solver(api, "rank1", 64, n)),
    "solver.factor.256": (
        None, 5, lambda api, n: _solver(api, "factor", 256, n)),
    "solver.solve8.256": (
        None, 10, lambda api, n: _solver(api, "solve8", 256, n)),
    "solver.rank1.256": (
        None, 30, lambda api, n: _solver(api, "rank1", 256, n)),
}


def run() -> Dict[str, Any]:
    common.use_src()
    from repro import api

    p50: Dict[str, float] = {}
    metrics: Dict[str, float] = {}
    absent: List[str] = []
    for rung, (_, repeats, measure) in RUNGS.items():
        try:
            samples = measure(api, repeats)
        except Absent:
            absent.append(rung)
            continue
        p50[rung] = common.percentile(samples, 50) * 1e6
        metrics[f"ladder.{rung}.p50_us"] = p50[rung]
        metrics[f"ladder.{rung}.iqr_us"] = common.iqr(samples) * 1e6
    for rung, (below, _, _) in RUNGS.items():
        if rung in p50 and (below is None or below in p50):
            metrics[f"ladder.{rung}.delta_us"] = (
                p50[rung] - (p50[below] if below else 0.0))
    return {"metrics": metrics, "absent": absent}


if __name__ == "__main__":
    print(json.dumps(run()))
    sys.exit(0)
