"""Helpers shared by the benchmark's processes: paths, config, statistics.

Every other file in ``perf/`` imports this one.  It imports nothing from
``repro``, so the orchestrator and ``compare.py`` run without the
package on the path.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def load_benchmark(path: str = BENCHMARK_JSON) -> Dict[str, Any]:
    """The benchmark declaration: workloads, metric names, units, bounds."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def use_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` (never an install).

    Raises ``SystemExit`` when the checkout has no ``src/repro``: the
    benchmark measures the code next to it or nothing.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perf: no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(values: Sequence[float], p: int) -> float:
    """The *p*-th percentile (1..99) by ``statistics.quantiles``' default
    (exclusive) method; a single sample is its own percentile."""
    if not 1 <= p <= 99:
        raise ValueError(f"percentile must be 1..99, got {p}")
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[p - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return [float(values[0])] * 3
    return statistics.quantiles(values, n=4)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    q1, _, q3 = quartiles(values)
    return q3 - q1


def finite(value: float) -> float:
    """Clamp a non-finite number so the result line stays strict JSON."""
    if math.isnan(value):
        raise ValueError("a metric came out NaN")
    return value if math.isfinite(value) else math.copysign(sys.float_info.max,
                                                            value)


def write_json(path: str, payload: Any) -> None:
    """Write *payload* to *path*, creating its directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


def last_json_line(text: str) -> Optional[Dict[str, Any]]:
    """The JSON object on the last non-empty line of *text*, if any."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line:
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                return None
            return value if isinstance(value, dict) else None
    return None
