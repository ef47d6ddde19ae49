"""repro.api — the stable public facade.

One import gives every headline capability behind keyword-only,
documented signatures::

    from repro import api

    api.table2()                             # reproduce Table 2
    api.evaluate(application="dna")          # one application's metrics
    api.run_kernel(kernel="adder", width=8,  # engine execution by name
                   operands={"a": [1, 2], "b": [3, 4]})
    api.sweep(grid={"memristor.write_energy": [1e-15, 2e-15]})
    api.plan()                               # CIM-vs-CPU offload plan
    api.solve_crossbar(conductances=g, row_drive={0: 0.5}, col_drive={3: 0.0})
    api.serve()                              # JSONL serving loop (stdin)
    client = api.connect(shards=4)           # unified serving client
    client.submit(api.request(kernel="adder", width=8,
                              operands={"a": [1], "b": [2]}))
    api.make_board(kind="noisy", rows=64,    # a pluggable crossbar board
                   cols=64, seed=7)
    api.list_boards()                        # registered board kinds

Everything here is a thin, stable veneer over :mod:`repro.core`,
:mod:`repro.engine`, :mod:`repro.analysis.dse`, :mod:`repro.crossbar`
and :mod:`repro.serve`; internals may move freely underneath, but this
surface only changes deliberately (``tests/test_api_surface.py``
snapshots ``__all__`` and every signature).  All entry points accept
``spec=`` (a :class:`~repro.spec.TechSpec`) and/or ``overrides=``
(dotted :meth:`~repro.spec.TechSpec.derive` paths) so any what-if
technology runs through the same code as the paper's Table 1.
"""

from __future__ import annotations

import sys
from typing import (TYPE_CHECKING, IO, Any, Dict, Mapping, Optional, Sequence,
                    Union)

import numpy as np

from .errors import ReproError
from .spec import TABLE1, TechSpec

# Result types appear only in annotations; each function imports what its
# body reaches, so importing the facade stays cheap.
if TYPE_CHECKING:
    from .core.evaluate import Table2Result
    from .crossbar.solver import CrossbarSolution
    from .engine import BatchResult

__all__ = [
    "connect",
    "evaluate",
    "list_boards",
    "make_board",
    "plan",
    "request",
    "run_kernel",
    "serve",
    "solve_crossbar",
    "sweep",
    "table2",
]

#: Applications Table 2 evaluates (the two paper workloads).
_APPLICATIONS = ("dna", "math")


def _resolve_spec(
    spec: Optional[TechSpec], overrides: Optional[Mapping[str, Any]]
) -> TechSpec:
    base = TABLE1 if spec is None else spec
    return base.derive(overrides) if overrides else base


def table2(
    *,
    dna_packing: str = "paper",
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Table2Result:
    """Reproduce the paper's Table 2.

    ``dna_packing`` selects the CIM DNA unit count (``"paper"`` — the
    implied 600k-unit configuration — or ``"max"``, full crossbar
    packing).  The default spec reproduces the published numbers
    bit-for-bit; ``spec``/``overrides`` re-run the whole table under a
    derived technology.
    """
    from .core.evaluate import table2 as _table2

    return _table2(dna_packing=dna_packing,
                   spec=_resolve_spec(spec, overrides))


def evaluate(
    *,
    application: str = "dna",
    dna_packing: str = "paper",
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Dict[str, float]:
    """Evaluate one application on both architectures.

    Returns a flat metric mapping:
    ``{"conventional.<metric>", "cim.<metric>",
    "improvement.energy_delay", "improvement.computing_efficiency"}``
    for ``application`` (``"dna"`` or ``"math"``).
    """
    if application not in _APPLICATIONS:
        raise ReproError(
            f"application must be one of {_APPLICATIONS}, got {application!r}"
        )
    result = table2(dna_packing=dna_packing, spec=spec, overrides=overrides)
    metrics: Dict[str, float] = {}
    for architecture in ("conventional", "cim"):
        cell = result.metrics[(application, architecture)]
        for name, value in cell.as_dict().items():
            metrics[f"{architecture}.{name}"] = value
    factors = result.improvements[application]
    metrics["improvement.energy_delay"] = factors.energy_delay
    metrics["improvement.computing_efficiency"] = factors.computing_efficiency
    return metrics


def run_kernel(
    *,
    kernel: str,
    width: int = 32,
    operands: Optional[Mapping[str, Union[Sequence[int], np.ndarray]]] = None,
    backend: str = "functional",
    words: Optional[int] = None,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> BatchResult:
    """Execute a built-in engine kernel by name.

    ``kernel`` is one of the serving vocabulary names
    (:data:`repro.engine.KERNEL_BUILDERS`: ``"comparator"``,
    ``"word-compare"``, ``"adder"``, ``"cam-match"``, ...); ``operands``
    maps word-group names to integer word batches.  ``backend`` selects
    ``functional`` (vectorised), ``electrical`` (device-level
    reference) or ``analytical`` (Table 1 pricing; pass ``words``
    instead of operands).
    """
    from .engine import resolve_kernel
    from .engine import run_kernel as _run_kernel

    return _run_kernel(
        resolve_kernel(kernel, width),
        operands,
        backend=backend,
        words=words,
        spec=_resolve_spec(spec, overrides),
    )


def sweep(
    *,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    workers: Optional[int] = None,
    serial: bool = False,
    keep_ledgers: bool = True,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Run a design-space sweep over Table 1 parameters.

    ``grid`` maps dotted spec paths to value lists (default: the
    built-in 128-point paper grid).  Returns the
    :class:`~repro.analysis.dse.SweepResult`; points are digest-deduped
    and cached, and evaluation parallelises across processes unless
    ``serial``.
    """
    from .analysis.dse import paper_grid, run_sweep

    return run_sweep(
        dict(grid) if grid is not None else paper_grid(),
        base=_resolve_spec(spec, overrides),
        workers=workers,
        serial=serial,
        keep_ledgers=keep_ledgers,
    )


def plan(
    *,
    trace: Optional[Sequence[Any]] = None,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Build a CIM-vs-CPU offload plan for a workload trace.

    ``trace`` is a sequence of
    :class:`~repro.analysis.planner.TraceEntry` (default: the paper's
    built-in DNA + math workload trace).  Every entry is priced under
    both the CIM and CPU cost models; the returned
    :class:`~repro.analysis.planner.Plan` carries per-kernel placement,
    predicted energy-delay products, the Bitlet-style crossover batch
    size, and the backend ``ServeRequest(backend="auto")`` would route
    to.
    """
    from .analysis.planner import plan as _plan

    return _plan(trace, spec=_resolve_spec(spec, overrides))


def make_board(
    *,
    kind: Optional[str] = None,
    rows: int = 32,
    cols: int = 32,
    variability: float = 0.0,
    dac_bits: int = 0,
    adc_bits: int = 0,
    fault_rate: float = 0.0,
    seed: Optional[int] = None,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Build a crossbar board (:class:`~repro.board.base.Board`).

    ``kind`` is a registry key (``"ideal"``, ``"noisy"``,
    ``"hardware"``; default: the ``REPRO_BOARD`` environment variable
    or ``"ideal"``).  The instrument knobs (``variability``,
    ``dac_bits``, ``adc_bits``, ``fault_rate``, ``seed``) apply to the
    noisy board and must stay at their defaults for the other kinds.
    The board plugs into :class:`~repro.analog.AnalogCrossbar`
    (``board=``), :func:`repro.engine.run_kernel` (``board=``) and the
    read-margin analysis.
    """
    from .board import InstrumentProfile
    from .board import default_board_kind as _default_kind
    from .board import make_board as _make_board

    resolved = kind if kind is not None else _default_kind()
    instrumented = (variability, dac_bits, adc_bits, fault_rate) != (0.0, 0, 0, 0.0)
    options: Dict[str, Any] = {}
    if resolved == "noisy":
        options["profile"] = InstrumentProfile(
            variability=variability, dac_bits=dac_bits, adc_bits=adc_bits,
            fault_rate=fault_rate,
        )
        options["seed"] = seed
    elif instrumented or seed is not None:
        raise ReproError(
            f"instrument knobs (variability/dac_bits/adc_bits/fault_rate/"
            f"seed) only apply to the 'noisy' board, not {resolved!r}"
        )
    return _make_board(
        resolved, rows, cols, spec=_resolve_spec(spec, overrides), **options
    )


def list_boards(
    *,
    rows: int = 32,
    cols: int = 32,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Describe every registered board kind.

    Returns a list of dicts (kind, implementing class, summary, the
    digest of a reference ``rows x cols`` instance on the resolved
    spec, and whether the kind is the active default) — the same data
    the ``repro board`` CLI prints.
    """
    from .board import board_catalog

    return board_catalog(_resolve_spec(spec, overrides), rows=rows, cols=cols)


def solve_crossbar(
    *,
    conductances: Union[Sequence[Sequence[float]], np.ndarray],
    row_drive: Mapping[int, float],
    col_drive: Mapping[int, float],
    wire_resistance: Optional[float] = None,
    driver_resistance: float = 0.0,
    backend: str = "auto",
) -> CrossbarSolution:
    """Solve a passive crossbar electrically.

    With ``wire_resistance=None`` the lines are ideal conductors (the
    sneak-path model); a positive value switches to the IR-drop solver
    (per-segment line resistance, drivers attached through
    ``driver_resistance``, sparse/dense ``backend`` selection).
    """
    from .crossbar.solver import solve_ideal_wires, solve_with_wire_resistance

    g = np.asarray(conductances, dtype=float)
    if wire_resistance is None:
        return solve_ideal_wires(g, dict(row_drive), dict(col_drive))
    return solve_with_wire_resistance(
        g,
        dict(row_drive),
        dict(col_drive),
        wire_resistance=wire_resistance,
        driver_resistance=driver_resistance,
        backend=backend,
    )


def serve(
    *,
    input: Optional[IO[str]] = None,
    output: Optional[IO[str]] = None,
    shards: int = 1,
    replicas: int = 1,
    quota: Optional[int] = None,
    max_batch_size: int = 64,
    queue_limit: int = 1024,
    workers: Optional[int] = None,
    retries: int = 2,
    cache_capacity: int = 1024,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    metrics_port: Optional[int] = None,
) -> Any:
    """Serve newline-delimited JSON requests until EOF, then drain.

    The scriptable face of :mod:`repro.serve`: reads one request per
    line from ``input`` (default stdin), writes one JSON result per
    line to ``output`` (default stdout) in completion order, batching
    compatible requests into single engine executions.  With ``shards``
    / ``replicas`` / ``quota`` at non-defaults the loop fronts a
    sharded :class:`~repro.serve.cluster.ClusterServer` (consistent-hash
    routing, shared result cache, per-tenant quotas) instead of a
    single server.  With ``metrics_port`` a live telemetry endpoint
    (``/metrics`` + ``/healthz`` + ``/flight``) runs alongside for the
    duration (``0`` = any free port).  ``workers`` is a deprecated
    no-op (each server runs one engine execution at a time).  Returns
    the :class:`~repro.serve.ServeStats` status tally.
    """
    from .serve.frontend import serve_jsonl
    from .serve.server import ignored_option

    ignored_option("api.serve(workers=)", workers)
    return serve_jsonl(
        input if input is not None else sys.stdin,
        output if output is not None else sys.stdout,
        shards=shards,
        replicas=replicas,
        quota=quota,
        max_batch_size=max_batch_size,
        queue_limit=queue_limit,
        retries=retries,
        cache_capacity=cache_capacity,
        spec=_resolve_spec(spec, overrides),
        metrics_port=metrics_port,
    )


def request(
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
) -> Any:
    """Build one serving request (a :class:`~repro.serve.ServeRequest`).

    The uniform construction path — the JSONL frontend, the load
    generator, and the tests all build requests through this helper.
    ``backend`` defaults to ``"auto"`` (cost-aware routing via the
    offload planner); ``operands`` maps word-group names to integer
    word batches; ``overrides`` are dotted
    :meth:`~repro.spec.TechSpec.derive` paths applied per request;
    ``tenant`` names the submitting principal for cluster quotas.
    Submit the result through :func:`connect`'s client.
    """
    from .serve.request import make_request

    return make_request(
        kernel=kernel, id=id, kind=kind, width=width, operands=operands,
        backend=backend, params=params, overrides=overrides,
        deadline_s=deadline_s, trace_id=trace_id, tenant=tenant,
    )


def connect(
    *,
    target: Any = "local",
    shards: int = 1,
    replicas: int = 1,
    quota: Optional[int] = None,
    max_batch_size: int = 64,
    queue_limit: int = 1024,
    workers: Optional[int] = None,
    retries: int = 2,
    cache_capacity: int = 1024,
    spec: Optional[TechSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Open a serving client (a :class:`~repro.serve.client.Client`).

    The single entry point for submitting requests.  ``target`` picks
    the transport — ``"local"`` (in-process server on a private event
    loop), ``"cluster"`` (the sharded
    :class:`~repro.serve.cluster.ClusterServer`), ``"jsonl"`` (the full
    ``repro serve`` wire protocol over an in-process pipe), or an
    existing server instance.  ``shards``/``replicas``/``quota`` shape
    the cluster layer (``target="local"`` upgrades automatically when
    any is non-default); the remaining knobs mirror the server
    constructor.  The returned client is a context manager exposing
    ``submit`` / ``submit_many`` / ``stats`` / ``close``; pair it with
    :func:`request` to build submissions.  ``workers`` is a deprecated
    no-op (each server runs one engine execution at a time).
    """
    from .serve.client import connect as _connect
    from .serve.cluster import ClusterServer
    from .serve.server import KernelServer, ignored_option

    ignored_option("api.connect(workers=)", workers)
    if isinstance(target, (KernelServer, ClusterServer)):
        return _connect(target)
    return _connect(
        str(target),
        shards=shards,
        replicas=replicas,
        quota=quota,
        max_batch_size=max_batch_size,
        queue_limit=queue_limit,
        retries=retries,
        cache_capacity=cache_capacity,
        spec=_resolve_spec(spec, overrides),
    )
