"""Pluggable executors: one compiled kernel, three ways to run it.

The engine's execution contract is a single call —
:func:`run_kernel` — behind which three backends live:

``functional``
    Vectorised truth-table semantics: the dense instruction stream
    replays across an N-word batch as NumPy bitwise ops on packed
    operand arrays, one array op per instruction instead of one Python
    step per word per instruction.  Bit-identical to the electrical
    reference by construction (IMP is ``q <- !p | q`` in both), and the
    backend every app uses by default.

``functional_bitplane``
    The same truth-table semantics with the batch transposed into
    64-word uint64 bit planes (:mod:`repro.engine.bitplane`), so one
    bitwise op per instruction covers 64 words per lane — ~15x the
    ``functional`` path on kilo-word batches, still bit-identical.
    Select it per call or process-wide via the
    :data:`DEFAULT_BACKEND_ENV` environment variable.

``electrical``
    The fidelity reference: each word executes on a fresh
    :class:`~repro.logic.sequencer.ImplyMachine` register file, actually
    driving the Fig 5(a) circuit, then the whole batch is cross-checked
    against the functional backend (any divergence raises).

``analytical``
    No simulation at all: the kernel is priced from its attached cost
    model (e.g. :class:`~repro.logic.comparator.ComparatorCost` or
    :class:`~repro.logic.adders.TCAdderCost`), falling back to
    steps x technology constants — the Table 2 accounting path.

Cost convention (all backends): the architecture is lock-step SIMD, so
**latency** is charged once per batch and **energy** once per word —
the asymmetry :class:`repro.sim.simd.SIMDRowExecutor` models
electrically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..devices.technology import MEMRISTOR_5NM, MemristorTechnology
from ..errors import EngineError
from ..logic.sequencer import ImplyMachine
from ..obs.context import current_trace
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..spec.costmodel import CIMCostModel
from ..spec.ledger import CostLedger
from .bitplane import BitplaneExecutor
from .kernel import OP_FALSE, OP_IMP, OP_LOAD, CompiledKernel
from .packing import assemble_words, pack_words

#: Names accepted by :func:`run_kernel`'s ``backend`` argument.
BACKENDS = ("functional", "functional_bitplane", "electrical", "analytical")

#: Environment variable naming the process-wide default backend
#: (used when a caller leaves ``run_kernel(backend=...)`` unset).
DEFAULT_BACKEND_ENV = "REPRO_ENGINE_BACKEND"


def default_backend() -> str:
    """Backend used when callers don't pick one explicitly.

    ``functional`` unless :data:`DEFAULT_BACKEND_ENV` names another
    registered backend — the deployment knob that flips a whole process
    onto the bit-plane path without touching call sites.
    """
    name = os.environ.get(DEFAULT_BACKEND_ENV, "").strip()
    if not name:
        return "functional"
    if name not in BACKENDS:
        raise EngineError(
            f"{DEFAULT_BACKEND_ENV}={name!r} is not a registered backend; "
            f"choose one of {BACKENDS}"
        )
    return name

_REGISTRY = get_registry()
_DISPATCH_FAMILY = _REGISTRY.counter(
    "engine_executor_dispatch_total", "kernel executions dispatched, by backend")
_DISPATCH = {name: _DISPATCH_FAMILY.labels(backend=name) for name in BACKENDS}
_WORDS = _REGISTRY.counter(
    "engine_words_executed_total", "operand words pushed through executors")


@dataclass
class BatchResult:
    """Outcome of one kernel execution over an N-word batch.

    ``outputs`` maps output signal name -> ``(words,)`` uint8 bit array
    (``None`` for the analytical backend, which never computes values).
    ``latency`` is one lock-step batch; ``energy`` sums every word.
    ``ledger`` carries the same energy/latency as provenance-tagged
    :class:`~repro.spec.CostLedger` entries.
    """

    kernel: str
    backend: str
    words: int
    steps_per_word: int
    energy: float
    latency: float
    outputs: Optional[Dict[str, np.ndarray]]
    word_outputs: Mapping[str, Sequence[str]]
    ledger: Optional[CostLedger] = None

    def word(self, group: str) -> np.ndarray:
        """Assemble one multi-bit output group into uint64 words.

        The executors' lanes hold 0/1 by construction, so they are not
        checked again (:func:`~repro.engine.packing.unpack_words` is the
        checking entry point for outside bit matrices).
        """
        if self.outputs is None:
            raise EngineError(
                f"{self.backend} backend produced no output values"
            )
        members = self.word_outputs.get(group)
        if members is None:
            raise EngineError(
                f"unknown output group {group!r}; have {sorted(self.word_outputs)}"
            )
        return assemble_words([self.outputs[m] for m in members])

    def bit(self, signal: str) -> np.ndarray:
        """One output signal's bit lane across the batch."""
        if self.outputs is None:
            raise EngineError(
                f"{self.backend} backend produced no output values"
            )
        if signal not in self.outputs:
            raise EngineError(
                f"unknown output signal {signal!r}; have {sorted(self.outputs)}"
            )
        return self.outputs[signal]

    def split(self, sizes: Sequence[int]) -> "List[BatchResult]":
        """Split a coalesced batch back into per-submitter results.

        The inverse of :func:`coalesce_operand_batches`: slice the
        output lanes into consecutive chunks of *sizes* words.  Energy
        is per-word, so each chunk gets its word share; latency is
        charged once per lock-step batch, so every chunk keeps the full
        batch latency — exactly what each sub-batch would have been
        billed had it run alone (the serve layer's correctness
        contract).
        """
        sizes = [int(s) for s in sizes]
        if any(s < 1 for s in sizes):
            raise EngineError(f"split sizes must be >= 1, got {sizes}")
        if sum(sizes) != self.words:
            raise EngineError(
                f"split sizes sum to {sum(sizes)}, batch has {self.words} words"
            )
        energy_per_word = self.energy / self.words
        parts: List[BatchResult] = []
        offset = 0
        for size in sizes:
            outputs: Optional[Dict[str, np.ndarray]] = None
            if self.outputs is not None:
                outputs = {
                    signal: lane[offset:offset + size].copy()
                    for signal, lane in self.outputs.items()
                }
            ledger = CostLedger()
            ledger.energy(
                self.kernel, energy_per_word * size,
                f"{size} of {self.words} coalesced words")
            ledger.latency(
                self.kernel, self.latency,
                "lock-step batch (shared across coalesced requests)")
            parts.append(BatchResult(
                kernel=self.kernel,
                backend=self.backend,
                words=size,
                steps_per_word=self.steps_per_word,
                energy=energy_per_word * size,
                latency=self.latency,
                outputs=outputs,
                word_outputs=self.word_outputs,
                ledger=ledger,
            ))
            offset += size
        return parts


def _prepare_input_bits(
    kernel: CompiledKernel,
    operands: Mapping[str, Union[Sequence[int], np.ndarray]],
) -> np.ndarray:
    """Resolve an operand mapping into the ``(inputs, words)`` bit matrix.

    Keys may be word groups from ``kernel.word_inputs`` (values are
    integer words, packed here) or raw input signal names (values are
    bit vectors).  Every input signal must be covered exactly once.
    """
    lanes: Dict[str, np.ndarray] = {}
    words: Optional[int] = None

    def put(signal: str, bits: np.ndarray, source: str) -> None:
        nonlocal words
        if signal in lanes:
            raise EngineError(
                f"input signal {signal!r} supplied twice (via {source!r})"
            )
        if words is None:
            words = bits.shape[0]
        elif bits.shape[0] != words:
            raise EngineError(
                f"operand {source!r} has {bits.shape[0]} words, expected {words}"
            )
        lanes[signal] = bits

    for name, values in operands.items():
        group = kernel.word_inputs.get(name)
        if group is not None and not (len(group) == 1 and group[0] == name):
            packed = pack_words(values, len(group))
            for lane, signal in enumerate(group):
                put(signal, packed[:, lane], name)
        elif name in kernel.inputs:
            bits = np.atleast_1d(np.asarray(values, dtype=np.uint8))
            if bits.ndim != 1:
                raise EngineError(
                    f"input {name!r} must be a flat bit vector"
                )
            if bits.size and not np.isin(bits, (0, 1)).all():
                raise EngineError(f"input {name!r} must hold bits (0/1)")
            put(name, bits, name)
        else:
            raise EngineError(
                f"{kernel.name}: unknown operand {name!r}; word groups: "
                f"{sorted(kernel.word_inputs)}, signals: {list(kernel.inputs)}"
            )
    missing = [s for s in kernel.inputs if s not in lanes]
    if missing:
        raise EngineError(f"{kernel.name}: missing inputs {missing}")
    if words is None or words == 0:
        raise EngineError(f"{kernel.name}: empty operand batch")
    return np.stack([lanes[s] for s in kernel.inputs], axis=0)


def coalesce_operand_batches(
    batches: Sequence[Mapping[str, Union[Sequence[int], np.ndarray]]],
) -> Tuple[Dict[str, np.ndarray], List[int]]:
    """Merge per-request operand mappings into one batch's operands.

    The serve layer's coalescing entry point: *batches* is one operand
    mapping per request (all naming the same operand keys); the result
    is ``(merged, sizes)`` where *merged* concatenates each operand
    across requests in order and *sizes* records each request's word
    count — the argument :meth:`BatchResult.split` takes to undo the
    merge after one engine execution.
    """
    if not batches:
        raise EngineError("coalesce needs at least one operand batch")
    keys = sorted(batches[0])
    if not keys:
        raise EngineError("coalesce: empty operand mapping")
    merged: Dict[str, List[np.ndarray]] = {key: [] for key in keys}
    sizes: List[int] = []
    for index, operands in enumerate(batches):
        if sorted(operands) != keys:
            raise EngineError(
                f"coalesce: operand batch {index} has keys "
                f"{sorted(operands)}, expected {keys}"
            )
        words: Optional[int] = None
        for key in keys:
            values = np.atleast_1d(np.asarray(operands[key]))
            if values.ndim != 1:
                raise EngineError(
                    f"coalesce: operand {key!r} of batch {index} must be flat"
                )
            if words is None:
                words = int(values.shape[0])
            elif int(values.shape[0]) != words:
                raise EngineError(
                    f"coalesce: batch {index} operand {key!r} has "
                    f"{values.shape[0]} words, expected {words}"
                )
            merged[key].append(values)
        if not words:
            raise EngineError(f"coalesce: batch {index} is empty")
        sizes.append(words)
    return (
        {key: np.concatenate(chunks) for key, chunks in merged.items()},
        sizes,
    )


# -- backends --------------------------------------------------------------


def _step_ledger(
    kernel_name: str, steps: int, words: int,
    technology: MemristorTechnology,
) -> CostLedger:
    """Provenance ledger for the step-counted simulation backends."""
    ledger = CostLedger()
    ledger.energy(
        kernel_name, steps * words * technology.write_energy,
        f"{steps} steps x {words} words x memristor.write_energy")
    ledger.latency(
        kernel_name, steps * technology.write_time,
        f"{steps} steps x memristor.write_time (lock-step batch)")
    return ledger


def _functional_outputs(
    kernel: CompiledKernel, input_bits: np.ndarray
) -> Dict[str, np.ndarray]:
    """Replay the dense instruction stream across the batch."""
    words = input_bits.shape[1]
    state = np.zeros((kernel.n_registers, words), dtype=np.uint8)
    for kind, a, b in kernel.ops:
        if kind == OP_IMP:
            # b <- a IMP b  ==  b |= !a
            np.bitwise_or(state[b], state[a] ^ 1, out=state[b])
        elif kind == OP_FALSE:
            state[a] = 0
        else:  # OP_LOAD
            state[a] = input_bits[b]
    return {
        signal: state[register].copy()
        for signal, register in kernel.output_registers.items()
    }


class FunctionalBatchExecutor:
    """Vectorised functional backend (the default)."""

    name = "functional"

    def __init__(self, technology: MemristorTechnology = MEMRISTOR_5NM) -> None:
        self.technology = technology

    def run(self, kernel: CompiledKernel, input_bits: np.ndarray) -> BatchResult:
        words = input_bits.shape[1]
        outputs = _functional_outputs(kernel, input_bits)
        steps = kernel.step_count
        return BatchResult(
            kernel=kernel.name,
            backend=self.name,
            words=words,
            steps_per_word=steps,
            energy=steps * words * self.technology.write_energy,
            latency=steps * self.technology.write_time,
            outputs=outputs,
            word_outputs=kernel.word_outputs,
            ledger=_step_ledger(kernel.name, steps, words, self.technology),
        )


class ElectricalBatchExecutor:
    """Per-word electrical backend — the bit-exact fidelity reference.

    The machine each word runs on is acquired through a
    :class:`~repro.board.base.Board` when one is supplied: the board's
    :meth:`~repro.board.base.Board.imply_machine` decides the device
    population (ideal devices, or a seeded variability model on a noisy
    board), the board's spec prices the run, and the cost is charged to
    the board's ledger.  Without a board the executor builds ideal
    machines directly, exactly as before.
    """

    name = "electrical"

    def __init__(
        self,
        technology: MemristorTechnology = MEMRISTOR_5NM,
        voltages=None,
        device_factory=None,
        *,
        board=None,
    ) -> None:
        if board is not None and (voltages is not None
                                  or device_factory is not None):
            raise EngineError(
                "pass either board= or voltages=/device_factory=, not both: "
                "a board owns its drive voltages and device population"
            )
        self.board = board
        self.technology = board.spec.memristor if board is not None else technology
        self.voltages = voltages
        self.device_factory = device_factory

    def _machine(self) -> ImplyMachine:
        if self.board is not None:
            return self.board.imply_machine()
        kwargs = {"technology": self.technology}
        if self.voltages is not None:
            kwargs["voltages"] = self.voltages
        if self.device_factory is not None:
            kwargs["device_factory"] = self.device_factory
        return ImplyMachine(**kwargs)

    def run(self, kernel: CompiledKernel, input_bits: np.ndarray) -> BatchResult:
        words = input_bits.shape[1]
        signals = list(kernel.output_registers)
        collected = {s: np.empty(words, dtype=np.uint8) for s in signals}
        for w in range(words):
            inputs = {
                signal: int(input_bits[lane, w])
                for lane, signal in enumerate(kernel.inputs)
            }
            report = self._machine().run(kernel.program, inputs)
            for signal in signals:
                collected[signal][w] = report.outputs[signal]
        golden = _functional_outputs(kernel, input_bits)
        for signal in signals:
            if not np.array_equal(collected[signal], golden[signal]):
                raise EngineError(
                    f"{kernel.name}: electrical/functional divergence on "
                    f"output {signal!r}"
                )
        steps = kernel.step_count
        energy = steps * words * self.technology.write_energy
        latency = steps * self.technology.write_time
        if self.board is not None:
            self.board.charge(
                energy=energy, latency=latency, device_writes=steps * words
            )
        return BatchResult(
            kernel=kernel.name,
            backend=self.name,
            words=words,
            steps_per_word=steps,
            energy=energy,
            latency=latency,
            outputs=collected,
            word_outputs=kernel.word_outputs,
            ledger=_step_ledger(kernel.name, steps, words, self.technology),
        )


class AnalyticalCostExecutor:
    """Prices a kernel without simulating it (no output values).

    The pricing itself lives in
    :class:`~repro.spec.costmodel.CIMCostModel` — the engine-facing and
    planner-facing estimates are one code path, so a plan's *predicted*
    ledger equals this executor's *executed* ledger by construction.
    """

    name = "analytical"

    def __init__(self, technology: MemristorTechnology = MEMRISTOR_5NM) -> None:
        self.technology = technology
        self._model = CIMCostModel(technology=technology)

    def run(self, kernel: CompiledKernel, words: int) -> BatchResult:
        if words < 1:
            raise EngineError(f"analytical batch needs words >= 1, got {words}")
        pricing = self._model.price(kernel, words)
        return BatchResult(
            kernel=kernel.name,
            backend=self.name,
            words=words,
            steps_per_word=pricing.steps,
            energy=pricing.energy_per_word * words,
            latency=pricing.latency,
            outputs=None,
            word_outputs=kernel.word_outputs,
            ledger=pricing.ledger,
        )


_EXECUTOR_CLASSES = {
    "functional": FunctionalBatchExecutor,
    "functional_bitplane": BitplaneExecutor,
    "electrical": ElectricalBatchExecutor,
    "analytical": AnalyticalCostExecutor,
}


def run_kernel(
    kernel: CompiledKernel,
    operands: Optional[Mapping[str, Union[Sequence[int], np.ndarray]]] = None,
    *,
    backend: Optional[str] = None,
    words: Optional[int] = None,
    technology: Optional[MemristorTechnology] = None,
    spec=None,
    executor=None,
    board=None,
    charge_span: bool = True,
) -> BatchResult:
    """Execute *kernel* over an operand batch on the chosen *backend*.

    *operands* maps word-group names to integer word arrays (packed via
    :mod:`repro.engine.packing`) and/or raw input signals to bit
    vectors.  The analytical backend takes no operands — pass *words*
    instead (with operands given, their batch size wins).

    The device profile defaults to Table 1's memristor; pass either
    *technology* directly or a :class:`~repro.spec.TechSpec` via *spec*
    (whose ``memristor`` node is used — supplying both is an error).

    *backend* defaults to :func:`default_backend` — ``functional``
    unless the ``REPRO_ENGINE_BACKEND`` environment variable names
    another backend (e.g. ``functional_bitplane`` for the bit-sliced
    fast path).

    *board* (a :class:`~repro.board.base.Board`) routes the electrical
    backend through that board's device population and charges the run
    to its ledger; it implies ``backend="electrical"`` when no backend
    is named and is rejected for the other backends (they never touch
    devices).

    Dispatch is metered on ``engine_executor_dispatch_total{backend=}``
    and wrapped in an ``engine/<kernel>`` span so ``--profile``
    attributes cost to kernels; ``charge_span=False`` leaves the span's
    simulated totals to a caller that keeps its own ledger.
    """
    if backend is None:
        backend = "electrical" if board is not None else default_backend()
    if backend not in _EXECUTOR_CLASSES:
        raise EngineError(
            f"unknown backend {backend!r}; choose one of {BACKENDS}"
        )
    if technology is not None and spec is not None:
        raise EngineError("pass either technology= or spec=, not both")
    if technology is None:
        technology = spec.memristor if spec is not None else MEMRISTOR_5NM
    if board is not None:
        if backend != "electrical":
            raise EngineError(
                f"board= routes runs through physical devices, which only "
                f"the electrical backend touches (got backend={backend!r})"
            )
        if executor is not None:
            raise EngineError("pass either board= or executor=, not both")
        executor = ElectricalBatchExecutor(board=board)
    if executor is None:
        executor = _EXECUTOR_CLASSES[backend](technology)
    input_bits: Optional[np.ndarray] = None
    if operands:
        input_bits = _prepare_input_bits(kernel, operands)
        words = input_bits.shape[1]
    if words is None:
        raise EngineError(
            f"{kernel.name}: supply operands (or words= for analytical runs)"
        )
    _DISPATCH[backend].inc()
    _WORDS.inc(words)
    # Request identity, when a caller (the serve batcher) bound one into
    # the execution context, tags the engine span so profile output can
    # be joined back to individual serve requests.
    span_attrs: Dict[str, Any] = {"backend": backend, "words": words}
    trace = current_trace()
    if trace is not None:
        span_attrs["trace_id"] = trace.trace_id
        if trace.request_id:
            span_attrs["request_id"] = trace.request_id
    with get_tracer().span(f"engine/{kernel.name}", **span_attrs) as span:
        if backend == "analytical":
            result = executor.run(kernel, words)
        else:
            if input_bits is None:
                raise EngineError(
                    f"{kernel.name}: the {backend} backend needs operand values"
                )
            result = executor.run(kernel, input_bits)
        if charge_span:
            span.add_sim(
                energy=result.energy,
                latency=result.latency,
                steps=result.steps_per_word * result.words,
            )
    return result
