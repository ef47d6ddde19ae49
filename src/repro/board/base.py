"""The abstract crossbar board: one interface from simulation to hardware.

The paper's CIM fabric is ultimately a *physical* crossbar board, but
historically every consumer in this repo talked to a different layer
directly: the analog VMM hit the solver, the engine built its own
``ImplyMachine``, and fault injection wrapped junction objects ad hoc.
:class:`Board` is the system-level seam between model and device that
Eva-CiM-style evaluation needs: program conductances, pulse single
cells, read I-V, run batched matvecs — the same verbs whether the array
behind them is an ideal simulation, a noisy virtual instrument, or (one
day) real hardware over a wire protocol.

Every board

* is sized at construction (``rows x cols``) and carries the active
  :class:`~repro.spec.TechSpec` (its memristor node prices every pulse);
* has a **digest-keyed identity** — SHA-256 over the board kind, its
  geometry, its configuration, and the spec digest — so sweep caches and
  artifacts can tell two boards apart exactly like they tell specs apart;
* keeps cheap running :class:`BoardStats` counters on the hot paths and
  renders them into a provenance-tagged
  :class:`~repro.spec.CostLedger` on demand (:meth:`Board.ledger`).

Concrete implementations: :class:`~repro.board.ideal.IdealSimBoard`
(bit-identical to the direct solver paths),
:class:`~repro.board.noisy.NoisyInstrumentBoard` (DAC/ADC quantization,
finite drive ranges, programming variability, faults, endurance), and
:class:`~repro.board.hardware.HardwareStubBoard` (the wire-protocol
placeholder for real hardware).
"""

from __future__ import annotations

import abc
import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import BoardError
from ..spec.costmodel import board_stats_ledger
from ..spec.ledger import CostLedger
from ..spec.techspec import TABLE1, TechSpec

if TYPE_CHECKING:
    from ..logic.sequencer import ImplyMachine

__all__ = ["Board", "BoardStats", "LineDrive"]

#: Mapping of driven line index -> voltage (undriven lines float), the
#: same convention as :mod:`repro.crossbar.solver`.
LineDrive = Mapping[int, float]


@dataclass
class BoardStats:
    """Running totals for one board instance.

    ``programs`` counts full-array programming operations, ``pulses``
    single-cell writes, ``device_writes`` individual device write pulses
    (``rows x cols`` per program), ``iv_reads`` electrical I-V solves and
    ``matvec_words`` input vectors pushed through the column-current
    paths.  ``energy``/``latency`` are in joules/seconds, priced from the
    board spec's memristor node.
    """

    programs: int = 0
    pulses: int = 0
    device_writes: int = 0
    iv_reads: int = 0
    matvec_words: int = 0
    energy: float = 0.0
    latency: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready snapshot."""
        return {
            "programs": self.programs,
            "pulses": self.pulses,
            "device_writes": self.device_writes,
            "iv_reads": self.iv_reads,
            "matvec_words": self.matvec_words,
            "energy_j": self.energy,
            "latency_s": self.latency,
        }


class Board(abc.ABC):
    """Abstract rows x cols crossbar-array board.

    Subclasses implement the electrical behaviour behind five verbs —
    :meth:`program`, :meth:`pulse`, :meth:`read_iv`,
    :meth:`column_currents` (plus its batched/variant forms) and
    :meth:`reset` — while this base class owns geometry validation, cost
    accounting, the digest identity, and :meth:`imply_machine` (the
    stateful-logic face the engine's electrical executor acquires its
    machine through).
    """

    #: Registry key of the concrete implementation (``"ideal"``, ...).
    kind: str = "abstract"

    def __init__(
        self,
        rows: int,
        cols: int,
        *,
        spec: Optional[TechSpec] = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise BoardError(
                f"board dimensions must be positive, got {rows}x{cols}"
            )
        self.rows = int(rows)
        self.cols = int(cols)
        self.spec = spec if spec is not None else TABLE1
        self.stats = BoardStats()

    # -- identity ----------------------------------------------------------

    def config(self) -> Dict[str, Any]:
        """Board-specific configuration (folded into :attr:`digest`).

        Subclasses with knobs beyond geometry override this; values must
        be JSON-serialisable.
        """
        return {}

    @property
    def digest(self) -> str:
        """SHA-256 identity over kind, geometry, config, and spec digest."""
        canonical = json.dumps(
            {
                "kind": self.kind,
                "rows": self.rows,
                "cols": self.cols,
                "config": self.config(),
                "spec": self.spec.digest,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def short_digest(self) -> str:
        """First 12 hex chars of :attr:`digest` (display form)."""
        return self.digest[:12]

    def describe(self) -> str:
        """One-line human identity for CLI output and logs."""
        return (
            f"{self.kind} board {self.rows}x{self.cols} "
            f"[{self.short_digest}] on spec {self.spec.short_digest}"
        )

    # -- cost accounting ---------------------------------------------------

    def charge(
        self,
        *,
        energy: float = 0.0,
        latency: float = 0.0,
        device_writes: int = 0,
    ) -> None:
        """Record externally-incurred cost against this board.

        Consumers that drive the board's cells through their own access
        protocol (e.g. :class:`~repro.crossbar.memory.CrossbarMemory`)
        use this to keep the board's ledger authoritative.
        """
        self.stats.energy += energy
        self.stats.latency += latency
        self.stats.device_writes += device_writes

    def ledger(self) -> CostLedger:
        """Provenance-tagged cost snapshot of everything this board did.

        Rendering lives in
        :func:`~repro.spec.costmodel.board_stats_ledger`, the shared
        cost-model seam, so board billing and planner estimates agree
        on labels and provenance strings.
        """
        return board_stats_ledger(self.stats, self.spec.memristor)

    # -- internal accounting helpers --------------------------------------

    def _charge_program(self) -> None:
        tech = self.spec.memristor
        writes = self.rows * self.cols
        self.stats.programs += 1
        self.stats.device_writes += writes
        self.stats.energy += writes * tech.write_energy
        self.stats.latency += tech.write_time

    def _charge_pulse(self) -> None:
        tech = self.spec.memristor
        self.stats.pulses += 1
        self.stats.device_writes += 1
        self.stats.energy += tech.write_energy
        self.stats.latency += tech.write_time

    def _charge_read(
        self, power: float, reads: int = 1, words: int = 0
    ) -> None:
        tech = self.spec.memristor
        self.stats.iv_reads += reads
        self.stats.matvec_words += words
        self.stats.energy += power * tech.write_time
        self.stats.latency += reads * tech.write_time

    def _check_conductances(self, conductances: np.ndarray) -> np.ndarray:
        g = np.asarray(conductances, dtype=float)
        if g.shape != (self.rows, self.cols):
            raise BoardError(
                f"conductance shape {g.shape} does not match the "
                f"{self.rows}x{self.cols} board"
            )
        if not np.isfinite(g).all() or (g < 0).any():
            raise BoardError("conductances must be finite and non-negative")
        return g

    def _check_pulse(self, row: Any, col: Any,
                     conductance: float) -> Tuple[int, int, float]:
        """A pulse's cell as plain ints and its target as a float,
        checked before anything is written.  NumPy integers pass; a bool
        or a fractional index would address a whole row, no cell or the
        wrong one, and a target must be a real number (not a bool, a
        string, ``None`` or a sequence), finite and non-negative, as
        :meth:`program` requires."""
        for index in (row, col):
            if (isinstance(index, bool)
                    or not isinstance(index, (int, np.integer))):
                raise BoardError(f"cell index {index!r} must be an integer")
        row, col = int(row), int(col)
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise BoardError(
                f"cell ({row}, {col}) outside the {self.rows}x{self.cols} board"
            )
        if (isinstance(conductance, bool)
                or not isinstance(conductance, numbers.Real)):
            raise BoardError(
                f"pulse target conductance must be a real number, got "
                f"{type(conductance).__name__} ({conductance!r})")
        if not np.isfinite(conductance) or conductance < 0:
            raise BoardError(
                f"pulse target conductance must be finite and >= 0, "
                f"got {conductance!r}"
            )
        return row, col, float(conductance)

    def _check_voltages(self, voltages: np.ndarray, batched: bool) -> np.ndarray:
        v = np.asarray(voltages, dtype=float)
        if batched:
            if v.ndim != 2 or v.shape[1] != self.rows:
                raise BoardError(
                    f"voltage batch shape {v.shape} does not match "
                    f"(n, {self.rows})"
                )
        elif v.shape != (self.rows,):
            raise BoardError(
                f"voltage vector shape {v.shape} does not match "
                f"{self.rows} rows"
            )
        if not np.isfinite(v).all():
            bad = tuple(np.argwhere(~np.isfinite(v))[0])
            where = (f"vector {bad[0]}, row {bad[1]}" if batched
                     else f"row {bad[0]}")
            raise BoardError(f"drive voltage at {where} must be finite, "
                             f"got {float(v[bad])!r}")
        return v

    # -- the board verbs ---------------------------------------------------

    @abc.abstractmethod
    def program(self, conductances: np.ndarray) -> None:
        """Program the whole array from a (rows, cols) siemens matrix."""

    @abc.abstractmethod
    def pulse(self, row: int, col: int, conductance: float) -> None:
        """Write one cell to a target conductance (a single write pulse)."""

    @abc.abstractmethod
    def read_conductances(self) -> np.ndarray:
        """The array's current conductance matrix (copy, siemens)."""

    @abc.abstractmethod
    def read_iv(
        self,
        row_drive: LineDrive,
        col_drive: LineDrive,
        *,
        wire_resistance: Optional[float] = None,
        driver_resistance: float = 0.0,
        backend: str = "auto",
    ) -> Any:
        """Solve one I-V operating point (drive lines, float the rest).

        Returns a :class:`~repro.crossbar.solver.CrossbarSolution`.
        """

    @abc.abstractmethod
    def read_iv_variants(
        self,
        row_drive: LineDrive,
        col_drive: LineDrive,
        variants: Sequence[Tuple[int, int, float]],
        *,
        wire_resistance: float = 1.0,
        driver_resistance: float = 0.0,
        backend: str = "auto",
    ) -> Tuple[Any, List[Any]]:
        """Solve a base operating point plus single-cell what-if variants
        (the read-margin primitive; rank-1 updates on capable boards)."""

    @abc.abstractmethod
    def column_currents(
        self,
        voltages: np.ndarray,
        *,
        wire_resistance: Optional[float] = None,
        backend: str = "auto",
    ) -> np.ndarray:
        """Bitline currents with every row driven at ``voltages`` and
        every column grounded — the analog VMM read."""

    @abc.abstractmethod
    def column_currents_many(
        self,
        voltages: np.ndarray,
        *,
        wire_resistance: Optional[float] = None,
        backend: str = "auto",
    ) -> np.ndarray:
        """Batched :meth:`column_currents`: ``(n, rows) -> (n, cols)``."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return every cell to its erased state and zero the stats."""

    # -- stateful logic ----------------------------------------------------

    def imply_machine(self) -> "ImplyMachine":
        """A fresh IMPLY register file running on this board's devices.

        The engine's electrical executor acquires its machine here, so
        swapping the board swaps the device population underneath every
        stateful-logic step.  The base implementation is the ideal
        machine on the board spec's memristor profile.
        """
        # Imported here: repro.logic pulls in crossbar.memory, which
        # lives below the board seam — a module-level import would cycle.
        from ..logic.sequencer import ImplyMachine

        return ImplyMachine(technology=self.spec.memristor)
