"""The noisy virtual instrument: quantization, ranges, variability, faults.

:class:`NoisyInstrumentBoard` speaks the same five verbs as the ideal
board but layers the non-idealities a real measurement setup imposes
between the model and the array, in the order a physical signal chain
applies them:

* **programming** — conductance targets clip into the programmable
  window, quantize through a finite-resolution DAC, then pick up
  lognormal programming variability (the write-verify residual);
* **faults** — stuck-at cells (SA0 pins ``g_min``, SA1 pins ``g_max``)
  and transition faults (TF0 cannot increase conductance, TF1 cannot
  decrease it), using the same :class:`~repro.reliability.faults.
  FaultType` vocabulary as the March-test layer;
* **endurance** — every full-array program cycles every cell once; a
  cell past its endurance budget (Section IV.A quotes >1e12 for VCM)
  wears out and sticks at its last value;
* **drive** — input voltages clip into the finite drive range and
  quantize through the drive DAC;
* **sensing** — bitline currents clip at the ADC full scale and
  quantize to its resolution.

All randomness flows through one explicit :class:`numpy.random.Generator`
(``rng=`` or ``seed=``), so variability campaigns are reproducible and
the board digest identifies a seeded configuration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..devices.base import IdealBipolarMemristor
from ..devices.variability import VariabilityModel, VariationSpec
from ..errors import BoardError
from ..spec.techspec import TechSpec
from .base import Board, LineDrive
from .ideal import IdealSimBoard

# Imported where used: repro.logic and repro.reliability sit above
# crossbar.memory, which sits above the board — a module-level import
# would cycle.
if TYPE_CHECKING:
    from ..logic.sequencer import ImplyMachine
    from ..reliability.faults import FaultType

__all__ = ["InstrumentProfile", "NoisyInstrumentBoard"]


@dataclass(frozen=True)
class InstrumentProfile:
    """Signal-chain characteristics of the virtual instrument.

    Attributes
    ----------
    g_min, g_max:
        Programmable conductance window in siemens.
    dac_bits:
        Resolution of the programming/drive DACs (0 = continuous).
    adc_bits:
        Resolution of the bitline-current ADC (0 = continuous).
    v_max:
        Largest drivable |voltage| in volts (0 disables clipping).
    i_max:
        ADC full-scale bitline current in amperes (0 = auto-range to
        ``rows * g_max * v_max``, the worst-case column current).
    variability:
        Lognormal programming-error sigma (write-verify residual).
    threshold_sigma:
        Device threshold spread for the board's IMPLY machines.
    fault_rate:
        Per-cell probability of a manufacturing stuck/transition fault.
    endurance:
        Program cycles before a cell wears out (``inf`` = never).
    """

    g_min: float = 1e-6
    g_max: float = 1e-3
    dac_bits: int = 0
    adc_bits: int = 0
    v_max: float = 0.0
    i_max: float = 0.0
    variability: float = 0.0
    threshold_sigma: float = 0.0
    fault_rate: float = 0.0
    endurance: float = float("inf")

    def __post_init__(self) -> None:
        if self.g_min <= 0 or self.g_max <= self.g_min:
            raise BoardError(
                f"need 0 < g_min < g_max (got {self.g_min}, {self.g_max})"
            )
        if self.dac_bits < 0 or self.adc_bits < 0:
            raise BoardError("dac_bits/adc_bits must be >= 0")
        if self.dac_bits > 24 or self.adc_bits > 24:
            raise BoardError("dac_bits/adc_bits beyond 24 bits is not a "
                             "plausible instrument")
        if self.v_max < 0 or self.i_max < 0:
            raise BoardError("v_max/i_max must be >= 0")
        if self.variability < 0 or self.threshold_sigma < 0:
            raise BoardError("variability sigmas must be >= 0")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise BoardError(
                f"fault_rate must lie in [0, 1], got {self.fault_rate}"
            )
        if self.endurance <= 0:
            raise BoardError(f"endurance must be positive, got {self.endurance}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``inf`` endurance encodes as ``null``)."""
        out: Dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        if np.isinf(self.endurance):
            out["endurance"] = None
        return out


class NoisyInstrumentBoard(Board):
    """A virtual noisy crossbar board (DAC/ADC + variability + faults).

    Parameters
    ----------
    rows, cols:
        Array geometry.
    spec:
        Active :class:`~repro.spec.TechSpec` (prices pulses).
    profile:
        The :class:`InstrumentProfile`; defaults model a clean but
        finite instrument (continuous converters, no variability).
    rng / seed:
        Explicit :class:`numpy.random.Generator` or a seed for one —
        every stochastic effect (manufacturing faults, programming
        noise, device sampling) draws from it, in construction order,
        so equal seeds reproduce equal boards.
    """

    kind = "noisy"

    def __init__(
        self,
        rows: int,
        cols: int,
        *,
        spec: Optional[TechSpec] = None,
        profile: Optional[InstrumentProfile] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(rows, cols, spec=spec)
        if rng is not None and seed is not None:
            raise BoardError("pass either rng= or seed=, not both")
        self.profile = profile if profile is not None else InstrumentProfile()
        self._seed = seed
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._g = np.full((rows, cols), self.profile.g_min)
        self._cycles = np.zeros((rows, cols), dtype=np.int64)
        self._sa0 = np.zeros((rows, cols), dtype=bool)
        self._sa1 = np.zeros((rows, cols), dtype=bool)
        self._tf0 = np.zeros((rows, cols), dtype=bool)
        self._tf1 = np.zeros((rows, cols), dtype=bool)
        self.faults: Dict[Tuple[int, int], FaultType] = {}
        if self.profile.fault_rate > 0:
            self._manufacture_faults()
        # The electrical core is an ideal board over the *degraded*
        # conductances; it owns the stats block (shared, so every charge
        # lands in one place regardless of which face incurred it).
        self._solver = IdealSimBoard(rows, cols, spec=self.spec)
        self._solver._load(self._g)
        self.stats = self._solver.stats

    # -- identity ----------------------------------------------------------

    def config(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"profile": self.profile.as_dict()}
        out["seed"] = self._seed
        return out

    # -- faults ------------------------------------------------------------

    def _manufacture_faults(self) -> None:
        """Sample per-cell manufacturing defects from the board rng."""
        from ..reliability.faults import FaultType

        draw = self._rng.random((self.rows, self.cols))
        kinds = list(FaultType)
        for row, col in zip(*np.nonzero(draw < self.profile.fault_rate)):
            kind = kinds[int(self._rng.integers(0, len(kinds)))]
            self._set_fault(int(row), int(col), kind)

    def _set_fault(self, row: int, col: int, kind: FaultType) -> None:
        from ..reliability.faults import FaultType

        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise BoardError(
                f"cell ({row}, {col}) outside the {self.rows}x{self.cols} board"
            )
        if (row, col) in self.faults:
            raise BoardError(f"cell ({row}, {col}) already faulty")
        self.faults[(row, col)] = kind
        mask = {
            FaultType.SA0: self._sa0,
            FaultType.SA1: self._sa1,
            FaultType.TF0: self._tf0,
            FaultType.TF1: self._tf1,
        }[kind]
        mask[row, col] = True
        if kind is FaultType.SA0:
            self._g[row, col] = self.profile.g_min
        elif kind is FaultType.SA1:
            self._g[row, col] = self.profile.g_max

    def inject_faults(
        self, faults: Mapping[Tuple[int, int], FaultType]
    ) -> None:
        """Pin the given cells to the given fault models.

        Accepts the mapping produced by
        :meth:`repro.reliability.faults.FaultInjector.fault_map`, so a
        fault population characterised at the memory level replays onto
        the analog board.
        """
        try:
            for (row, col), kind in sorted(faults.items()):
                self._set_fault(row, col, kind)
        finally:
            # Reads go through the inner board: show it the stuck cells
            # (a defect, not a write, so nothing is charged).
            self._solver._load(self._g)

    def inject_random_faults(self, count: int) -> List[Tuple[int, int]]:
        """Inject *count* faults at distinct random cells (board rng)."""
        total = self.rows * self.cols
        if count < 0 or count > total - len(self.faults):
            raise BoardError(
                f"count must be in 0..{total - len(self.faults)}, got {count}"
            )
        from ..reliability.faults import FaultType

        kinds = list(FaultType)
        injected: List[Tuple[int, int]] = []
        while len(injected) < count:
            row = int(self._rng.integers(0, self.rows))
            col = int(self._rng.integers(0, self.cols))
            if (row, col) in self.faults:
                continue
            kind = kinds[int(self._rng.integers(0, len(kinds)))]
            self._set_fault(row, col, kind)
            injected.append((row, col))
        self._solver._load(self._g)
        return injected

    # -- the signal chain --------------------------------------------------

    def _dac_conductance(self, g: np.ndarray) -> np.ndarray:
        if self.profile.dac_bits == 0:
            return g
        grid = np.linspace(self.profile.g_min, self.profile.g_max,
                           2 ** self.profile.dac_bits)
        indices = np.abs(g[..., None] - grid).argmin(axis=-1)
        return grid[indices]

    def _dac_voltage(self, v: np.ndarray) -> np.ndarray:
        if self.profile.v_max > 0:
            v = np.clip(v, -self.profile.v_max, self.profile.v_max)
        if self.profile.dac_bits and self.profile.v_max > 0:
            step = 2 * self.profile.v_max / (2 ** self.profile.dac_bits - 1)
            v = np.round(v / step) * step
        return v

    def _adc_current(self, currents: np.ndarray) -> np.ndarray:
        full_scale = self.profile.i_max
        if full_scale == 0 and self.profile.v_max > 0:
            full_scale = self.rows * self.profile.g_max * self.profile.v_max
        if full_scale > 0:
            currents = np.clip(currents, -full_scale, full_scale)
            if self.profile.adc_bits:
                step = 2 * full_scale / (2 ** self.profile.adc_bits - 1)
                currents = np.round(currents / step) * step
        elif self.profile.adc_bits:
            raise BoardError(
                "adc_bits needs a full-scale range: set i_max or v_max"
            )
        return currents

    def _apply_defects(self, g: np.ndarray) -> np.ndarray:
        """Transition faults, stuck cells, and wear-out, versus ``self._g``."""
        old = self._g
        g = np.where(self._tf0 & (g > old), old, g)
        g = np.where(self._tf1 & (g < old), old, g)
        g = np.where(self._cycles >= self.profile.endurance, old, g)
        g = np.where(self._sa0, self.profile.g_min, g)
        g = np.where(self._sa1, self.profile.g_max, g)
        return g

    def _condition(self, g: np.ndarray) -> np.ndarray:
        """Clip + DAC + programming variability (the write chain)."""
        g = np.clip(g, self.profile.g_min, self.profile.g_max)
        g = self._dac_conductance(g)
        if self.profile.variability > 0:
            g = g * np.exp(
                self._rng.normal(0.0, self.profile.variability, g.shape))
            g = np.clip(g, self.profile.g_min, self.profile.g_max)
        return g

    # -- programming -------------------------------------------------------

    def program(self, conductances: np.ndarray) -> None:
        g = self._check_conductances(conductances)
        g = self._apply_defects(self._condition(g))
        self._cycles += 1
        self._g = g
        self._solver.program(self._g)

    def pulse(self, row: int, col: int, conductance: float) -> None:
        row, col, conductance = self._check_pulse(row, col, conductance)
        target = self._condition(np.full((1, 1), conductance))[0, 0]
        g = self._g.copy()
        g[row, col] = target
        g = self._apply_defects(g)
        self._cycles[row, col] += 1
        self._g = g
        self._solver.pulse(row, col, float(g[row, col]))

    def read_conductances(self) -> np.ndarray:
        return self._g.copy()

    # -- electrical reads --------------------------------------------------

    def read_iv(
        self,
        row_drive: LineDrive,
        col_drive: LineDrive,
        *,
        wire_resistance: Optional[float] = None,
        driver_resistance: float = 0.0,
        backend: str = "auto",
    ) -> Any:
        # The I-V face models an SMU: drive ranges apply, but the node
        # solution itself is reported unquantized (ADC quantization
        # belongs to the bitline-sensing faces below).
        return self._solver.read_iv(
            _clip_drive(row_drive, self.profile.v_max),
            _clip_drive(col_drive, self.profile.v_max),
            wire_resistance=wire_resistance,
            driver_resistance=driver_resistance,
            backend=backend,
        )

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
        conditioned = [
            (row, col,
             float(self._condition(np.full((1, 1), g_new))[0, 0]))
            for row, col, g_new in variants
        ]
        return self._solver.read_iv_variants(
            _clip_drive(row_drive, self.profile.v_max),
            _clip_drive(col_drive, self.profile.v_max),
            conditioned,
            wire_resistance=wire_resistance,
            driver_resistance=driver_resistance,
            backend=backend,
        )

    def column_currents(
        self,
        voltages: np.ndarray,
        *,
        wire_resistance: Optional[float] = None,
        backend: str = "auto",
    ) -> np.ndarray:
        v = self._dac_voltage(self._check_voltages(voltages, batched=False))
        currents = self._solver.column_currents(
            v, wire_resistance=wire_resistance, backend=backend)
        return self._adc_current(currents)

    def column_currents_many(
        self,
        voltages: np.ndarray,
        *,
        wire_resistance: Optional[float] = None,
        backend: str = "auto",
    ) -> np.ndarray:
        v = self._dac_voltage(self._check_voltages(voltages, batched=True))
        currents = self._solver.column_currents_many(
            v, wire_resistance=wire_resistance, backend=backend)
        return self._adc_current(currents)

    # -- stateful logic ----------------------------------------------------

    def imply_machine(self) -> ImplyMachine:
        """An IMPLY machine over variability-sampled devices.

        With ``variability``/``threshold_sigma`` at 0 this is the ideal
        machine; otherwise each register device is drawn from a
        :class:`~repro.devices.variability.VariabilityModel` seeded by
        the board rng, so wide spreads can genuinely flip logic levels
        (the electrical executor's cross-check will catch them).
        """
        if self.profile.variability == 0 and self.profile.threshold_sigma == 0:
            return super().imply_machine()
        from ..logic.sequencer import ImplyMachine

        model = VariabilityModel(
            nominal=IdealBipolarMemristor(),
            spec=VariationSpec(
                sigma_r_on=self.profile.variability,
                sigma_r_off=self.profile.variability,
                sigma_v_set=self.profile.threshold_sigma,
                sigma_v_reset=self.profile.threshold_sigma,
            ),
            seed=int(self._rng.integers(0, 2 ** 63)),
        )
        return ImplyMachine(technology=self.spec.memristor,
                            device_factory=model.sample)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Erase to ``g_min`` everywhere.  Faults and accumulated wear
        persist (they are physical); stats restart."""
        self._g = np.full((self.rows, self.cols), self.profile.g_min)
        self._g[self._sa1] = self.profile.g_max
        self._solver._load(self._g)
        self.stats.__init__()  # shared with the solver core


def _clip_drive(drive: LineDrive, v_max: float) -> Dict[int, float]:
    """Clip driven-line voltages into the instrument's drive range."""
    if v_max <= 0:
        return dict(drive)
    return {
        index: float(np.clip(voltage, -v_max, v_max))
        for index, voltage in drive.items()
    }
