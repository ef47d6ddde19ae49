"""Memory fault models and fault injection.

The paper's senior author co-wrote "Memristor based memories:
Technology, design and test" [50]; reliability and test are called out
as gating questions for CIM "industrialisation" (Section III.C).  This
module provides the classic cell fault models for memristive memories
and injects them into a :class:`~repro.crossbar.memory.CrossbarMemory`
so the March test in :mod:`repro.reliability.march` has something real
to detect.

Implemented models:

* **SA0 / SA1** — stuck-at: the cell always reads 0 / 1 regardless of
  writes.
* **TF0 / TF1** — transition fault: the cell cannot make the 0→1 /
  1→0 transition (it holds its old value), but the opposite write
  works.  The classic signature of an over-formed or weak filament.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CrossbarError

if TYPE_CHECKING:
    from ..crossbar.memory import CrossbarMemory


class FaultType(enum.Enum):
    """Cell fault models for memristive memories."""

    SA0 = "stuck-at-0"
    SA1 = "stuck-at-1"
    TF0 = "no 0->1 transition"
    TF1 = "no 1->0 transition"


@dataclass(frozen=True)
class Fault:
    """One injected fault: location plus model."""

    row: int
    col: int
    kind: FaultType


class _FaultyJunction:
    """Wraps a junction, applying a fault model to its digital face."""

    def __init__(self, inner, kind: FaultType) -> None:
        self._inner = inner
        self.kind = kind

    def resistance(self) -> float:
        if self.kind is FaultType.SA0:
            return self._inner.resistance() if self.as_bit() == 0 else 1e12
        return self._inner.resistance()

    def write_bit(self, bit: int) -> None:
        if self.kind is FaultType.SA0 or self.kind is FaultType.SA1:
            return                       # writes never take effect
        current = self._inner.as_bit()
        if self.kind is FaultType.TF0 and current == 0 and bit == 1:
            return                       # up-transition blocked
        if self.kind is FaultType.TF1 and current == 1 and bit == 0:
            return                       # down-transition blocked
        self._inner.write_bit(bit)

    def as_bit(self) -> int:
        if self.kind is FaultType.SA0:
            return 0
        if self.kind is FaultType.SA1:
            return 1
        return self._inner.as_bit()


class FaultInjector:
    """Injects and tracks faults in a crossbar memory.

    Only 1R memories are supported (CRS cells have their own failure
    physics, out of scope for the March-test layer).
    """

    def __init__(self, memory: CrossbarMemory) -> None:
        if memory.cell_kind != "1R":
            raise CrossbarError("fault injection supports 1R memories only")
        self.memory = memory
        self.faults: List[Fault] = []

    def inject(self, row: int, col: int, kind: FaultType) -> Fault:
        """Replace the junction at (row, col) with a faulty wrapper."""
        if not (0 <= row < self.memory.words and 0 <= col < self.memory.width):
            raise CrossbarError(f"cell ({row}, {col}) outside the memory")
        if any(f.row == row and f.col == col for f in self.faults):
            raise CrossbarError(f"cell ({row}, {col}) already faulty")
        original = self.memory.array.cell(row, col)
        self.memory.array.set_cell(row, col, _FaultyJunction(original, kind))
        fault = Fault(row, col, kind)
        self.faults.append(fault)
        return fault

    def inject_random(
        self,
        count: int,
        seed: Optional[int] = None,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Fault]:
        """Inject *count* faults at distinct random cells.

        Randomness is explicit: pass either a *seed* (a fresh
        ``numpy.random.default_rng(seed)`` is built, so equal seeds
        always pin the same fault map) or an existing *rng* Generator
        (to share one stream across several injectors) — supplying both
        is an error.
        """
        total_cells = self.memory.words * self.memory.width
        if count < 0 or count > total_cells:
            raise CrossbarError(
                f"count must be in 0..{total_cells}, got {count}"
            )
        if rng is not None and seed is not None:
            raise CrossbarError("pass either seed= or rng=, not both")
        if rng is None:
            rng = np.random.default_rng(seed)
        kinds = list(FaultType)
        taken = {(f.row, f.col) for f in self.faults}
        injected = []
        while len(injected) < count:
            row = int(rng.integers(0, self.memory.words))
            col = int(rng.integers(0, self.memory.width))
            if (row, col) in taken:
                continue
            taken.add((row, col))
            kind = kinds[int(rng.integers(0, len(kinds)))]
            injected.append(self.inject(row, col, kind))
        return injected

    def fault_map(self) -> Dict[Tuple[int, int], FaultType]:
        """Injected faults keyed by (row, col)."""
        return {(f.row, f.col): f.kind for f in self.faults}
