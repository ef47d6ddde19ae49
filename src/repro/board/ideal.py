"""The ideal-simulation board: bit-identical to the direct solver paths.

:class:`IdealSimBoard` is the refactor's correctness anchor — it routes
every board verb to exactly the code the pre-board consumers called
directly (``voltages @ G`` for ideal wires, the sparse nodal solver for
IR drop), in the same floating-point operation order, so results are
**bit-identical** to the legacy paths (property-tested in
``tests/test_property_board.py``).  IR-drop column reads take the
solver's terminal-current core, which answers a warm cache
entry from its transfer matrix and matches the full solvers bit for
bit on the same entry state.  IR-drop reads call the solver's private
cores with the conductance digest the board memoises per written state
(cleared by every write), so a warm read neither hashes nor re-scans
the array: ``program`` and ``pulse`` checked it when they wrote it.
What the board adds is uniformity: cost stats, the digest identity,
and the same five verbs the noisy and hardware boards speak.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..crossbar.solver import (
    _column_currents,
    _digest,
    _junction_variants,
    _solve,
    solve_ideal_wires,
)
from ..spec.techspec import TechSpec
from .base import Board, LineDrive

__all__ = ["IdealSimBoard"]


class IdealSimBoard(Board):
    """Solver-backed board with perfect instruments.

    Programming stores the requested conductances exactly; reads are
    noiseless and unquantized.  With ``wire_resistance=None`` the VMM is
    the pure Kirchhoff sum; a positive value switches to the cached
    sparse IR-drop solve.
    """

    kind = "ideal"

    def __init__(
        self, rows: int, cols: int, *, spec: Optional[TechSpec] = None
    ) -> None:
        super().__init__(rows, cols, spec=spec)
        self._g = np.zeros((rows, cols))
        self._g_row_sums = np.zeros(rows)
        self._g_digest: Optional[bytes] = None

    def _conductance_digest(self) -> bytes:
        """The solver cache's digest of the array, taken at the first
        IR-drop read after a write."""
        if self._g_digest is None:
            self._g_digest = _digest(self._g)
        return self._g_digest

    # -- programming -------------------------------------------------------

    def _load(self, conductances: np.ndarray) -> None:
        """Sync the array state without charging a physical operation
        (used by wrapper boards that own the write accounting)."""
        self._g = np.asarray(conductances, dtype=float).copy()
        self._g_row_sums = self._g.sum(axis=1)
        self._g_digest = None

    def program(self, conductances: np.ndarray) -> None:
        g = self._check_conductances(conductances)
        self._load(g)
        self._charge_program()

    def pulse(self, row: int, col: int, conductance: float) -> None:
        row, col, conductance = self._check_pulse(row, col, conductance)
        self._g[row, col] = conductance
        self._g_row_sums[row] = self._g[row].sum()
        self._g_digest = None
        self._charge_pulse()

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
        if wire_resistance is None:
            solution = solve_ideal_wires(self._g, dict(row_drive),
                                         dict(col_drive))
        else:
            solution = _solve(self._g, self._conductance_digest(),
                              dict(row_drive), dict(col_drive),
                              wire_resistance, driver_resistance, backend)
        power = _drive_power(solution, row_drive, col_drive)
        self._charge_read(power)
        return solution

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
        base, others = _junction_variants(
            self._g, self._conductance_digest(), dict(row_drive),
            dict(col_drive), list(variants), wire_resistance,
            driver_resistance, backend)
        self._charge_read(
            _drive_power(base, row_drive, col_drive), reads=1 + len(others))
        return base, others

    def column_currents(
        self,
        voltages: np.ndarray,
        *,
        wire_resistance: Optional[float] = None,
        backend: str = "auto",
    ) -> np.ndarray:
        v = self._check_voltages(voltages, batched=False)
        # Solve before billing, as read_iv does: a refused read costs nothing.
        if wire_resistance is None:
            currents: np.ndarray = v @ self._g
        else:
            currents = _column_currents(
                self._g, self._conductance_digest(), v[None, :],
                wire_resistance, backend)[0]
        self._charge_read(float((v ** 2) @ self._g_row_sums), words=1)
        return currents

    def column_currents_many(
        self,
        voltages: np.ndarray,
        *,
        wire_resistance: Optional[float] = None,
        backend: str = "auto",
    ) -> np.ndarray:
        v = self._check_voltages(voltages, batched=True)
        if wire_resistance is None:
            currents: np.ndarray = v @ self._g
        else:
            currents = _column_currents(self._g, self._conductance_digest(),
                                        v, wire_resistance, backend)
        power = float(((v ** 2) @ self._g_row_sums).sum())
        self._charge_read(power, reads=v.shape[0], words=v.shape[0])
        return currents

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        self._load(np.zeros((self.rows, self.cols)))
        self.stats.__init__()  # in place: wrapper boards share the object


def _drive_power(solution: Any, row_drive: LineDrive,
                 col_drive: LineDrive) -> float:
    """Power delivered by the driven lines (watts), for read pricing."""
    power = 0.0
    for index, voltage in row_drive.items():
        power += abs(voltage * float(solution.row_currents[index]))
    for index, voltage in col_drive.items():
        power += abs(voltage * float(solution.col_currents[index]))
    return power
