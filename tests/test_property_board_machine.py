"""A hypothesis state machine over boards that share the solver cache.

Two :class:`~repro.board.IdealSimBoard` instances and one seeded
:class:`~repro.board.noisy.NoisyInstrumentBoard` (with manufacturing
faults) are written and read with wire resistance on, all through the
one global factorization LRU.  The boards read through the solver's
private cores with a memoised conductance digest, so this is the model
check for the write path the public-function machine
(``tests/test_property_solver.py::SingleCellWrites``) does not reach.

After every step:

* every read agrees with a cold dense solve of the board's current
  conductances, to ``LOW_RANK_RTOL``;
* a refused verb changes no conductance, stat or cache counter;
* ``board.stats`` equals the sum of the accepted verbs' solo charges;
* every cached entry's memo of ``A⁻¹u`` rows holds at most
  ``2·LOW_RANK_MAX`` rows, and the LRU at most
  ``FACTORIZATION_CACHE_SIZE`` entries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.board import IdealSimBoard
from repro.board.noisy import InstrumentProfile, NoisyInstrumentBoard
from repro.crossbar import solver
from repro.crossbar.solver import (
    FACTORIZATION_CACHE_SIZE,
    LOW_RANK_MAX,
    clear_factorization_cache,
    solve_with_wire_resistance,
)
from repro.errors import BoardError
from repro.reliability.faults import FaultType

from .test_property_solver import (
    G_HRS,
    G_LRS,
    LOW_RANK_RTOL,
    _assert_agrees,
    _cold,
)

ROWS, COLS = 8, 9
IDEAL, NOISY = (0, 1), 2
#: Counters a refused verb must leave alone.
COUNTERS = (solver._CACHE_HIT, solver._CACHE_MISS, solver._CACHE_UPDATE,
            solver._TRANSFER_BUILD, solver._TRANSFER_UPDATE,
            solver._RESPONSE_BUILD, solver._RESPONSE_UPDATE,
            solver._SOLVES_WIRE)

boards = st.integers(min_value=0, max_value=2)
cells = st.tuples(st.integers(min_value=0, max_value=ROWS - 1),
                  st.integers(min_value=0, max_value=COLS - 1))
levels = st.one_of(st.sampled_from([G_LRS, G_HRS]),
                   st.floats(min_value=1e-6, max_value=1e-3))
#: Pulses the board must refuse: a bool or fractional index, a cell off
#: the array, and targets that are not finite non-negative numbers.
refused_pulses = st.sampled_from([
    (True, 0, G_LRS), (0, 1.0, G_LRS), (ROWS, 0, G_LRS), (0, -1, G_LRS),
    (0, 0, float("nan")), (0, 0, -1e-6), (0, 0, float("inf")),
    (0, 0, "1e-4"), (0, 0, None), (0, 0, True),
])


def _cold_dense(g, row_drive, col_drive, wire_resistance,
                driver_resistance=0.0):
    """A cold dense-backend solve of *g* that leaves the shared cache as
    it found it (the oracle still bumps the cache counters)."""
    return _cold(lambda: solve_with_wire_resistance(
        g, row_drive, col_drive, wire_resistance=wire_resistance,
        driver_resistance=driver_resistance, backend="dense"))


def _power(solution, row_drive, col_drive):
    """The drive power a read is billed for (watts)."""
    return (sum(abs(v * solution.row_currents[r]) for r, v in row_drive.items())
            + sum(abs(v * solution.col_currents[c])
                  for c, v in col_drive.items()))


class BoardsSharingTheCache(RuleBasedStateMachine):
    """Program, pulse, fault and read three boards through one LRU."""

    @initialize(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        wire_resistance=st.floats(min_value=0.25, max_value=10.0),
    )
    def setup(self, seed, wire_resistance):
        clear_factorization_cache()
        self.rng = np.random.default_rng(seed)
        self.wire = wire_resistance
        profile = InstrumentProfile(g_min=G_HRS, g_max=G_LRS, fault_rate=0.05)
        self.boards = [IdealSimBoard(ROWS, COLS), IdealSimBoard(ROWS, COLS),
                       NoisyInstrumentBoard(ROWS, COLS, profile=profile,
                                            seed=seed)]
        tech = self.boards[0].spec.memristor
        self.write_energy, self.write_time = tech.write_energy, tech.write_time
        #: Expected stats per board: the accepted verbs' solo charges.
        self.expected = [dict(programs=0, pulses=0, device_writes=0,
                              iv_reads=0, matvec_words=0, energy=0.0,
                              latency=0.0) for _ in self.boards]
        #: What each board was told to hold (exact on the ideal boards).
        self.written = [None] * len(self.boards)
        for index in range(len(self.boards)):
            self._program(index, self._levels())

    # -- bookkeeping ---------------------------------------------------------

    def _levels(self):
        return np.where(self.rng.random((ROWS, COLS)) < 0.5, G_LRS, G_HRS)

    def _bill_read(self, index, power, reads=1, words=0):
        stats = self.expected[index]
        stats["iv_reads"] += reads
        stats["matvec_words"] += words
        stats["energy"] += power * self.write_time
        stats["latency"] += reads * self.write_time

    def _program(self, index, g):
        self.boards[index].program(g)
        self.written[index] = g.copy()
        stats = self.expected[index]
        stats["programs"] += 1
        stats["device_writes"] += ROWS * COLS
        stats["energy"] += ROWS * COLS * self.write_energy
        stats["latency"] += self.write_time

    def _snapshot(self, board):
        return (board.read_conductances(), board.stats.as_dict(),
                [counter.value for counter in COUNTERS],
                solver.factorization_cache_len())

    def _assert_unchanged(self, board, before):
        g, stats, counters, cached = before
        after = self._snapshot(board)
        assert np.array_equal(after[0], g)
        assert after[1] == stats
        assert after[2] == counters
        assert after[3] == cached

    def _read_iv_checked(self, index, row_drive, col_drive,
                         driver_resistance=0.0):
        board = self.boards[index]
        g = board.read_conductances()
        got = board.read_iv(row_drive, col_drive, wire_resistance=self.wire,
                            driver_resistance=driver_resistance)
        want = _cold_dense(g, row_drive, col_drive, self.wire,
                           driver_resistance)
        _assert_agrees(got, want, g, f"board {index} read_iv")
        self._bill_read(index, _power(got, row_drive, col_drive))

    # -- writes --------------------------------------------------------------

    @rule(index=boards)
    def program(self, index):
        self._program(index, self._levels())

    @rule(index=boards, cell=cells, level=levels)
    def pulse(self, index, cell, level):
        self.boards[index].pulse(cell[0], cell[1], level)
        stats = self.expected[index]
        stats["pulses"] += 1
        stats["device_writes"] += 1
        stats["energy"] += self.write_energy
        stats["latency"] += self.write_time
        self.written[index][cell] = level

    @rule(index=boards, bad=refused_pulses)
    def pulse_refused(self, index, bad):
        board = self.boards[index]
        before = self._snapshot(board)
        with pytest.raises(BoardError):
            board.pulse(*bad)
        self._assert_unchanged(board, before)

    @rule(cell=cells, kind=st.sampled_from(list(FaultType)))
    def inject_faults(self, cell, kind):
        board = self.boards[NOISY]
        before = self._snapshot(board)
        if cell in board.faults:
            with pytest.raises(BoardError):
                board.inject_faults({cell: kind})
            self._assert_unchanged(board, before)
            return
        board.inject_faults({cell: kind})
        g = board.read_conductances()
        if kind is FaultType.SA0:
            assert g[cell] == board.profile.g_min
        elif kind is FaultType.SA1:
            assert g[cell] == board.profile.g_max

    @rule(index=boards, count=st.integers(min_value=LOW_RANK_MAX // 4,
                                          max_value=LOW_RANK_MAX + 1))
    def pulse_burst(self, index, count):
        """Many single-cell writes with no read between, up to past the
        low-rank cap."""
        for flat in self.rng.choice(ROWS * COLS, count, replace=False):
            row, col = divmod(int(flat), COLS)
            g = self.boards[index].read_conductances()[row, col]
            self.pulse(index, (row, col), G_HRS if g == G_LRS else G_LRS)

    # -- reads ---------------------------------------------------------------

    @rule(index=boards, volts=st.floats(min_value=-1.0, max_value=1.0),
          driver_resistance=st.sampled_from([0.0, 0.0, 25.0]))
    def read_iv(self, index, volts, driver_resistance):
        """The variant read's drive pattern, so repeated reads build and
        then move its port response."""
        self._read_iv_checked(index, {0: volts}, {COLS - 1: 0.0},
                              driver_resistance)

    @rule(index=boards)
    def evict(self, index):
        """More distinct drive structures than the LRU holds, so later
        reads of every board miss and factor again."""
        for k in range(FACTORIZATION_CACHE_SIZE + 1):
            self._read_iv_checked(index, {k % ROWS: 0.5}, {k % COLS: 0.0})

    @rule(index=boards, cell=cells, level=levels,
          volts=st.floats(min_value=0.1, max_value=1.0))
    def read_iv_variants(self, index, cell, level, volts):
        board = self.boards[index]
        g = board.read_conductances()
        row_drive, col_drive = {0: volts}, {COLS - 1: 0.0}
        base, (variant,) = board.read_iv_variants(
            row_drive, col_drive, [(cell[0], cell[1], level)],
            wire_resistance=self.wire)
        _assert_agrees(base, _cold_dense(g, row_drive, col_drive, self.wire),
                       g, f"board {index} variant base")
        g_var = g.copy()
        g_var[cell] = np.clip(level, G_HRS, G_LRS) if index == NOISY else level
        _assert_agrees(variant,
                       _cold_dense(g_var, row_drive, col_drive, self.wire),
                       g_var, f"board {index} variant {cell}")
        self._bill_read(index, _power(base, row_drive, col_drive), reads=2)

    @rule(index=boards, count=st.integers(min_value=1, max_value=COLS + 1))
    def column_currents_many(self, index, count):
        """Batched reads, enough of them in a row to build and then move
        the family's transfer matrix."""
        board = self.boards[index]
        g = board.read_conductances()
        volts = self.rng.uniform(-1.0, 1.0, (count, ROWS))
        got = board.column_currents_many(volts, wire_resistance=self.wire)
        self._check_columns(g, volts, got)
        self._bill_read(index, float(((volts ** 2) @ g.sum(axis=1)).sum()),
                        reads=count, words=count)

    @rule(index=boards)
    def column_currents(self, index):
        board = self.boards[index]
        g = board.read_conductances()
        volts = self.rng.uniform(-1.0, 1.0, ROWS)
        got = board.column_currents(volts, wire_resistance=self.wire)
        self._check_columns(g, volts[None, :], got[None, :])
        self._bill_read(index, float((volts ** 2) @ g.sum(axis=1)), words=1)

    @rule(index=boards)
    def column_currents_refused(self, index):
        board = self.boards[index]
        before = self._snapshot(board)
        volts = np.zeros(ROWS)
        volts[-1] = float("nan")
        with pytest.raises(BoardError):
            board.column_currents(volts, wire_resistance=self.wire)
        self._assert_unchanged(board, before)

    def _check_columns(self, g, volts, got):
        grounded = {c: 0.0 for c in range(COLS)}
        for k, row in enumerate(volts):
            want = _cold_dense(g, {r: float(v) for r, v in enumerate(row)},
                               grounded, self.wire).col_currents
            error = np.abs(got[k] - want).max()
            assert error <= LOW_RANK_RTOL * np.abs(want).max(), (k, error)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def ideal_boards_hold_what_was_written(self):
        for index in IDEAL:
            assert np.array_equal(self.boards[index].read_conductances(),
                                  self.written[index])

    @invariant()
    def stats_are_the_solo_charges(self):
        for board, expected in zip(self.boards, self.expected):
            stats = board.stats
            for name in ("programs", "pulses", "device_writes", "iv_reads",
                         "matvec_words"):
                assert getattr(stats, name) == expected[name], name
            for name in ("energy", "latency"):
                assert getattr(stats, name) == pytest.approx(
                    expected[name], rel=1e-12, abs=0.0), name

    @invariant()
    def cache_and_memos_stay_bounded(self):
        with solver._CACHE_LOCK:
            entries = list(solver._FACTOR_CACHE.values())
        assert len(entries) <= FACTORIZATION_CACHE_SIZE
        for entry in entries:
            if entry.columns is not None:
                assert len(entry.columns) <= 2 * LOW_RANK_MAX

    def teardown(self):
        clear_factorization_cache()


TestBoardsSharingTheCache = BoardsSharingTheCache.TestCase
TestBoardsSharingTheCache.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
