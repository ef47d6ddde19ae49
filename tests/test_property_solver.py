"""Property-based tests for the crossbar solver: physics invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.crossbar import solver
from repro.crossbar.solver import (
    LOW_RANK_MAX,
    clear_factorization_cache,
    scipy_available,
    solve_ideal_wires,
    solve_junction_variants,
    solve_many_with_wire_resistance,
    solve_with_wire_resistance,
)

conductances = hnp.arrays(
    dtype=float,
    shape=st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    elements=st.floats(min_value=1e-7, max_value=1e-2),
)
drive_voltage = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

#: Conductance range for the wire-resistance properties, kept a few
#: decades away from the wire conductance so convergence tolerances are
#: meaningful for every drawn example.
wire_conductances = hnp.arrays(
    dtype=float,
    shape=st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    elements=st.floats(min_value=1e-5, max_value=1e-3),
)


def _drives(g, v):
    """One driven row (first) and one driven column (last)."""
    rows, cols = g.shape
    return {0: v}, {cols - 1: 0.0}


class TestKirchhoffInvariants:
    @given(g=conductances, v=drive_voltage)
    @settings(max_examples=80, deadline=None)
    def test_current_conservation(self, g, v):
        """Total current injected by rows equals total absorbed by
        columns (charge conservation)."""
        rows, cols = g.shape
        sol = solve_ideal_wires(g, {0: v}, {cols - 1: 0.0})
        assert np.isclose(sol.row_currents.sum(), sol.col_currents.sum())

    @given(g=conductances, v=drive_voltage)
    @settings(max_examples=80, deadline=None)
    def test_floating_node_voltages_bounded_by_rails(self, g, v):
        """No passive network node can float outside the driven range."""
        rows, cols = g.shape
        sol = solve_ideal_wires(g, {0: v}, {cols - 1: 0.0})
        lo, hi = min(0.0, v), max(0.0, v)
        eps = 1e-9
        assert (sol.row_voltages >= lo - eps).all()
        assert (sol.row_voltages <= hi + eps).all()
        assert (sol.col_voltages >= lo - eps).all()
        assert (sol.col_voltages <= hi + eps).all()

    @given(g=conductances, v=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=80, deadline=None)
    def test_power_non_negative(self, g, v):
        """Dissipated power in a passive network is non-negative."""
        rows, cols = g.shape
        sol = solve_ideal_wires(g, {0: v}, {0: 0.0})
        power = (sol.junction_currents ** 2 / g).sum()
        assert power >= 0

    @given(g=conductances, v=drive_voltage, scale=st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_drive_voltage(self, g, v, scale):
        """Scaling the drive scales every current linearly."""
        rows, cols = g.shape
        sol1 = solve_ideal_wires(g, {0: v}, {cols - 1: 0.0})
        sol2 = solve_ideal_wires(g, {0: v * scale}, {cols - 1: 0.0})
        assert np.allclose(
            sol2.junction_currents, sol1.junction_currents * scale,
            rtol=1e-6, atol=1e-12,
        )

    @given(g=conductances)
    @settings(max_examples=60, deadline=None)
    def test_zero_drive_zero_current(self, g):
        rows, cols = g.shape
        sol = solve_ideal_wires(g, {0: 0.0}, {cols - 1: 0.0})
        assert np.allclose(sol.junction_currents, 0.0, atol=1e-15)

    @given(g=conductances, v=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_superposition_of_sources(self, g, v):
        """Driving two rows = sum of driving each alone (with the other
        grounded) — linear-network superposition, using all-driven rows
        so the floating sets match."""
        rows, cols = g.shape
        if rows < 2:
            return
        drive_both = {0: v, 1: v / 2}
        drive_a = {0: v, 1: 0.0}
        drive_b = {0: 0.0, 1: v / 2}
        ground = {c: 0.0 for c in range(cols)}
        both = solve_ideal_wires(g, drive_both, ground)
        a = solve_ideal_wires(g, drive_a, ground)
        b = solve_ideal_wires(g, drive_b, ground)
        assert np.allclose(
            both.junction_currents,
            a.junction_currents + b.junction_currents,
            rtol=1e-6, atol=1e-12,
        )


class TestWireSolverProperties:
    """Properties tying the wire-resistance solver to the ideal one and
    its two backends/cache modes to each other."""

    @given(g=wire_conductances, v=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_converges_to_ideal_as_wire_resistance_vanishes(self, g, v):
        """wire_resistance -> 0 recovers the ideal-wire solution.

        Tolerance is set by the float64 nodal stamp: at g_wire = 1e6 S
        against junctions >= 1e-5 S the representable diagonal carries a
        spurious-leak error of ~1e-4 relative, well inside 1e-3.
        """
        row_drive, col_drive = _drives(g, v)
        ideal = solve_ideal_wires(g, row_drive, col_drive)
        wired = solve_with_wire_resistance(
            g, row_drive, col_drive, wire_resistance=1e-6
        )
        sel = g.shape[1] - 1
        assert wired.col_currents[sel] == pytest.approx(
            ideal.col_currents[sel], rel=1e-3, abs=1e-15
        )
        assert wired.row_currents[0] == pytest.approx(
            ideal.row_currents[0], rel=1e-3, abs=1e-15
        )

    @given(g=wire_conductances, v=st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_current_conservation(self, g, v):
        row_drive, col_drive = _drives(g, v)
        sol = solve_with_wire_resistance(
            g, row_drive, col_drive, wire_resistance=1e-3
        )
        assert np.isclose(sol.row_currents.sum(), sol.col_currents.sum(),
                          rtol=1e-9, atol=1e-18)

    @pytest.mark.skipif(not scipy_available(),
                        reason="scipy (repro[fast]) not installed")
    @given(
        g=wire_conductances,
        v=st.floats(min_value=0.1, max_value=2.0),
        wire_resistance=st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_and_dense_backends_agree(self, g, v, wire_resistance):
        """Same netlist, either factorization: bit-close answers.

        The two backends factor the identical float64 matrix with
        different elimination orders, so they can differ by eps times
        the condition number (<= 1e7 over these ranges).
        """
        row_drive, col_drive = _drives(g, v)
        sparse = solve_with_wire_resistance(
            g, row_drive, col_drive, wire_resistance=wire_resistance,
            backend="sparse",
        )
        dense = solve_with_wire_resistance(
            g, row_drive, col_drive, wire_resistance=wire_resistance,
            backend="dense",
        )
        assert np.allclose(sparse.row_voltages, dense.row_voltages,
                           rtol=1e-6, atol=1e-12)
        assert np.allclose(sparse.junction_currents, dense.junction_currents,
                           rtol=1e-6, atol=1e-16)

    @given(
        g=wire_conductances,
        v=st.floats(min_value=0.1, max_value=2.0),
        wire_resistance=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=25, deadline=None)
    def test_cached_solve_identical_to_cold(self, g, v, wire_resistance):
        """A cache hit must return bit-identical results to a cold
        factorization of the same system."""
        row_drive, col_drive = _drives(g, v)
        clear_factorization_cache()
        cold = solve_with_wire_resistance(
            g, row_drive, col_drive, wire_resistance=wire_resistance
        )
        warm = solve_with_wire_resistance(
            g, row_drive, col_drive, wire_resistance=wire_resistance
        )
        np.testing.assert_array_equal(cold.row_voltages, warm.row_voltages)
        np.testing.assert_array_equal(cold.col_voltages, warm.col_voltages)
        np.testing.assert_array_equal(cold.junction_currents,
                                      warm.junction_currents)


G_LRS, G_HRS = 1e-4, 1e-6
BACKENDS = ["dense"] + (["sparse"] if scipy_available() else [])
#: Relative agreement every low-rank answer owes a cold factorization.
LOW_RANK_RTOL = 1e-9


def _cold(solve):
    """Run *solve* on an empty factorization cache — a truly cold
    factorization — then put the cache under test back as it was."""
    saved = list(solver._FACTOR_CACHE.items())
    try:
        clear_factorization_cache()
        return solve()
    finally:
        clear_factorization_cache()
        solver._FACTOR_CACHE.update(saved)


def _assert_agrees(got, want, g, what):
    """Node voltages within LOW_RANK_RTOL of the drive voltage, currents
    within LOW_RANK_RTOL of the drive's current scale (largest junction
    conductance times the drive voltage), and the subject conserves
    current on its own.

    The current scale is the drive's, not the largest current of this
    solution: where the read path runs through HRS cells every junction
    current can be orders of magnitude below it, and there two cold
    factorizations that differ only in pivot order already disagree by
    ~1e-8 relative to that largest current.
    """
    volts = max(np.abs(want.row_voltages).max(),
                np.abs(want.col_voltages).max(), 1e-300)
    amps = g.max() * volts
    for name, scale in (("row_voltages", volts), ("col_voltages", volts),
                        ("junction_currents", amps), ("row_currents", amps),
                        ("col_currents", amps)):
        error = np.abs(getattr(got, name) - getattr(want, name)).max()
        assert error <= LOW_RANK_RTOL * scale, (what, name, error / scale)
    imbalance = abs(got.row_currents.sum() - got.col_currents.sum())
    assert imbalance <= LOW_RANK_RTOL * amps, (what, imbalance / amps)


class SingleCellWrites(RuleBasedStateMachine):
    """Random single-cell writes between reads, through the public
    solvers: every answer — cold, low-rank update, or exact hit — must
    agree with a cold factorization of the current array.

    Writes toggle cells between LRS and HRS (so toggling twice returns a
    cell to its base value), set arbitrary conductances, hit cells whose
    junction touches a pinned driver node, and burst past
    LOW_RANK_MAX changed cells.  Reads batch two drive structures
    (all lines driven, and one row/one column with the rest floating)
    and ask for rank-1 variants at a pinned and a free junction.

    Wire resistance starts at 0.25 ohm: at 0.1 ohm against 1e-6 S
    junctions the cold oracle's own rounding (about cond(A)·eps, ~3e-10
    of the drive scale against an extended-precision reference) is
    already a third of LOW_RANK_RTOL, too close to referee the bound.
    """

    @initialize(
        rows=st.integers(min_value=6, max_value=7),
        cols=st.integers(min_value=6, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        wire_resistance=st.floats(min_value=0.25, max_value=10.0),
        driver_resistance=st.sampled_from([0.0, 0.0, 25.0]),
        backend=st.sampled_from(BACKENDS),
    )
    def setup(self, rows, cols, seed, wire_resistance, driver_resistance,
              backend):
        clear_factorization_cache()
        self.rng = np.random.default_rng(seed)
        self.g = np.where(self.rng.random((rows, cols)) < 0.5, G_LRS, G_HRS)
        self.options = dict(wire_resistance=wire_resistance,
                            driver_resistance=driver_resistance,
                            backend=backend)
        all_cols = {c: 0.0 for c in range(cols)}
        self.structures = [
            [({r: float(v) for r, v in enumerate(
                self.rng.uniform(-1.0, 1.0, rows))}, all_cols)
             for _ in range(2)],
            [({0: 1.0}, {cols - 1: 0.0}), ({0: -0.4}, {cols - 1: 0.0})],
        ]
        # Junctions with a node pinned by a driver under the all-driven
        # structure: row-side nodes of column 0, column-side nodes of
        # row 0 (pinned only while driver_resistance is 0).
        self.pinned_cells = sorted({(r, 0) for r in range(rows)}
                                   | {(0, c) for c in range(cols)})

    def _cell(self, index):
        return divmod(index % self.g.size, self.g.shape[1])

    @rule(index=st.integers(min_value=0, max_value=10**6))
    def toggle(self, index):
        cell = self._cell(index)
        self.g[cell] = G_HRS if self.g[cell] == G_LRS else G_LRS

    @rule(index=st.integers(min_value=0, max_value=10**6),
          value=st.floats(min_value=1e-6, max_value=1e-3))
    def write(self, index, value):
        self.g[self._cell(index)] = value

    @rule(index=st.integers(min_value=0, max_value=10**6))
    def toggle_pinned(self, index):
        cell = self.pinned_cells[index % len(self.pinned_cells)]
        self.g[cell] = G_HRS if self.g[cell] == G_LRS else G_LRS

    @rule()
    def burst_past_cap(self):
        """LOW_RANK_MAX + 1 single-cell writes with no read between."""
        for flat in self.rng.choice(self.g.size, LOW_RANK_MAX + 1,
                                    replace=False):
            cell = divmod(int(flat), self.g.shape[1])
            self.g[cell] = G_HRS if self.g[cell] == G_LRS else G_LRS

    @rule()
    def read_many(self):
        g = self.g.copy()
        drives = self.structures[0] + self.structures[1]
        got = solve_many_with_wire_resistance(g, drives, **self.options)
        for k, (rd, cd) in enumerate(drives):
            want = _cold(lambda: solve_with_wire_resistance(
                g, rd, cd, **self.options))
            _assert_agrees(got[k], want, g, f"drive pattern {k}")

    @rule(index=st.integers(min_value=0, max_value=10**6),
          value=st.floats(min_value=1e-6, max_value=1e-3))
    def read_variants(self, index, value):
        g = self.g.copy()
        pinned = self.pinned_cells[index % len(self.pinned_cells)]
        free = self._cell(index)
        variants = [(pinned[0], pinned[1], value), (free[0], free[1], value)]
        for rd, cd in (self.structures[0][0], self.structures[1][0]):
            base, got = solve_junction_variants(g, rd, cd, variants,
                                                **self.options)
            want = _cold(lambda: solve_with_wire_resistance(
                g, rd, cd, **self.options))
            _assert_agrees(base, want, g, "variant base")
            for (r, c, g_new), solution in zip(variants, got):
                g_var = g.copy()
                g_var[r, c] = g_new
                want = _cold(lambda: solve_with_wire_resistance(
                    g_var, rd, cd, **self.options))
                _assert_agrees(solution, want, g_var, f"variant ({r}, {c})")

    @invariant()
    def cache_stays_bounded(self):
        assert solver.factorization_cache_len() <= solver.FACTORIZATION_CACHE_SIZE

    def teardown(self):
        clear_factorization_cache()


TestSingleCellWrites = SingleCellWrites.TestCase
TestSingleCellWrites.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
