"""Tests for the crossbar electrical solvers against hand-computable
circuits."""

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.crossbar.solver import (
    DENSE_NODE_LIMIT,
    LOW_RANK_MAX,
    clear_factorization_cache,
    factorization_cache_len,
    scipy_available,
    solve_ideal_wires,
    solve_junction_variants,
    solve_many_with_wire_resistance,
    solve_with_wire_resistance,
    _CACHE_HIT,
    _CACHE_MISS,
    _CACHE_UPDATE,
    _FACTOR_CACHE,
    _ports,
    _u_columns,
)
from repro.errors import CrossbarError

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy (repro[fast]) not installed")


class TestIdealWiresSingleCell:
    def test_one_junction_ohms_law(self):
        g = np.array([[1e-3]])
        sol = solve_ideal_wires(g, {0: 1.0}, {0: 0.0})
        assert sol.junction_currents[0, 0] == pytest.approx(1e-3)
        assert sol.row_currents[0] == pytest.approx(1e-3)
        assert sol.col_currents[0] == pytest.approx(1e-3)

    def test_junction_voltage(self):
        g = np.array([[2e-3]])
        sol = solve_ideal_wires(g, {0: 0.5}, {0: 0.0})
        assert sol.junction_voltage(0, 0) == pytest.approx(0.5)

    def test_reverse_polarity(self):
        g = np.array([[1e-3]])
        sol = solve_ideal_wires(g, {0: -1.0}, {0: 0.0})
        assert sol.junction_currents[0, 0] == pytest.approx(-1e-3)


class TestFloatingLines:
    def test_voltage_divider_through_floating_column(self):
        """Two junctions in series via a floating column: the column
        floats to the divider midpoint."""
        g = np.array([[1e-3], [1e-3]])
        sol = solve_ideal_wires(g, {0: 1.0, 1: 0.0}, {})
        assert sol.col_voltages[0] == pytest.approx(0.5)
        # Current flows row0 -> col -> row1.
        assert sol.row_currents[0] == pytest.approx(0.5e-3)
        assert sol.row_currents[1] == pytest.approx(-0.5e-3)

    def test_unequal_divider(self):
        g = np.array([[3e-3], [1e-3]])
        sol = solve_ideal_wires(g, {0: 1.0, 1: 0.0}, {})
        assert sol.col_voltages[0] == pytest.approx(0.75)

    def test_floating_rows_kcl(self):
        """2x2 with one driven row, one floating row: the sneak path
        row0 -> col1 -> row1 -> col0 must carry current."""
        g = np.full((2, 2), 1e-3)
        sol = solve_ideal_wires(g, {0: 1.0}, {0: 0.0})
        # Floating nodes settle between the rails.
        assert 0.0 < sol.row_voltages[1] < 1.0
        assert 0.0 < sol.col_voltages[1] < 1.0
        # The sneak contribution adds to the selected column current:
        # direct path 1mS * 1V = 1 mA, sneak path = 3 junctions in
        # series = (1/3) mS -> total 4/3 mA.
        assert sol.col_currents[0] == pytest.approx(4.0 / 3.0 * 1e-3)

    def test_kcl_on_floating_lines(self):
        g = np.array([[1e-3, 2e-3, 0.5e-3], [2e-4, 1e-3, 1e-3]])
        sol = solve_ideal_wires(g, {0: 0.8}, {1: 0.0})
        # Net current into every floating line is zero.
        assert sol.row_currents[1] == pytest.approx(0.0, abs=1e-15)
        assert sol.col_currents[0] == pytest.approx(0.0, abs=1e-15)
        assert sol.col_currents[2] == pytest.approx(0.0, abs=1e-15)

    def test_energy_conservation(self):
        g = np.full((3, 3), 1e-4)
        sol = solve_ideal_wires(g, {0: 1.0, 1: 0.5}, {0: 0.0, 2: 0.2})
        source_power = (
            sol.row_voltages @ sol.row_currents
            - sol.col_voltages @ sol.col_currents
        )
        dissipated = (
            sol.junction_currents ** 2 / np.where(g > 0, g, 1.0)
        ).sum()
        assert source_power == pytest.approx(dissipated)


class TestValidation:
    def test_requires_a_driven_line(self):
        with pytest.raises(CrossbarError):
            solve_ideal_wires(np.ones((2, 2)), {}, {})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(CrossbarError):
            solve_ideal_wires(np.ones((2, 2)), {5: 1.0}, {0: 0.0})

    def test_rejects_negative_conductance(self):
        with pytest.raises(CrossbarError):
            solve_ideal_wires(np.array([[-1.0]]), {0: 1.0}, {0: 0.0})

    def test_rejects_1d_matrix(self):
        with pytest.raises(CrossbarError):
            solve_ideal_wires(np.ones(3), {0: 1.0}, {0: 0.0})

    def test_disconnected_floating_line_is_singular(self):
        g = np.array([[1e-3, 0.0], [0.0, 0.0]])
        with pytest.raises(CrossbarError):
            solve_ideal_wires(g, {0: 1.0}, {0: 0.0})


class TestWireResistance:
    def test_reduces_to_ideal_for_tiny_wire_resistance(self):
        g = np.full((3, 3), 1e-4)
        ideal = solve_ideal_wires(g, {0: 1.0}, {0: 0.0})
        wired = solve_with_wire_resistance(
            g, {0: 1.0}, {0: 0.0}, wire_resistance=1e-6
        )
        assert wired.col_currents[0] == pytest.approx(
            ideal.col_currents[0], rel=1e-3
        )

    def test_ir_drop_reduces_far_cell_voltage(self):
        """With significant line resistance the junction farthest from
        the drivers sees less voltage than the nearest one."""
        g = np.full((4, 4), 1e-4)
        sol = solve_with_wire_resistance(
            g, {0: 1.0}, {0: 0.0}, wire_resistance=500.0
        )
        near = sol.junction_voltage(0, 0)
        far = sol.junction_voltage(0, 3)
        assert far < near

    def test_driver_resistance_drops_voltage(self):
        g = np.array([[1e-3]])
        sol = solve_with_wire_resistance(
            g, {0: 1.0}, {0: 0.0}, wire_resistance=1e-3, driver_resistance=1000.0
        )
        # 1 kohm row driver + 1 kohm junction + 1 kohm column driver:
        # a third of the voltage appears across the cell.
        assert sol.junction_voltage(0, 0) == pytest.approx(1.0 / 3.0, rel=0.01)

    def test_terminal_currents_balance(self):
        g = np.full((3, 3), 1e-4)
        sol = solve_with_wire_resistance(g, {0: 1.0, 2: 1.0}, {1: 0.0},
                                         wire_resistance=10.0)
        assert sol.row_currents.sum() == pytest.approx(
            sol.col_currents.sum(), rel=1e-6
        )

    def test_dense_fallback_size_guard(self):
        """The dense backend still refuses huge systems; the message
        points at the sparse extra."""
        g = np.ones((100, 100))
        assert 2 * g.size > DENSE_NODE_LIMIT
        with pytest.raises(CrossbarError, match="repro\\[fast\\]"):
            solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0}, backend="dense")

    def test_dense_guard_boundary_is_exclusive(self):
        """Regression: a system of *exactly* DENSE_NODE_LIMIT nodes used
        to slip past the `>` comparison and attempt the O(n^2)-memory
        dense factorization the limit exists to prevent."""
        rows, cols = 64, 128
        assert 2 * rows * cols == DENSE_NODE_LIMIT
        with pytest.raises(CrossbarError, match="repro\\[fast\\]"):
            solve_with_wire_resistance(
                np.full((rows, cols), 1e-4), {0: 1.0}, {0: 0.0},
                backend="dense",
            )

    @needs_scipy
    def test_sparse_backend_has_no_size_cap(self):
        """The seed's 8192-node cap is gone: 100x100 (20k nodes) solves."""
        g = np.full((100, 100), 1e-4)
        sol = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0},
                                         wire_resistance=10.0)
        assert np.isfinite(sol.junction_currents).all()
        assert sol.col_currents[0] > 0

    def test_rejects_nonpositive_wire_resistance(self):
        with pytest.raises(CrossbarError):
            solve_with_wire_resistance(
                np.ones((2, 2)), {0: 1.0}, {0: 0.0}, wire_resistance=0.0
            )

    def test_rejects_unknown_backend(self):
        with pytest.raises(CrossbarError):
            solve_with_wire_resistance(
                np.ones((2, 2)), {0: 1.0}, {0: 0.0}, backend="quantum"
            )

    def test_rejects_negative_conductance(self):
        with pytest.raises(CrossbarError):
            solve_with_wire_resistance(
                np.array([[-1.0]]), {0: 1.0}, {0: 0.0}
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_conductance(self, bad):
        """A NaN/inf conductance is refused up front, not reported as a
        singular system after a factorization attempt."""
        g = np.full((3, 3), 1e-4)
        g[1, 2] = bad
        misses = _CACHE_MISS.value
        for call in (
            lambda: solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0}),
            lambda: solve_many_with_wire_resistance(
                g, [({0: 1.0}, {0: 0.0})]),
            lambda: solve_junction_variants(
                g, {0: 1.0}, {0: 0.0}, [(0, 0, 1e-4)]),
        ):
            with pytest.raises(CrossbarError,
                               match="conductances must be finite"):
                call()
        assert _CACHE_MISS.value == misses

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_variant(self, bad):
        g = np.full((3, 3), 1e-4)
        misses = _CACHE_MISS.value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CrossbarError,
                               match="conductances must be finite"):
                solve_junction_variants(
                    g, {0: 1.0}, {0: 0.0}, [(1, 1, 2e-4), (2, 1, bad)])
        assert _CACHE_MISS.value == misses

    def test_disconnected_line_is_singular(self):
        """An undriven line with no junction path anywhere is a floating
        island: the system is singular on every backend."""
        g = np.array([[1e-3, 0.0], [0.0, 0.0]])
        backends = ["dense"] + (["sparse"] if scipy_available() else [])
        for backend in backends:
            with pytest.raises(CrossbarError):
                solve_with_wire_resistance(
                    g, {0: 1.0}, {0: 0.0}, backend=backend
                )


class TestCurrentConservation:
    """Regression for the terminal-current extraction bug: the seed
    recovered driven-line currents by differencing adjacent node
    voltages across one wire segment, which cancels catastrophically as
    wire resistance shrinks (~0.4% row/col mismatch at 1e-9 ohm)."""

    @pytest.mark.parametrize("wire_resistance", [1e-9, 1e-3, 1.0])
    def test_row_col_totals_agree(self, wire_resistance):
        rng = np.random.default_rng(42)
        g = rng.uniform(1e-5, 1e-3, (8, 8))
        sol = solve_with_wire_resistance(
            g, {0: 1.0}, {0: 0.0}, wire_resistance=wire_resistance
        )
        assert sol.row_currents.sum() == pytest.approx(
            sol.col_currents.sum(), rel=1e-6
        )

    @pytest.mark.parametrize("wire_resistance", [1e-9, 1e-3, 1.0])
    def test_all_driven_totals_agree(self, wire_resistance):
        g = np.full((6, 6), 1e-4)
        rd = {r: 1.0 for r in range(6)}
        cd = {c: 0.0 for c in range(6)}
        sol = solve_with_wire_resistance(
            g, rd, cd, wire_resistance=wire_resistance
        )
        assert sol.row_currents.sum() == pytest.approx(
            sol.col_currents.sum(), rel=1e-6
        )

    def test_tiny_wire_resistance_matches_ideal(self):
        """At 1e-9 ohm/segment the network is electrically ideal.  The
        recovered terminals must track the ideal solver (the float64
        nodal stamp itself carries ~1e-3 error at g_wire/g_junction ~
        1e13, so 1% is the right bar) and, unlike the seed's one-segment
        differencing, must agree with *each other* to solver tolerance."""
        g = np.full((4, 4), 1e-4)
        ideal = solve_ideal_wires(g, {0: 1.0}, {0: 0.0})
        wired = solve_with_wire_resistance(
            g, {0: 1.0}, {0: 0.0}, wire_resistance=1e-9
        )
        assert wired.row_currents[0] == pytest.approx(
            ideal.row_currents[0], rel=1e-2
        )
        assert wired.col_currents[0] == pytest.approx(
            ideal.col_currents[0], rel=1e-2
        )
        assert wired.row_currents.sum() == pytest.approx(
            wired.col_currents.sum(), rel=1e-9
        )

    def test_conservation_with_driver_resistance(self):
        g = np.full((5, 5), 2e-4)
        sol = solve_with_wire_resistance(
            g, {0: 1.0, 3: 0.7}, {1: 0.0}, wire_resistance=1e-6,
            driver_resistance=50.0,
        )
        assert sol.row_currents.sum() == pytest.approx(
            sol.col_currents.sum(), rel=1e-6
        )


class TestFactorizationCache:
    def setup_method(self):
        clear_factorization_cache()

    def test_warm_solve_is_identical_and_hits(self):
        g = np.full((4, 4), 1e-4)
        hits = _CACHE_HIT.value
        misses = _CACHE_MISS.value
        cold = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0},
                                          wire_resistance=2.0)
        warm = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0},
                                          wire_resistance=2.0)
        assert _CACHE_MISS.value == misses + 1
        assert _CACHE_HIT.value == hits + 1
        np.testing.assert_array_equal(cold.row_voltages, warm.row_voltages)
        np.testing.assert_array_equal(cold.junction_currents,
                                      warm.junction_currents)

    def test_changed_conductances_do_not_reuse_stale_factorization(self):
        g = np.full((3, 3), 1e-4)
        sol_a = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        g2 = g * 2.0
        sol_b = solve_with_wire_resistance(g2, {0: 1.0}, {0: 0.0})
        assert sol_b.col_currents[0] > 1.5 * sol_a.col_currents[0]

    def test_same_pattern_different_voltages_share_factorization(self):
        """Drive voltages only enter the right-hand side: one cached
        factorization serves them all, and linearity holds."""
        g = np.full((3, 3), 1e-4)
        rd = {r: 1.0 for r in range(3)}
        cd = {c: 0.0 for c in range(3)}
        solve_with_wire_resistance(g, rd, cd, wire_resistance=1e-3)
        before = factorization_cache_len()
        half = solve_with_wire_resistance(
            g, {r: 0.5 for r in rd}, cd, wire_resistance=1e-3)
        full = solve_with_wire_resistance(g, rd, cd, wire_resistance=1e-3)
        assert factorization_cache_len() == before
        assert np.allclose(half.junction_currents * 2.0,
                           full.junction_currents, rtol=1e-9)

    def test_clear_empties_cache(self):
        g = np.full((2, 2), 1e-4)
        solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        assert factorization_cache_len() >= 1
        clear_factorization_cache()
        assert factorization_cache_len() == 0

    def test_in_place_mutation_does_not_reuse_stale_factorization(self):
        """Regression guard: mutating the conductance matrix *in place*
        (same array object, same shape) must still miss the cache — the
        key hashes the matrix contents at lookup time, not object
        identity at insert time."""
        g = np.full((3, 3), 1e-4)
        sol_a = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        g *= 2.0  # same ndarray object, new contents
        sol_b = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        assert sol_b.col_currents[0] > 1.5 * sol_a.col_currents[0]
        g[1, 1] = 5e-4  # single-element write, same object again
        sol_c = solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        assert not np.allclose(sol_c.junction_currents,
                               sol_b.junction_currents)

    def test_single_cell_write_is_a_low_rank_update(self):
        """miss -> update -> hit -> miss: a first solve factors with the
        cold path's exact bits; a one-cell write derives a low-rank entry
        from it; re-reading the written array hits that entry
        bit-identically; writing more than LOW_RANK_MAX cells factors
        afresh."""
        rng = np.random.default_rng(5)
        g = rng.uniform(1e-5, 1e-3, (8, 8))
        rd, cd = {0: 1.0, 3: 0.5}, {2: 0.0}

        def solve(conductances):
            return solve_with_wire_resistance(
                conductances, rd, cd, wire_resistance=2.0)

        def counts():
            return (_CACHE_MISS.value, _CACHE_UPDATE.value, _CACHE_HIT.value)

        start = counts()
        first = solve(g)
        assert np.subtract(counts(), start).tolist() == [1, 0, 0]
        clear_factorization_cache()
        cold = solve(g)
        np.testing.assert_array_equal(first.row_voltages, cold.row_voltages)
        np.testing.assert_array_equal(first.col_voltages, cold.col_voltages)

        written = g.copy()
        written[5, 6] = 7e-4
        start = counts()
        updated = solve(written)
        assert np.subtract(counts(), start).tolist() == [0, 1, 0]
        reread = solve(written)
        assert np.subtract(counts(), start).tolist() == [0, 1, 1]
        np.testing.assert_array_equal(updated.row_voltages,
                                      reread.row_voltages)
        np.testing.assert_array_equal(updated.junction_currents,
                                      reread.junction_currents)
        clear_factorization_cache()
        fresh = solve(written)
        scale = np.abs(fresh.junction_currents).max()
        assert np.abs(updated.junction_currents
                      - fresh.junction_currents).max() <= 1e-9 * scale

        solve(g)  # the base again
        many = g.copy()
        cells = rng.choice(g.size, LOW_RANK_MAX + 1, replace=False)
        many.ravel()[cells] *= 1.5
        start = counts()
        solve(many)
        assert np.subtract(counts(), start).tolist() == [1, 0, 0]

    def test_update_derives_from_a_real_base_only(self):
        """Derived entries are never bases: a chain of writes stays one
        low-rank step from the last real factorization."""
        g = np.full((6, 6), 1e-4)
        solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        misses, updates = _CACHE_MISS.value, _CACHE_UPDATE.value
        for cell in range(LOW_RANK_MAX):
            g.ravel()[cell] = 3e-4
            solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        assert _CACHE_MISS.value == misses
        assert _CACHE_UPDATE.value == updates + LOW_RANK_MAX
        g.ravel()[LOW_RANK_MAX] = 3e-4  # one cell past the cap
        solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0})
        assert _CACHE_MISS.value == misses + 1

    def test_write_that_disconnects_a_line_factors_afresh(self):
        """A single-cell write that leaves a floating line without any
        junction makes the update's (1x1) capacitance matrix vanish: the
        cache falls back to a real factorization, which reports the
        singular system."""
        g = np.array([[1e-3, 1e-4], [1e-4, 0.0]])
        backends = ["dense"] + (["sparse"] if scipy_available() else [])
        for backend in backends:
            solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0},
                                       backend=backend)
            cut = g.copy()
            cut[1, 0] = 0.0  # row 1's last junction: the row floats alone
            misses = _CACHE_MISS.value
            with pytest.raises(CrossbarError, match="singular"):
                solve_with_wire_resistance(cut, {0: 1.0}, {0: 0.0},
                                           backend=backend)
            assert _CACHE_MISS.value == misses + 1

    def test_concurrent_updates_share_one_base(self):
        """Threads deriving updates from one base at once — a short
        switch interval forces them to interleave — all get the cold
        answer without factoring, and the base's memoised ``A⁻¹u``
        columns each still belong to their own junction."""
        rng = np.random.default_rng(11)
        g = rng.uniform(1e-5, 1e-3, (8, 8))
        rd, cd = {0: 1.0, 4: 0.3}, {1: 0.0, 6: 0.0}
        writes = []
        for _ in range(12):
            written = g.copy()
            cells = rng.choice(g.size, int(rng.integers(1, 4)), replace=False)
            written.ravel()[cells] = rng.uniform(1e-5, 1e-3, cells.size)
            writes.append(written)
        expected = []
        for written in writes:
            clear_factorization_cache()
            expected.append(
                solve_with_wire_resistance(written, rd, cd).col_currents)
        clear_factorization_cache()
        solve_with_wire_resistance(g, rd, cd)  # the shared base
        misses = _CACHE_MISS.value
        errors = []

        def worker(offset):
            try:
                for k in range(len(writes)):
                    i = (k + offset) % len(writes)
                    got = solve_with_wire_resistance(
                        writes[i], rd, cd).col_currents
                    error = np.abs(got - expected[i]).max()
                    if error > 1e-9 * np.abs(expected[i]).max():
                        errors.append((i, error))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _CACHE_MISS.value == misses
        (base,) = [f for f in _FACTOR_CACHE.values() if f.g is not None]
        assert base.columns
        for cell, column in base.columns.items():
            pi, pj = _ports(base, np.array([cell]))
            fresh = base.solve(_u_columns(pi, pj, base.unknown.size))[:, 0]
            np.testing.assert_allclose(
                column, fresh, rtol=0, atol=1e-12 * np.abs(fresh).max())


class TestMultiRHS:
    def setup_method(self):
        clear_factorization_cache()

    def _patterns(self, rows, cols):
        return [
            ({0: 1.0}, {0: 0.0}),
            ({0: 0.4}, {0: 0.0}),                      # same structure
            ({1: 1.0}, {2: 0.0}),                      # different lines
            ({r: 1.0 for r in range(rows)},
             {c: 0.0 for c in range(cols)}),           # all driven
        ]

    def test_solve_many_matches_sequential(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(1e-5, 1e-3, (5, 6))
        drives = self._patterns(5, 6)
        batched = solve_many_with_wire_resistance(
            g, drives, wire_resistance=2.0)
        for (rd, cd), sol in zip(drives, batched):
            single = solve_with_wire_resistance(
                g, rd, cd, wire_resistance=2.0)
            np.testing.assert_allclose(
                sol.junction_currents, single.junction_currents,
                rtol=1e-9)
            np.testing.assert_allclose(
                sol.col_currents, single.col_currents, rtol=1e-9)

    def test_solve_many_groups_by_structure(self):
        """Patterns driving the same line sets share one factorization:
        4 patterns over 3 distinct structures -> 3 cache misses."""
        g = np.full((5, 6), 1e-4)
        misses = _CACHE_MISS.value
        solve_many_with_wire_resistance(
            g, self._patterns(5, 6), wire_resistance=2.0)
        assert _CACHE_MISS.value == misses + 3

    def test_solve_many_empty_and_bad_pattern(self):
        g = np.full((2, 2), 1e-4)
        assert solve_many_with_wire_resistance(g, []) == []
        with pytest.raises(CrossbarError, match="pattern 1:"):
            solve_many_with_wire_resistance(
                g, [({0: 1.0}, {0: 0.0}), ({5: 1.0}, {0: 0.0})])

    def test_junction_variants_match_full_solves(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(1e-5, 1e-3, (6, 6))
        rd, cd = {0: 1.0}, {0: 0.0}
        variants = [(0, 0, 5e-4), (3, 4, 1e-5), (2, 2, g[2, 2])]
        base, solved = solve_junction_variants(
            g, rd, cd, variants, wire_resistance=3.0)
        reference = solve_with_wire_resistance(
            g, rd, cd, wire_resistance=3.0)
        np.testing.assert_allclose(
            base.junction_currents, reference.junction_currents,
            rtol=1e-9)
        for (r, c, g_new), sol in zip(variants, solved):
            g_var = g.copy()
            g_var[r, c] = g_new
            full = solve_with_wire_resistance(
                g_var, rd, cd, wire_resistance=3.0)
            # atol floors out float noise on undriven (floating) lines
            # whose true current is ~0 at the 1e-3 A problem scale.
            np.testing.assert_allclose(
                sol.col_currents, full.col_currents,
                rtol=1e-6, atol=1e-12)
            np.testing.assert_allclose(
                sol.junction_currents, full.junction_currents,
                rtol=1e-6, atol=1e-12)

    def test_junction_variants_one_factorization(self):
        g = np.full((4, 4), 1e-4)
        misses = _CACHE_MISS.value
        solve_junction_variants(
            g, {0: 1.0}, {0: 0.0},
            [(0, 0, 5e-4), (1, 1, 2e-4), (3, 3, 9e-4)],
            wire_resistance=2.0)
        assert _CACHE_MISS.value == misses + 1

    def test_junction_variants_validation(self):
        g = np.full((2, 2), 1e-4)
        with pytest.raises(CrossbarError):
            solve_junction_variants(
                g, {0: 1.0}, {0: 0.0}, [(2, 0, 1e-4)],
                wire_resistance=1.0)
        with pytest.raises(CrossbarError):
            solve_junction_variants(
                g, {0: 1.0}, {0: 0.0}, [(0, 0, -1e-4)],
                wire_resistance=1.0)
