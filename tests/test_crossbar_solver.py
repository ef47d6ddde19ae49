"""Tests for the crossbar electrical solvers against hand-computable
circuits."""

import re
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.board import IdealSimBoard
from repro.crossbar.solver import (
    DENSE_NODE_LIMIT,
    LOW_RANK_MAX,
    clear_factorization_cache,
    column_currents_with_wire_resistance,
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
    _RESPONSE_BUILD,
    _RESPONSE_UPDATE,
    _SOLVES_WIRE,
    _TRANSFER_BUILD,
    _TRANSFER_UPDATE,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_drive(self, bad):
        """Refused by name, not reported as a singular system (IR drop)
        or returned as NaN currents (ideal wires)."""
        g = np.full((3, 3), 1e-4)
        for solve in (solve_ideal_wires, solve_with_wire_resistance):
            with pytest.raises(CrossbarError,
                               match="row 1 drive voltage must be finite"):
                solve(g, {0: 0.1, 1: bad}, {0: 0.0})
            with pytest.raises(CrossbarError,
                               match="col 2 drive voltage must be finite"):
                solve(g, {0: 0.1}, {2: bad})
        with pytest.raises(CrossbarError, match="pattern 1: row 0 drive"):
            solve_many_with_wire_resistance(
                g, [({0: 0.1}, {0: 0.0}), ({0: bad}, {0: 0.0})])
        with pytest.raises(CrossbarError, match="row 0 drive voltage"):
            solve_junction_variants(g, {0: bad}, {0: 0.0}, [(1, 1, 1e-5)])
        volts = np.full((2, 3), 0.1)
        volts[1, 2] = bad
        with pytest.raises(CrossbarError, match="pattern 1: row 2 drive"):
            column_currents_with_wire_resistance(g, volts)

    @pytest.mark.parametrize("bad", [0.5, 1.7, np.float64(2.0)])
    def test_rejects_fractional_line_index(self, bad):
        """A non-integer index is refused by name: `int(0.5 * cols)`
        would otherwise drive row 0 at its column-2 node."""
        g = np.full((4, 4), 1e-4)
        match = re.escape(f"index {bad!r} must be an integer")
        for solve in (solve_ideal_wires, solve_with_wire_resistance):
            with pytest.raises(CrossbarError, match=f"row {match}"):
                solve(g, {bad: 1.0}, {0: 0.0})
            with pytest.raises(CrossbarError, match=f"col {match}"):
                solve(g, {0: 1.0}, {bad: 0.0})
        with pytest.raises(CrossbarError, match=f"pattern 1: row {match}"):
            solve_many_with_wire_resistance(
                g, [({0: 1.0}, {0: 0.0}), ({bad: 1.0}, {0: 0.0})])
        with pytest.raises(CrossbarError, match=f"row {match}"):
            solve_junction_variants(g, {bad: 1.0}, {0: 0.0}, [(1, 1, 1e-5)])
        with pytest.raises(CrossbarError, match=f"variant row {match}"):
            solve_junction_variants(g, {0: 1.0}, {0: 0.0}, [(bad, 0, 1e-5)])
        with pytest.raises(CrossbarError, match=f"variant col {match}"):
            solve_junction_variants(g, {0: 1.0}, {0: 0.0}, [(0, bad, 1e-5)])

    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_bool_line_index(self, bad):
        """Python counts a bool as an int, so {True: v} once drove row
        1 and a (True, 0, g) variant crashed inside NumPy; both are
        refused by name, on the board too."""
        g = np.full((4, 4), 1e-4)
        match = re.escape(f"index {bad!r} must be an integer")
        for solve in (solve_ideal_wires, solve_with_wire_resistance):
            with pytest.raises(CrossbarError, match=f"row {match}"):
                solve(g, {bad: 0.2}, {0: 0.0})
            with pytest.raises(CrossbarError, match=f"col {match}"):
                solve(g, {0: 0.2}, {bad: 0.0})
        with pytest.raises(CrossbarError, match=f"row {match}"):
            solve_junction_variants(g, {bad: 0.2}, {0: 0.0}, [(1, 1, 1e-5)])
        with pytest.raises(CrossbarError, match=f"variant row {match}"):
            solve_junction_variants(g, {0: 0.2}, {0: 0.0}, [(bad, 0, 1e-5)])
        with pytest.raises(CrossbarError, match=f"variant col {match}"):
            solve_junction_variants(g, {0: 0.2}, {0: 0.0}, [(0, bad, 1e-5)])
        board = IdealSimBoard(4, 4)
        board.program(g)
        stats = board.stats.as_dict()
        with pytest.raises(CrossbarError, match=f"variant row {match}"):
            board.read_iv_variants({0: 0.2}, {0: 0.0}, [(bad, 0, g)])
        with pytest.raises(CrossbarError, match=f"row {match}"):
            board.read_iv_variants({bad: 0.2}, {0: 0.0}, [(1, 1, 1e-5)])
        assert board.stats.as_dict() == stats

    def test_numpy_integer_indices_are_accepted(self):
        g = np.full((4, 4), 1e-4)
        clear_factorization_cache()
        want = solve_with_wire_resistance(g, {1: 1.0}, {2: 0.0})
        got = solve_with_wire_resistance(g, {np.int64(1): 1.0},
                                         {np.intp(2): 0.0})
        assert np.array_equal(got.junction_currents, want.junction_currents)
        _, (variant,) = solve_junction_variants(
            g, {1: 1.0}, {2: 0.0}, [(np.int32(3), np.int64(0), 1e-5)])
        g[3, 0] = 1e-5
        full = solve_with_wire_resistance(g, {1: 1.0}, {2: 0.0})
        np.testing.assert_allclose(variant.junction_currents,
                                   full.junction_currents, rtol=1e-9,
                                   atol=1e-15)

    @pytest.mark.parametrize("name, bad", [
        ("wire_resistance", np.nan), ("wire_resistance", np.inf),
        ("driver_resistance", np.nan), ("driver_resistance", np.inf)])
    def test_rejects_non_finite_resistance(self, name, bad):
        """Refused by name, not solved as ideal drivers (NaN driver),
        returned as zero currents (infinite driver) or reported as a
        singular system (non-finite wire)."""
        g = np.full((3, 3), 1e-4)
        options = {name: bad}
        match = f"{name} must be finite"
        calls = [
            lambda: solve_with_wire_resistance(g, {0: 1.0}, {0: 0.0},
                                               **options),
            lambda: solve_many_with_wire_resistance(
                g, [({0: 1.0}, {0: 0.0})], **options),
            lambda: solve_junction_variants(
                g, {0: 1.0}, {0: 0.0}, [(1, 1, 1e-5)], **options),
        ]
        if name == "wire_resistance":
            calls.append(lambda: column_currents_with_wire_resistance(
                g, np.full((1, 3), 0.1), wire_resistance=bad))
        misses = _CACHE_MISS.value
        for call in calls:
            with pytest.raises(CrossbarError, match=match):
                call()
        board = IdealSimBoard(3, 3)
        board.program(g)
        stats = board.stats.as_dict()
        with pytest.raises(CrossbarError, match=match):
            board.read_iv_variants({0: 1.0}, {0: 0.0}, [(1, 1, 1e-5)],
                                   **options)
        if name == "wire_resistance":
            with pytest.raises(CrossbarError, match=match):
                board.read_iv({0: 1.0}, {0: 0.0}, wire_resistance=bad)
        else:
            with pytest.raises(CrossbarError, match=match):
                board.read_iv({0: 1.0}, {0: 0.0}, wire_resistance=1.0,
                              driver_resistance=bad)
        assert board.stats.as_dict() == stats
        assert _CACHE_MISS.value == misses


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
            # Floating (undriven) columns carry ~1e-16 A of float noise
            # that differs between factorizations; floor the comparison
            # at 1e-9 of the largest driven column current.
            driven = np.abs(single.col_currents[sorted(cd)]).max()
            np.testing.assert_allclose(
                sol.col_currents, single.col_currents, rtol=1e-9,
                atol=1e-9 * driven)

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


class TestTransferMatrix:
    """Warm column reads from a family's transfer matrix: a cold answer
    keeps its junction-sum bits, every entry point answers one entry's
    block with the same bits, and only the terminal-current verb pays
    for a build."""

    def setup_method(self):
        clear_factorization_cache()

    @staticmethod
    def _board(rows=6, cols=5, seed=2):
        rng = np.random.default_rng(seed)
        board = IdealSimBoard(rows, cols)
        board.program(np.where(rng.random((rows, cols)) < 0.5, 1e-4, 1e-6))
        return board, rng.uniform(-0.2, 0.2, (cols + 2, rows))

    @staticmethod
    def _drives(volts, cols):
        grounded = {c: 0.0 for c in range(cols)}
        return [({r: float(v) for r, v in enumerate(row)}, grounded)
                for row in volts]

    def test_cold_read_is_the_junction_sum(self):
        board, volts = self._board()
        got = board.column_currents_many(volts, wire_resistance=2.0)
        clear_factorization_cache()
        cold = solve_many_with_wire_resistance(
            board.read_conductances(), self._drives(volts, board.cols),
            wire_resistance=2.0)
        for k, solution in enumerate(cold):
            assert np.array_equal(got[k],
                                  solution.junction_currents.sum(axis=0))

    def test_board_and_solver_agree_once_built(self):
        board, volts = self._board()
        builds = _TRANSFER_BUILD.value
        board.column_currents_many(volts, wire_resistance=2.0)
        assert _TRANSFER_BUILD.value == builds + 1
        (entry,) = _FACTOR_CACHE.values()
        assert entry.transfer is not None
        drives = self._drives(volts, board.cols)
        g = board.read_conductances()
        for _ in range(2):
            got = board.column_currents_many(volts, wire_resistance=2.0)
            want = solve_many_with_wire_resistance(g, drives,
                                                   wire_resistance=2.0)
            assert np.array_equal(got, np.stack([s.col_currents
                                                 for s in want]))
            single = solve_with_wire_resistance(g, *drives[0],
                                                wire_resistance=2.0)
            assert np.array_equal(
                board.column_currents(volts[0], wire_resistance=2.0),
                single.col_currents)
        # T-answered columns still count as solves; the build only once.
        solves = _SOLVES_WIRE.value
        board.column_currents_many(volts, wire_resistance=2.0)
        assert _SOLVES_WIRE.value == solves + len(volts)
        assert _TRANSFER_BUILD.value == builds + 1

    def test_one_off_read_builds_nothing(self):
        board, volts = self._board()
        builds = _TRANSFER_BUILD.value
        board.column_currents_many(volts[:board.cols - 1],
                                   wire_resistance=2.0)
        assert _TRANSFER_BUILD.value == builds
        assert all(entry.transfer is None for entry in _FACTOR_CACHE.values())
        # Full solves never count toward the build.
        for _ in range(3):
            solve_many_with_wire_resistance(
                board.read_conductances(), self._drives(volts, board.cols),
                wire_resistance=2.0)
        assert _TRANSFER_BUILD.value == builds

    def test_written_family_updates_instead_of_rebuilding(self):
        board, volts = self._board()
        board.column_currents_many(volts, wire_resistance=2.0)
        builds, updates = _TRANSFER_BUILD.value, _TRANSFER_UPDATE.value
        for row, col in ((3, 2), (0, 4), (2, 0), (0, 0)):
            board.pulse(row, col, 1e-4 if board.read_conductances()[row, col]
                        < 1e-5 else 1e-6)
            got = board.column_currents_many(volts, wire_resistance=2.0)
            g = board.read_conductances()
            clear_factorization_cache()
            cold = np.stack([s.col_currents for s in
                             solve_many_with_wire_resistance(
                                 g, self._drives(volts, board.cols),
                                 wire_resistance=2.0)])
            assert np.abs(got - cold).max() <= 1e-9 * np.abs(cold).max()
            clear_factorization_cache()
            board.column_currents_many(volts, wire_resistance=2.0)  # rebuild
            builds += 1
        assert _TRANSFER_BUILD.value == builds
        assert _TRANSFER_UPDATE.value == updates + 4

    def test_concurrent_reads_share_one_build(self):
        """Threads reading written arrays of one family at once — a short
        switch interval forces them to interleave — all get the cold
        answer, and the family's transfer matrix is built once."""
        rng = np.random.default_rng(13)
        g = np.where(rng.random((8, 8)) < 0.5, 1e-4, 1e-6)
        volts = rng.uniform(-0.2, 0.2, (3, 8))
        writes = []
        for _ in range(10):
            written = g.copy()
            cells = rng.choice(g.size, int(rng.integers(1, 4)), replace=False)
            written.ravel()[cells] = rng.uniform(1e-6, 1e-4, cells.size)
            writes.append(written)
        expected = []
        for written in writes:
            clear_factorization_cache()
            expected.append(column_currents_with_wire_resistance(
                written, volts))
        clear_factorization_cache()
        column_currents_with_wire_resistance(g, volts)  # the shared base
        builds, misses = _TRANSFER_BUILD.value, _CACHE_MISS.value
        errors = []

        def worker(offset):
            try:
                for k in range(2 * len(writes)):
                    i = (k + offset) % len(writes)
                    got = column_currents_with_wire_resistance(
                        writes[i], volts)
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
        assert _TRANSFER_BUILD.value == builds + 1
        (base,) = [f for f in _FACTOR_CACHE.values() if f.g is not None]
        assert base.served == 3 + 6 * 2 * len(writes) * 3


class TestPortResponse:
    """Few-driver full solves from a family's port response ``R``: a
    cold answer keeps the factorization's bits, the build waits for as
    many answered drive columns as there are drivers, every entry point
    answers one entry's state with the same bits, and writes move ``R``
    instead of rebuilding it."""

    def setup_method(self):
        clear_factorization_cache()

    @staticmethod
    def _array(rows=6, cols=5, seed=5):
        rng = np.random.default_rng(seed)
        return np.where(rng.random((rows, cols)) < 0.5, 1e-4, 1e-6)

    @staticmethod
    def _assert_close(got, want):
        for name in ("row_voltages", "col_voltages", "junction_currents",
                     "row_currents", "col_currents"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name

    def test_cold_answer_is_the_factorization_and_second_builds(self):
        g = self._array()
        rows, cols = g.shape
        drive = ({0: 0.3}, {cols - 1: 0.0})
        builds = _RESPONSE_BUILD.value
        # Two drive columns against two drivers: the break-even, but a
        # one-off call builds nothing and answers from the solve.
        cold, _ = solve_many_with_wire_resistance(
            g, [drive, ({0: -0.1}, {cols - 1: 0.0})], wire_resistance=2.0)
        (entry,) = _FACTOR_CACHE.values()
        assert entry.response is None and _RESPONSE_BUILD.value == builds
        volts = np.array([[0.3, -0.1], [0.0, 0.0]])
        x = np.empty(entry.n_nodes)
        x[entry.pinned] = volts[:, 0]
        x[entry.unknown] = entry.solve(-(entry.a_up @ volts))[:, 0]
        assert np.array_equal(cold.row_voltages.ravel(), x[:rows * cols])
        assert np.array_equal(cold.col_voltages.ravel(), x[rows * cols:])
        # The second call builds R first and answers from it: one
        # matrix product, still counted as a solve.
        solves = _SOLVES_WIRE.value
        warm = solve_with_wire_resistance(g, *drive, wire_resistance=2.0)
        assert _RESPONSE_BUILD.value == builds + 1
        assert entry.response is not None
        assert _SOLVES_WIRE.value == solves + 1
        self._assert_close(warm, cold)
        again = solve_with_wire_resistance(g, *drive, wire_resistance=2.0)
        assert np.array_equal(again.junction_currents, warm.junction_currents)
        assert _RESPONSE_BUILD.value == builds + 1

    def test_board_and_solvers_agree_once_built(self):
        g = self._array()
        board = IdealSimBoard(*g.shape)
        board.program(g)
        drive, variants = ({0: 0.3}, {0: 0.0}), [(0, 0, 1e-6), (2, 3, 1e-4)]
        builds = _RESPONSE_BUILD.value
        for _ in range(3):
            board.read_iv_variants(*drive, variants, wire_resistance=2.0)
        assert _RESPONSE_BUILD.value == builds + 1
        for _ in range(2):
            base, got = board.read_iv_variants(*drive, variants,
                                               wire_resistance=2.0)
            want_base, want = solve_junction_variants(
                g, *drive, variants, wire_resistance=2.0)
            single = solve_with_wire_resistance(g, *drive,
                                                wire_resistance=2.0)
            for solution in (want_base, single):
                assert np.array_equal(base.row_currents,
                                      solution.row_currents)
                assert np.array_equal(base.junction_currents,
                                      solution.junction_currents)
            for a, b in zip(got, want):
                assert np.array_equal(a.junction_currents,
                                      b.junction_currents)

    def test_all_driven_junction_sums_agree_once_built(self):
        """Up to 4x4 the all-driven structure has at most 8 drivers: the
        column verb's junction-sum path reads ``R`` too."""
        g = self._array(3, 3)
        board = IdealSimBoard(3, 3)
        board.program(g)
        rng = np.random.default_rng(8)
        grounded = {c: 0.0 for c in range(3)}
        drives = [({r: float(v) for r, v in enumerate(row)}, grounded)
                  for row in rng.uniform(-0.2, 0.2, (6, 3))]
        builds = _RESPONSE_BUILD.value
        solve_many_with_wire_resistance(g, drives, wire_resistance=2.0)
        want = solve_many_with_wire_resistance(g, drives[:2],
                                               wire_resistance=2.0)
        assert _RESPONSE_BUILD.value == builds + 1
        volts = np.array([[d[0][r] for r in range(3)] for d in drives[:2]])
        got = board.column_currents_many(volts, wire_resistance=2.0)
        assert all(entry.transfer is None for entry in _FACTOR_CACHE.values())
        assert np.array_equal(got, np.stack([s.col_currents for s in want]))

    def test_many_drivers_and_one_off_reads_build_nothing(self):
        g = self._array()
        rows, cols = g.shape
        builds = _RESPONSE_BUILD.value
        # 5 + 4 = 9 drivers: more than one adjoint block, never built.
        many = ({r: 0.1 * r for r in range(5)}, {c: 0.0 for c in range(4)})
        for _ in range(3):
            solve_many_with_wire_resistance(g, [many] * 10,
                                            wire_resistance=2.0)
        # One call per two-driver structure and entry point, however
        # many columns it answers.
        solve_with_wire_resistance(g, {0: 0.3}, {0: 0.0},
                                   wire_resistance=2.0)
        solve_junction_variants(g, {1: 0.3}, {1: 0.0}, [(1, 1, 1e-6)],
                                wire_resistance=2.0)
        solve_many_with_wire_resistance(g, [({2: 0.3}, {2: 0.0})] * 5,
                                        wire_resistance=2.0)
        # The terminal-current verb never counts toward R.
        for _ in range(3):
            column_currents_with_wire_resistance(
                g, np.full((cols, rows), 0.1), wire_resistance=2.0)
        assert _RESPONSE_BUILD.value == builds
        assert all(entry.response is None
                   for entry in _FACTOR_CACHE.values())

    def test_written_family_updates_instead_of_rebuilding(self):
        g = self._array()
        rows, cols = g.shape
        drive = ({0: 0.3}, {cols - 1: 0.0})
        for _ in range(3):
            solve_with_wire_resistance(g, *drive, wire_resistance=2.0)
        builds, updates = _RESPONSE_BUILD.value, _RESPONSE_UPDATE.value
        # Row-side pinned, column-side pinned, then a free junction.
        for cell in ((0, 0), (0, cols - 1), (3, 2)):
            g = g.copy()
            g[cell] = 1e-4 if g[cell] < 1e-5 else 1e-6
            got = solve_with_wire_resistance(g, *drive, wire_resistance=2.0)
            saved = list(_FACTOR_CACHE.items())
            clear_factorization_cache()
            cold = solve_with_wire_resistance(g, *drive, wire_resistance=2.0)
            clear_factorization_cache()
            _FACTOR_CACHE.update(saved)
            self._assert_close(got, cold)
        assert _RESPONSE_BUILD.value == builds
        assert _RESPONSE_UPDATE.value == updates + 3

    def test_both_pinned_write_keeps_the_response(self):
        """Cell (0, 0) under ``{0}``/``{0}`` has both nodes pinned: no
        unknown node moves, so the derived entry shares the base's R."""
        g = self._array()
        for _ in range(3):
            solve_with_wire_resistance(g, {0: 0.3}, {0: 0.0},
                                       wire_resistance=2.0)
        (base,) = _FACTOR_CACHE.values()
        assert base.response is not None
        written = g.copy()
        written[0, 0] = 1e-4 if g[0, 0] < 1e-5 else 1e-6
        got = solve_with_wire_resistance(written, {0: 0.3}, {0: 0.0},
                                         wire_resistance=2.0)
        derived = [f for f in _FACTOR_CACHE.values() if f.base is base]
        assert len(derived) == 1 and derived[0].response is base.response
        clear_factorization_cache()
        cold = solve_with_wire_resistance(written, {0: 0.3}, {0: 0.0},
                                          wire_resistance=2.0)
        self._assert_close(got, cold)

    def test_concurrent_reads_share_one_build(self):
        """Threads reading written arrays of one few-driver family at
        once all get the cold answer, and R is built once."""
        rng = np.random.default_rng(17)
        g = np.where(rng.random((8, 8)) < 0.5, 1e-4, 1e-6)
        drive = ({0: 0.3}, {7: 0.0})
        writes = []
        for _ in range(10):
            written = g.copy()
            cells = rng.choice(g.size, int(rng.integers(1, 4)), replace=False)
            written.ravel()[cells] = rng.uniform(1e-6, 1e-4, cells.size)
            writes.append(written)
        expected = []
        for written in writes:
            clear_factorization_cache()
            expected.append(solve_with_wire_resistance(written, *drive))
        clear_factorization_cache()
        solve_with_wire_resistance(g, *drive)  # the shared base
        builds, misses = _RESPONSE_BUILD.value, _CACHE_MISS.value
        errors = []

        def worker(offset):
            try:
                for k in range(2 * len(writes)):
                    i = (k + offset) % len(writes)
                    got = solve_with_wire_resistance(writes[i], *drive)
                    want = expected[i].junction_currents
                    error = np.abs(got.junction_currents - want).max()
                    if error > 1e-10 * np.abs(want).max():
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
        assert _RESPONSE_BUILD.value == builds + 1
        (base,) = [f for f in _FACTOR_CACHE.values() if f.g is not None]
        assert base.answered == 1 + 6 * 2 * len(writes)


class TestWritePath:
    """A single-cell write costs one ``A⁻¹u`` column per cached
    structure, and a family keeps its ``T`` and ``R`` across a
    re-base."""

    READ = ({0: 0.2}, {0: 0.0})   # the Fig. 3 read: two pinned drivers
    VARIANT = [(0, 0, 1e-6)]      # both nodes pinned: no extra solve

    def setup_method(self):
        clear_factorization_cache()

    def _board(self, n, seed):
        rng = np.random.default_rng(seed)
        board = IdealSimBoard(n, n)
        board.program(np.where(rng.random((n, n)) < 0.5, 1e-4, 1e-6))
        return board, rng.uniform(0.0, 0.2, (n, n))

    def _read(self, board, volts, backend):
        currents = board.column_currents_many(volts, wire_resistance=2.0,
                                              backend=backend)
        base, variants = board.read_iv_variants(
            *self.READ, self.VARIANT, wire_resistance=2.0, backend=backend)
        return currents, base, variants[0]

    def _assert_cold(self, board, got, volts, backend):
        """*got* matches cold solves of the board's state; the cache is
        left as it was."""
        g = board.read_conductances()
        saved = list(_FACTOR_CACHE.items())
        clear_factorization_cache()
        try:
            grounded = {c: 0.0 for c in range(g.shape[1])}
            cold = np.stack([s.col_currents for s in
                             solve_many_with_wire_resistance(
                                 g, [({r: float(v) for r, v in enumerate(row)},
                                      grounded) for row in volts],
                                 wire_resistance=2.0, backend=backend)])
            base, (variant,) = solve_junction_variants(
                g, *self.READ, self.VARIANT, wire_resistance=2.0,
                backend=backend)
        finally:
            clear_factorization_cache()
            _FACTOR_CACHE.update(saved)
        for a, b in ((got[0], cold),
                     (got[1].row_currents, base.row_currents),
                     (got[1].col_currents, base.col_currents),
                     (got[2].row_currents, variant.row_currents),
                     (got[2].col_currents, variant.col_currents)):
            assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()

    @staticmethod
    def _flip(board, row, col):
        g = board.read_conductances()[row, col]
        board.pulse(row, col, 1e-4 if g < 1e-5 else 1e-6)

    def test_rebased_family_stays_hot(self):
        board, volts = self._board(8, 21)
        for _ in range(3):  # both families build: T, then R
            self._read(board, volts, "auto")
        assert all(f.transfer is not None or f.response is not None
                   for f in _FACTOR_CACHE.values())
        cells = 1 + np.random.default_rng(4).choice(
            board.rows * board.cols - 1, LOW_RANK_MAX + 1, replace=False)
        for n, cell in enumerate(cells):
            misses = _CACHE_MISS.value
            builds = _TRANSFER_BUILD.value, _RESPONSE_BUILD.value
            self._flip(board, *divmod(int(cell), board.cols))
            got = self._read(board, volts[:2], "auto")
            t_built = _TRANSFER_BUILD.value - builds[0]
            r_built = _RESPONSE_BUILD.value - builds[1]
            # The all-driven family re-bases on the last write (the
            # two-driver one also whenever its growth bound trips), and
            # every fresh base builds its map at its first read instead
            # of answering cold.
            assert t_built == (n == LOW_RANK_MAX)
            assert _CACHE_MISS.value - misses == t_built + r_built
            self._assert_cold(board, got, volts[:2], "auto")
        (fresh,) = [f for f in _FACTOR_CACHE.values()
                    if f.g is not None and f.pinned.size == 2 * board.rows
                    and np.array_equal(f.g, board.read_conductances())]
        assert fresh.transfer is not None

    def test_reprogrammed_array_starts_cold(self):
        """Only a base within 2·LOW_RANK_MAX junctions passes its counts
        on: an array reprogrammed in more cells is a new family."""
        board, volts = self._board(10, 25)
        board.column_currents_many(volts, wire_resistance=2.0)
        builds, misses = _TRANSFER_BUILD.value, _CACHE_MISS.value
        g = board.read_conductances()
        board.program(np.where(g < 1e-5, 1e-4, 1e-6))  # every cell moves
        board.column_currents_many(volts[:2], wire_resistance=2.0)
        assert _CACHE_MISS.value == misses + 1
        assert _TRANSFER_BUILD.value == builds

    @pytest.mark.parametrize("backend", [
        pytest.param("sparse", marks=needs_scipy), "dense"])
    def test_one_solve_per_structure_per_write(self, backend, monkeypatch):
        import repro.crossbar.solver as solver

        board, volts = self._board(9, 23)
        log, spying = [], [False]
        build = solver._build_factorization

        def spied(*args):
            fact = build(*args)
            solve = fact.solve

            def counted(b):
                if spying[0]:
                    log.append((fact.pinned.size, np.shape(b)[1:] or (1,)))
                return solve(b)

            fact.solve = counted
            return fact

        monkeypatch.setattr(solver, "_build_factorization", spied)
        for _ in range(3):
            self._read(board, volts, backend)
        # Fresh a, fresh b, a back, b back: each state is one write from
        # the last, the changed set stays small and the memos keep
        # growing past their bound; writing back needs no new column.
        cells = 1 + np.random.default_rng(6).permutation(
            board.rows * board.cols - 1)[:2 * LOW_RANK_MAX + 4]
        one_each = sorted([(board.rows + board.cols, (1,)), (2, (1,))])
        for a, b in cells.reshape(-1, 2):
            for cell, fresh in ((a, True), (b, True), (a, False),
                                (b, False)):
                del log[:]
                spying[0] = True
                self._flip(board, *divmod(int(cell), board.cols))
                got = self._read(board, volts, backend)
                spying[0] = False
                assert sorted(log) == (one_each if fresh else [])
                assert all(len(f.columns) <= 2 * LOW_RANK_MAX
                           for f in _FACTOR_CACHE.values() if f.g is not None)
                self._assert_cold(board, got, volts, backend)
