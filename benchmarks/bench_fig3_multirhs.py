"""Multi-RHS batched crossbar solves: the Fig 3 wire-path fast lane.

The wire-resistance nodal solver groups drive patterns by driven-line
structure and answers each group with one factorization plus a single
multi-column triangular solve (`solve_many_with_wire_resistance`);
single-cell conductance changes ride a rank-1 Sherman–Morrison update
on the base factorization (`solve_junction_variants`).  These
benchmarks gate both primitives against the sequential one-solve-per-
pattern path and prove the answers identical.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.crossbar import (
    VHalfBias,
    clear_factorization_cache,
    scipy_available,
    solve_junction_variants,
    solve_many_with_wire_resistance,
    solve_with_wire_resistance,
)

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy (repro[fast]) not installed")

SIZE = 64
WIRE = 5.0
PAIRS = 15  # alternating batched/sequential timings per side


def _conductances():
    rng = np.random.default_rng(7)
    return rng.uniform(1e-5, 1e-3, (SIZE, SIZE))


def _stress_drives(n_patterns):
    """V/2 write patterns: every line driven, so one shared structure."""
    scheme = VHalfBias()
    cells = [(i % SIZE, (i * 7) % SIZE) for i in range(n_patterns)]
    return [scheme.drives(SIZE, SIZE, r, c, 1.2) for r, c in cells]


@needs_scipy
def test_bench_fig3_multirhs(benchmark):
    """One factorization + one multi-column solve vs N full solves.

    16 same-structure drive patterns on a 64x64 array: the batched
    path's best of 15 alternating timings must win (within 1.1x) over
    the sequential path's best, and the per-pattern node voltages must
    match the sequential solver to float precision.
    """
    g = _conductances()
    drives = _stress_drives(16)

    def batched():
        clear_factorization_cache()
        return solve_many_with_wire_resistance(
            g, drives, wire_resistance=WIRE)

    def sequential_solves():
        clear_factorization_cache()
        # the sequential path still reuses the cached factorization
        # after pattern 0 — the delta below is pure multi-RHS batching.
        return [
            solve_with_wire_resistance(g, rd, cd, wire_resistance=WIRE)
            for rd, cd in drives
        ]

    solutions = benchmark(batched)

    # Both sides include a ~30 ms factorization and the batched lead is
    # a few ms, so one timing of each is noise-bound: alternate pairs,
    # flip which side runs first, and compare each side's best time.
    batched_times, sequential_times = [], []
    for pair in range(PAIRS):
        sides = [(batched, batched_times),
                 (sequential_solves, sequential_times)]
        if pair % 2:
            sides.reverse()
        for fn, times in sides:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    batched_s, sequential_s = min(batched_times), min(sequential_times)
    sequential = sequential_solves()

    speedup = sequential_s / batched_s if batched_s else float("inf")
    print()
    print(format_table(
        ["path", "wall", "solves/s"],
        [["sequential", f"{sequential_s * 1e3:.1f} ms",
          f"{len(drives) / sequential_s:.0f}"],
         ["multi-RHS batch", f"{batched_s * 1e3:.1f} ms",
          f"{len(drives) / batched_s:.0f}"],
         ["speedup", f"{speedup:.2f}x", "-"]],
        title=f"{len(drives)} V/2 patterns on {SIZE}x{SIZE} @ {WIRE} ohm",
    ))
    for batch_sol, seq_sol in zip(solutions, sequential):
        np.testing.assert_allclose(
            batch_sol.junction_currents, seq_sol.junction_currents,
            rtol=1e-9, atol=1e-15)
    assert batched_s <= sequential_s * 1.1


@needs_scipy
def test_bench_fig3_junction_variants(benchmark):
    """Rank-1 variant solves vs re-factorizing per conductance change."""
    g = _conductances()
    rd, cd = {0: 1.0}, {c: 0.0 for c in range(SIZE)}
    variants = [(i, i, 5e-4) for i in range(12)]

    def rank1():
        clear_factorization_cache()
        return solve_junction_variants(
            g, rd, cd, variants, wire_resistance=WIRE)

    base, solved = benchmark(rank1)

    start = time.perf_counter()
    clear_factorization_cache()
    full = []
    for r, c, g_new in variants:
        g_var = g.copy()
        g_var[r, c] = g_new
        full.append(solve_with_wire_resistance(
            g_var, rd, cd, wire_resistance=WIRE))
    full_s = time.perf_counter() - start

    start = time.perf_counter()
    rank1()
    rank1_s = time.perf_counter() - start

    print(f"\n{len(variants)} single-junction variants on "
          f"{SIZE}x{SIZE}: full re-factorization {full_s * 1e3:.1f} ms, "
          f"rank-1 updates {rank1_s * 1e3:.1f} ms "
          f"({full_s / rank1_s:.1f}x)")
    for sol, ref in zip(solved, full):
        np.testing.assert_allclose(
            sol.col_currents, ref.col_currents, rtol=1e-6, atol=1e-12)
    assert rank1_s < full_s
