"""Tests for repro.engine: packing, kernel cache, executors, builtins."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BACKENDS,
    KERNEL_CACHE_CAPACITY,
    MAX_WIDTH,
    CAMMatchCost,
    adder_kernel,
    bits_to_int,
    cam_match_kernel,
    clear_kernel_cache,
    comparator_kernel,
    compile_kernel,
    compile_program,
    int_to_bits,
    kernel_cache_len,
    kernel_catalog,
    kernel_for_program,
    pack_words,
    program_digest,
    run_kernel,
    unpack_words,
    word_comparator_kernel,
)
from repro.compiler import random_network
from repro.engine.packing import assemble_words
from repro.errors import EngineError
from repro.logic.adders import ripple_adder_program
from repro.obs.registry import get_registry


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


class TestPacking:
    def test_int_bits_round_trip(self):
        for value in (0, 1, 5, 255, (1 << 16) - 1):
            assert bits_to_int(int_to_bits(value, 16)) == value

    def test_pack_words_little_endian(self):
        bits = pack_words([6], 4)
        assert bits.tolist() == [[0, 1, 1, 0]]

    def test_pack_unpack_round_trip(self):
        values = np.array([0, 1, 2**32 - 1, 12345], dtype=np.uint64)
        bits = pack_words(values, 32)
        assert np.array_equal(unpack_words(bits), values)

    def test_value_too_wide_rejected(self):
        with pytest.raises(EngineError):
            pack_words([4], 2)

    def test_width_limits(self):
        with pytest.raises(EngineError):
            pack_words([0], 0)
        with pytest.raises(EngineError):
            pack_words([0], MAX_WIDTH + 1)

    def test_empty_batch_rejected(self):
        """Regression: an empty batch used to pack into a (0, width)
        matrix and fail much later inside the executor."""
        with pytest.raises(EngineError, match="empty word batch"):
            pack_words([], 8)
        with pytest.raises(EngineError, match="empty word batch"):
            pack_words(np.array([], dtype=np.uint64), 8)

    def test_float_batch_rejected(self):
        """Regression: float words used to truncate silently."""
        with pytest.raises(EngineError, match="silently truncate"):
            pack_words([1.5, 2.0], 8)
        with pytest.raises(EngineError, match="silently truncate"):
            pack_words(np.array([1.0, 2.0]), 8)

    def test_too_wide_word_names_offending_index(self):
        """Regression: the error must pinpoint the bad word in a batch."""
        with pytest.raises(EngineError, match=r"word 2 = 256"):
            pack_words([0, 255, 256, 1], 8)

    def test_negative_word_names_offending_index(self):
        with pytest.raises(EngineError, match=r"word 1 is negative"):
            pack_words([3, -1, 2], 8)
        with pytest.raises(EngineError, match=r"word 0 is negative"):
            pack_words([-(1 << 70)], 8)

    def test_oversize_python_ints_rejected_with_index(self):
        """Regression: Python ints >= 2**64 used to crash in the uint64
        cast instead of raising a typed error."""
        with pytest.raises(EngineError, match=r"word 1 = \d+ does not fit"):
            pack_words([1, 1 << 70], 32)
        with pytest.raises(EngineError, match=r"word 0 is str"):
            pack_words(np.array(["ten", 3], dtype=object), 8)

    def test_bool_batch_packs(self):
        assert pack_words([True, False], 1).tolist() == [[1], [0]]

    def test_awkward_widths_round_trip(self):
        """Widths that are not multiples of 8 or 64 must round-trip."""
        for width in (1, 3, 7, 9, 13, 31, 33, 63):
            values = np.arange(5, dtype=np.uint64) % (1 << min(width, 62))
            assert np.array_equal(
                unpack_words(pack_words(values, width)), values)

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 64),
           words=st.sampled_from([1, 63, 64, 65, 4096]),
           seed=st.integers(0, 2**32 - 1),
           fill=st.sampled_from(["random", "ones", "zeros"]))
    def test_assemble_words_matches_int_oracle(self, width, words, seed,
                                               fill):
        if fill == "random":
            bits = np.random.default_rng(seed).integers(
                0, 2, (width, words), dtype=np.uint8)
        else:
            bits = np.full((width, words), fill == "ones", dtype=np.uint8)
        lanes = list(bits)
        assembled = assemble_words(lanes)
        assert assembled.dtype == np.uint64
        assert assembled.shape == (words,)
        oracle = [sum(int(lane[w]) << i for i, lane in enumerate(lanes))
                  for w in range(words)]
        assert assembled.tolist() == oracle


class TestKernelCache:
    def test_repeat_build_hits_cache(self):
        registry = get_registry()
        hits = registry.counter("engine_kernel_cache_total").labels(result="hit")
        misses = registry.counter("engine_kernel_cache_total").labels(result="miss")
        h0, m0 = hits.value, misses.value
        first = adder_kernel(8)
        second = adder_kernel(8)
        assert first is second
        assert misses.value == m0 + 1
        assert hits.value == h0 + 1

    def test_digest_distinguishes_programs(self):
        assert (program_digest(ripple_adder_program(4))
                != program_digest(ripple_adder_program(5)))

    def test_kernel_for_program_cached_by_digest(self):
        program = ripple_adder_program(4)
        k1 = kernel_for_program(program)
        k2 = kernel_for_program(ripple_adder_program(4))
        assert k1 is k2

    def test_lru_eviction_bounds_cache(self):
        for width in range(1, KERNEL_CACHE_CAPACITY + 10):
            word_comparator_kernel(1 + width % MAX_WIDTH)
        assert kernel_cache_len() <= KERNEL_CACHE_CAPACITY

    def test_allocation_shrinks_devices_not_steps(self):
        program = ripple_adder_program(8)
        allocated = compile_program(program, allocate=True)
        raw = compile_program(program, allocate=False)
        assert allocated.step_count == raw.step_count
        assert allocated.device_count <= raw.device_count


class TestCompileKernel:
    def test_netlist_pipeline_end_to_end(self):
        network = random_network(inputs=4, gates=12, outputs=2, seed=1)
        kernel = compile_kernel(network, name="fuzz", lanes=4)
        assert kernel.meta["gates"] == 12
        assert kernel.meta["lanes"] == 4
        # One word per input assignment: outputs must equal the netlist.
        assignments = [
            {name: (i >> lane) & 1 for lane, name in enumerate(network.inputs)}
            for i in range(2 ** len(network.inputs))
        ]
        batch = {
            name: [a[name] for a in assignments] for name in network.inputs
        }
        result = run_kernel(kernel, batch)
        for index, assignment in enumerate(assignments):
            expected = network.evaluate(assignment)
            for signal in network.outputs:
                assert result.outputs[signal][index] == expected[signal]

    def test_compile_kernel_cached(self):
        network = random_network(inputs=3, gates=6, outputs=1, seed=2)
        assert compile_kernel(network) is compile_kernel(network)


class TestExecutors:
    def test_functional_matches_known_sums(self):
        kernel = adder_kernel(8)
        result = run_kernel(kernel, {"a": [1, 250, 0], "b": [2, 10, 0]})
        assert result.word("sum").tolist() == [3, 4, 0]
        assert result.bit("cout").tolist() == [0, 1, 0]

    def test_electrical_backend_agrees(self):
        kernel = adder_kernel(4)
        result = run_kernel(kernel, {"a": [7, 9], "b": [8, 9]},
                            backend="electrical")
        assert result.word("sum").tolist() == [15, 2]

    def test_analytical_prices_without_values(self):
        kernel = adder_kernel(32)
        result = run_kernel(kernel, backend="analytical", words=1_000_000)
        assert result.outputs is None
        cost = kernel.cost
        assert result.energy == pytest.approx(cost.dynamic_energy * 1e6)
        assert result.latency == pytest.approx(cost.latency)
        with pytest.raises(EngineError):
            result.word("sum")

    def test_analytical_fallback_uses_compute_steps(self):
        kernel = word_comparator_kernel(4)          # no attached cost model
        result = run_kernel(kernel, backend="analytical", words=10)
        assert result.steps_per_word == kernel.compute_step_count

    def test_lockstep_cost_asymmetry(self):
        kernel = adder_kernel(4)
        one = run_kernel(kernel, {"a": [1], "b": [1]})
        many = run_kernel(kernel, {"a": [1] * 64, "b": [1] * 64})
        assert many.latency == pytest.approx(one.latency)
        assert many.energy == pytest.approx(64 * one.energy)

    def test_dispatch_counter_by_backend(self):
        counter = get_registry().counter("engine_executor_dispatch_total")
        kernel = adder_kernel(4)
        before = counter.labels(backend="functional").value
        run_kernel(kernel, {"a": [1], "b": [2]})
        assert counter.labels(backend="functional").value == before + 1

    def test_raw_signal_operands(self):
        kernel = comparator_kernel()
        result = run_kernel(kernel, {
            "a0": [1, 0], "a1": [0, 1], "b0": [1, 1], "b1": [0, 1],
        })
        assert result.bit("match").tolist() == [1, 0]

    def test_error_paths(self):
        kernel = adder_kernel(4)
        with pytest.raises(EngineError):
            run_kernel(kernel, {"a": [1], "b": [2]}, backend="quantum")
        with pytest.raises(EngineError):
            run_kernel(kernel, {"a": [1]})                  # missing b
        with pytest.raises(EngineError):
            run_kernel(kernel, {"a": [1], "b": [1, 2]})     # ragged batch
        with pytest.raises(EngineError):
            run_kernel(kernel, {"a": [1], "b": [2], "c": [3]})
        with pytest.raises(EngineError):
            run_kernel(kernel, {"a": [], "b": []})
        with pytest.raises(EngineError):
            run_kernel(kernel)                              # no batch size

    def test_backends_tuple_is_exhaustive(self):
        assert BACKENDS == (
            "functional", "functional_bitplane", "electrical", "analytical",
        )


class TestBuiltins:
    def test_catalog_lists_all_builtins(self):
        names = [entry["name"] for entry in kernel_catalog()]
        assert names == [
            "comparator", "word-compare-16", "tc-adder-32", "cam-match-16",
        ]

    def test_comparator_kernel_semantics(self):
        result = run_kernel(comparator_kernel(), {
            "a": [0, 1, 2, 3], "b": [0, 1, 2, 0],
        })
        assert result.bit("match").tolist() == [1, 1, 1, 0]

    def test_cam_match_cost_mirrors_cam_accounting(self):
        cost = CAMMatchCost(width=16)
        assert cost.memristors == 32
        assert cost.steps == 1
        assert cost.latency == cost.technology.write_time
        assert cost.dynamic_energy == pytest.approx(
            16 * cost.technology.write_energy)

    def test_cam_match_kernel_equality(self):
        result = run_kernel(cam_match_kernel(8), {
            "a": [42, 42, 0], "b": [42, 43, 0],
        })
        assert result.bit("match").tolist() == [1, 0, 1]

    def test_width_guard(self):
        with pytest.raises(EngineError):
            adder_kernel(0)
        with pytest.raises(EngineError):
            word_comparator_kernel(MAX_WIDTH + 1)


class TestKernelsCLI:
    def run_cli(self, *argv):
        import contextlib
        import io

        from repro.__main__ import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    def test_kernels_lists_builtins(self):
        code, out = self.run_cli("kernels")
        assert code == 0
        for name in ("comparator", "word-compare-32", "tc-adder-32",
                     "cam-match-32"):
            assert name in out
        assert "45 fJ" in out          # ComparatorCost Table 1 energy

    def test_kernels_width_flag(self):
        code, out = self.run_cli("kernels", "--width", "8")
        assert code == 0
        assert "tc-adder-8" in out

    def test_kernels_profile_plumbing(self):
        code, out = self.run_cli("kernels", "--profile")
        assert code == 0
        assert "span tree" in out
        assert "engine_kernel_cache_total" in out
