"""The board layer: registry, identity, cost accounting, noise chain.

Bit-identity of the ideal board against the pre-refactor direct paths
is property-tested separately in ``test_property_board.py``; this file
covers the board contract itself — construction, digests, the registry
and environment default, stats/ledger accounting, the noisy instrument
chain (quantization, variability, faults, endurance), the hardware
stub, and the consumer seams (analog crossbar, engine executor, memory,
read margin, DSE campaign).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analog.crossbar import AnalogCrossbar, AnalogSpec, DifferentialCrossbar
from repro.board import (
    BOARDS,
    Board,
    DEFAULT_BOARD_ENV,
    HardwareStubBoard,
    IdealSimBoard,
    InstrumentProfile,
    NoisyInstrumentBoard,
    board_catalog,
    default_board_kind,
    make_board,
)
from repro.board.campaign import (
    evaluate_board_point,
    point_digest,
    split_overrides,
)
from repro.crossbar.memory import CrossbarMemory
from repro.crossbar.solver import (
    _CACHE_HIT,
    _CACHE_MISS,
    _CACHE_UPDATE,
    clear_factorization_cache,
)
from repro.crossbar.sneak import read_margin
from repro.engine import kernel_for_program, run_kernel
from repro.errors import BoardError, CrossbarError, EngineError
from repro.logic.adders import ripple_adder_program
from repro.reliability.faults import FaultType
from repro.spec import TABLE1


def _conductances(rows=4, cols=4, seed=0):
    return np.random.default_rng(seed).uniform(1e-6, 1e-3, (rows, cols))


class TestRegistry:
    def test_three_kinds_registered(self):
        assert set(BOARDS) == {"ideal", "noisy", "hardware"}
        for cls in BOARDS.values():
            assert issubclass(cls, Board)

    def test_make_board_builds_each_kind(self):
        for kind in BOARDS:
            board = make_board(kind, 4, 5)
            assert board.kind == kind
            assert (board.rows, board.cols) == (4, 5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BoardError, match="unknown board kind"):
            make_board("quantum", 4, 4)

    def test_bad_options_rejected(self):
        with pytest.raises(BoardError, match="invalid options"):
            make_board("ideal", 4, 4, profile=InstrumentProfile())

    def test_default_kind_env(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_BOARD_ENV, raising=False)
        assert default_board_kind() == "ideal"
        monkeypatch.setenv(DEFAULT_BOARD_ENV, "noisy")
        assert default_board_kind() == "noisy"
        assert make_board(None, 4, 4).kind == "noisy"
        monkeypatch.setenv(DEFAULT_BOARD_ENV, "bogus")
        with pytest.raises(BoardError, match="REPRO_BOARD"):
            default_board_kind()

    def test_catalog_lists_every_kind_once(self):
        catalog = board_catalog()
        assert [entry["kind"] for entry in catalog] == sorted(BOARDS)
        assert sum(entry["default"] for entry in catalog) == 1
        for entry in catalog:
            assert len(entry["digest"]) == 64
            assert entry["summary"]


class TestIdentity:
    def test_digest_stable_and_distinct(self):
        a = IdealSimBoard(4, 4)
        assert a.digest == IdealSimBoard(4, 4).digest
        assert a.digest != IdealSimBoard(4, 5).digest
        assert a.digest != NoisyInstrumentBoard(4, 4).digest
        assert a.short_digest == a.digest[:12]

    def test_digest_folds_spec(self):
        derived = TABLE1.derive({"memristor.write_energy": 2e-15})
        assert IdealSimBoard(4, 4).digest != IdealSimBoard(4, 4, spec=derived).digest

    def test_digest_folds_config(self):
        base = NoisyInstrumentBoard(4, 4, seed=0)
        other = NoisyInstrumentBoard(
            4, 4, profile=InstrumentProfile(variability=0.1), seed=0
        )
        assert base.digest != other.digest

    def test_config_json_serialisable(self):
        for kind in BOARDS:
            json.dumps(make_board(kind, 4, 4).config())

    def test_describe_names_kind_and_digests(self):
        board = IdealSimBoard(3, 7)
        text = board.describe()
        assert "ideal" in text and "3x7" in text
        assert board.short_digest in text

    def test_bad_geometry_rejected(self):
        with pytest.raises(BoardError, match="positive"):
            IdealSimBoard(0, 4)


class TestIdealBoard:
    def test_program_read_round_trip(self):
        board = IdealSimBoard(4, 4)
        g = _conductances()
        board.program(g)
        assert np.array_equal(board.read_conductances(), g)

    def test_program_validates_shape_and_values(self):
        board = IdealSimBoard(4, 4)
        with pytest.raises(BoardError, match="shape"):
            board.program(np.zeros((3, 4)))
        bad = np.zeros((4, 4))
        bad[1, 2] = -1.0
        with pytest.raises(BoardError, match="non-negative"):
            board.program(bad)

    def test_pulse_updates_single_cell(self):
        board = IdealSimBoard(4, 4)
        board.program(_conductances())
        board.pulse(1, 2, 5e-4)
        assert board.read_conductances()[1, 2] == 5e-4
        with pytest.raises(BoardError, match="outside"):
            board.pulse(4, 0, 1e-4)
        with pytest.raises(BoardError, match="finite"):
            board.pulse(0, 0, float("nan"))

    @pytest.mark.parametrize("row, col, target, why", [
        (True, 0, 5e-4, "integer"), (1, False, 5e-4, "integer"),
        (np.True_, 1, 5e-4, "integer"), (1.5, 0, 5e-4, "integer"),
        (0, 2.0, 5e-4, "integer"), ("1", 0, 5e-4, "integer"),
        (1, 1, float("nan"), "finite"), (1, 1, float("inf"), "finite"),
        (1, 1, -1e-4, "finite"), (1, 1, None, "real number"),
        (1, 1, "1e-4", "real number"), (1, 1, [1e-4], "real number"),
        (1, 1, True, "real number")])
    @pytest.mark.parametrize("kind", ["ideal", "noisy"])
    def test_refused_pulse_changes_nothing(self, kind, row, col, target, why):
        """A bool once rewrote a whole row (or nothing), a float raised a
        bare IndexError, and the noisy board kept a NaN target and its
        endurance cycle; now each is refused before the array, the
        stats or the digest memo change."""
        board = (IdealSimBoard(4, 4) if kind == "ideal"
                 else NoisyInstrumentBoard(4, 4, seed=0))
        board.program(_conductances())
        board.column_currents(np.full(4, 0.1), wire_resistance=1.0)
        inner = getattr(board, "_solver", board)
        g, stats = board.read_conductances(), board.stats.as_dict()
        cycles = getattr(board, "_cycles", np.zeros(1)).copy()
        digest = inner._g_digest
        assert digest is not None
        with pytest.raises(BoardError, match=why):
            board.pulse(row, col, target)
        assert np.array_equal(board.read_conductances(), g)
        assert board.stats.as_dict() == stats
        assert np.array_equal(getattr(board, "_cycles", np.zeros(1)), cycles)
        assert inner._g_digest is digest

    @pytest.mark.parametrize("kind", ["ideal", "noisy"])
    def test_pulse_accepts_numpy_integer_cells(self, kind):
        board = (IdealSimBoard(4, 4) if kind == "ideal"
                 else NoisyInstrumentBoard(4, 4, seed=0))
        board.program(_conductances())
        g = board.read_conductances()
        board.pulse(np.int64(1), np.int32(2), 5e-4)
        changed = np.argwhere(board.read_conductances() != g)
        assert changed.tolist() == [[1, 2]]
        assert board.stats.pulses == 1

    def test_stats_count_operations(self):
        board = IdealSimBoard(4, 4)
        board.program(_conductances())
        board.pulse(0, 0, 1e-4)
        board.column_currents(np.full(4, 0.2))
        board.column_currents_many(np.full((3, 4), 0.2))
        stats = board.stats
        assert stats.programs == 1
        assert stats.pulses == 1
        assert stats.device_writes == 17
        assert stats.matvec_words == 4
        assert stats.energy > 0 and stats.latency > 0

    def test_reset_clears_array_and_stats(self):
        board = IdealSimBoard(4, 4)
        stats = board.stats
        board.program(_conductances())
        board.reset()
        assert board.stats is stats  # reset in place, identity preserved
        assert stats.programs == 0 and stats.energy == 0.0
        assert np.array_equal(board.read_conductances(), np.zeros((4, 4)))

    def test_ledger_carries_provenance(self):
        board = IdealSimBoard(4, 4)
        board.program(_conductances())
        rows = board.ledger().as_rows()
        assert any("device writes" in row["provenance"] for row in rows)

    def test_charge_hook_accumulates(self):
        board = IdealSimBoard(4, 4)
        board.charge(energy=1e-12, latency=2e-9, device_writes=3)
        assert board.stats.energy == 1e-12
        assert board.stats.latency == 2e-9
        assert board.stats.device_writes == 3

    def test_read_iv_matches_direct_solver(self):
        from repro.crossbar.solver import solve_with_wire_resistance

        g = _conductances()
        board = IdealSimBoard(4, 4)
        board.program(g)
        drive = ({0: 0.5}, {3: 0.0})
        got = board.read_iv(*drive, wire_resistance=2.0)
        want = solve_with_wire_resistance(g, {0: 0.5}, {3: 0.0},
                                          wire_resistance=2.0)
        assert np.array_equal(got.col_currents, want.col_currents)
        assert board.stats.iv_reads == 1

    def test_imply_machine_runs_on_spec_devices(self):
        machine = IdealSimBoard(4, 4).imply_machine()
        assert machine.technology is TABLE1.memristor


class TestNonFiniteDrive:
    """A NaN or infinite drive voltage is refused, naming its line,
    before the read is charged or solved: ideal wires used to return it
    silently and IR drop to report a singular system, and both left
    ``stats.energy`` NaN for good."""

    @staticmethod
    def _board():
        board = IdealSimBoard(4, 4)
        board.program(_conductances())
        board.column_currents(np.full(4, 0.1))  # a finite history
        return board

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wire_resistance", [None, 1.0])
    def test_column_currents(self, bad, wire_resistance):
        board = self._board()
        before = board.stats.as_dict()
        v = np.full(4, 0.1)
        v[1] = bad
        with pytest.raises(BoardError, match="row 1 must be finite"):
            board.column_currents(v, wire_resistance=wire_resistance)
        assert board.stats.as_dict() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wire_resistance", [None, 1.0])
    def test_column_currents_many(self, bad, wire_resistance):
        board = self._board()
        before = board.stats.as_dict()
        v = np.full((3, 4), 0.1)
        v[2, 1] = bad
        with pytest.raises(BoardError, match="vector 2, row 1 must be finite"):
            board.column_currents_many(v, wire_resistance=wire_resistance)
        assert board.stats.as_dict() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wire_resistance", [None, 1.0])
    def test_read_iv(self, bad, wire_resistance):
        board = self._board()
        before = board.stats.as_dict()
        with pytest.raises(CrossbarError, match="row 0 drive voltage must be finite"):
            board.read_iv({0: bad}, {0: 0.0}, wire_resistance=wire_resistance)
        with pytest.raises(CrossbarError, match="col 2 drive voltage must be finite"):
            board.read_iv({0: 0.1}, {2: bad}, wire_resistance=wire_resistance)
        assert board.stats.as_dict() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_read_iv_variants(self, bad):
        board = self._board()
        before = board.stats.as_dict()
        with pytest.raises(CrossbarError, match="row 0 drive voltage must be finite"):
            board.read_iv_variants({0: bad}, {0: 0.0}, [(0, 0, 1e-4)])
        assert board.stats.as_dict() == before


class TestRefusedWireResistance:
    """An IR-drop column read the solver refuses for its wire
    resistance bills nothing, as a refused ``read_iv`` does."""

    BAD = [np.nan, np.inf, -1.0]

    @pytest.mark.parametrize("bad", BAD)
    def test_column_currents(self, bad):
        board = TestNonFiniteDrive._board()
        before = board.stats.as_dict()
        with pytest.raises(CrossbarError, match="wire_resistance must be"):
            board.column_currents(np.full(4, 0.1), wire_resistance=bad)
        assert board.stats.as_dict() == before

    @pytest.mark.parametrize("bad", BAD)
    def test_column_currents_many(self, bad):
        board = TestNonFiniteDrive._board()
        before = board.stats.as_dict()
        with pytest.raises(CrossbarError, match="wire_resistance must be"):
            board.column_currents_many(np.full((3, 4), 0.1),
                                       wire_resistance=bad)
        assert board.stats.as_dict() == before


class TestNoisyBoard:
    def test_zero_noise_matches_ideal(self):
        g = _conductances()
        ideal = IdealSimBoard(4, 4)
        noisy = NoisyInstrumentBoard(4, 4, seed=0)
        ideal.program(g)
        noisy.program(g)
        v = np.full(4, 0.2)
        assert np.array_equal(noisy.column_currents(v),
                              ideal.column_currents(v))

    def test_seed_reproducible_and_rng_exclusive(self):
        g = _conductances()
        profile = InstrumentProfile(variability=0.2)
        a = NoisyInstrumentBoard(4, 4, profile=profile, seed=9)
        b = NoisyInstrumentBoard(4, 4, profile=profile, seed=9)
        a.program(g)
        b.program(g)
        assert np.array_equal(a.read_conductances(), b.read_conductances())
        with pytest.raises(BoardError, match="not both"):
            NoisyInstrumentBoard(
                4, 4, rng=np.random.default_rng(0), seed=1
            )

    def test_variability_perturbs_within_range(self):
        g = _conductances()
        board = NoisyInstrumentBoard(
            4, 4, profile=InstrumentProfile(variability=0.3), seed=1
        )
        board.program(g)
        stored = board.read_conductances()
        assert not np.array_equal(stored, g)
        assert (stored >= board.profile.g_min).all()
        assert (stored <= board.profile.g_max).all()

    def test_dac_quantizes_conductances(self):
        board = NoisyInstrumentBoard(
            4, 4, profile=InstrumentProfile(dac_bits=2), seed=0
        )
        board.program(_conductances())
        grid = np.linspace(board.profile.g_min, board.profile.g_max, 4)
        stored = board.read_conductances()
        assert np.isin(stored.round(12), grid.round(12)).all()

    def test_adc_quantizes_currents(self):
        board = NoisyInstrumentBoard(
            4, 4, profile=InstrumentProfile(adc_bits=4, i_max=1e-3), seed=0
        )
        board.program(_conductances())
        currents = board.column_currents(np.full(4, 0.2))
        step = 1e-3 / (2 ** 4 - 1)
        assert np.allclose(currents / step, np.round(currents / step))

    def test_drive_clipped_to_v_max(self):
        g = np.full((2, 2), 1e-4)
        board = NoisyInstrumentBoard(
            2, 2, profile=InstrumentProfile(v_max=0.1), seed=0
        )
        board.program(g)
        clipped = board.column_currents(np.array([5.0, -5.0]))
        expected = np.array([0.1, -0.1]) @ board.read_conductances()
        assert np.allclose(clipped, expected)

    def test_stuck_at_faults_pin_cells(self):
        board = NoisyInstrumentBoard(4, 4, seed=0)
        board.inject_faults({(0, 0): FaultType.SA0, (1, 1): FaultType.SA1})
        board.program(_conductances())
        stored = board.read_conductances()
        assert stored[0, 0] == board.profile.g_min
        assert stored[1, 1] == board.profile.g_max

    def test_transition_faults_block_one_direction(self):
        board = NoisyInstrumentBoard(2, 2, seed=0)
        board.program(np.full((2, 2), 5e-4))
        board.inject_faults({(0, 0): FaultType.TF0, (0, 1): FaultType.TF1})
        g = np.full((2, 2), 5e-4)
        g[0, 0] = 9e-4   # TF0: cannot increase
        g[0, 1] = 1e-4   # TF1: cannot decrease
        board.program(g)
        stored = board.read_conductances()
        assert stored[0, 0] == pytest.approx(5e-4)
        assert stored[0, 1] == pytest.approx(5e-4)

    def test_faults_injected_after_program_reach_reads(self):
        board = NoisyInstrumentBoard(4, 4, seed=0)
        board.program(np.full((4, 4), board.profile.g_min))
        stats = board.stats.as_dict()
        board.inject_faults({(1, 2): FaultType.SA1})
        assert board.stats.as_dict() == stats  # a defect, not a write
        assert board.read_conductances()[1, 2] == board.profile.g_max
        want = np.ones(4) @ board.read_conductances()
        for wire_resistance in (None, 1.0):
            got = board.column_currents(np.ones(4),
                                        wire_resistance=wire_resistance)
            assert got[2] == pytest.approx(want[2], rel=1e-2)
            assert got[2] > 100 * got[0]

    def test_random_faults_reach_reads_without_charging(self):
        board = NoisyInstrumentBoard(4, 4, seed=1)
        board.program(np.full((4, 4), 5e-4))
        stats = board.stats.as_dict()
        board.inject_random_faults(6)
        assert board.stats.as_dict() == stats
        v = np.full(4, 0.2)
        assert np.array_equal(board.column_currents(v),
                              v @ board.read_conductances())

    def test_manufactured_fault_population_seeded(self):
        profile = InstrumentProfile(fault_rate=0.2)
        a = NoisyInstrumentBoard(8, 8, profile=profile, seed=3)
        b = NoisyInstrumentBoard(8, 8, profile=profile, seed=3)
        assert a.faults and a.faults == b.faults

    def test_endurance_wears_cells_out(self):
        board = NoisyInstrumentBoard(
            2, 2, profile=InstrumentProfile(endurance=3), seed=0
        )
        for _ in range(3):
            board.program(np.full((2, 2), 2e-4))
        worn_value = board.read_conductances()[0, 0]
        board.program(np.full((2, 2), 8e-4))
        assert board.read_conductances()[0, 0] == worn_value

    def test_stats_shared_with_inner_solver(self):
        board = NoisyInstrumentBoard(4, 4, seed=0)
        board.program(_conductances())
        board.column_currents(np.full(4, 0.2))
        assert board.stats.programs == 1
        assert board.stats.matvec_words == 1
        board.reset()
        assert board.stats.programs == 0

    def test_profile_validation(self):
        with pytest.raises(BoardError):
            InstrumentProfile(g_min=1e-3, g_max=1e-6)
        with pytest.raises(BoardError):
            InstrumentProfile(dac_bits=40)
        with pytest.raises(BoardError):
            InstrumentProfile(fault_rate=1.5)

    def test_imply_machine_uses_variability(self):
        from repro.devices.base import IdealBipolarMemristor

        profile = InstrumentProfile(variability=0.1, threshold_sigma=0.05)
        machine = NoisyInstrumentBoard(4, 4, profile=profile,
                                       seed=0).imply_machine()
        assert machine._device_factory is not IdealBipolarMemristor
        # Devices sampled from the variability model really do differ.
        a, b = machine.device("x"), machine.device("y")
        assert a.thresholds != b.thresholds or a.r_on != b.r_on


class TestDigestMemo:
    """IR-drop reads use the conductance digest the board memoises per
    written state: taken once, cleared by every write."""

    def setup_method(self):
        clear_factorization_cache()

    @staticmethod
    def _spy(monkeypatch):
        import repro.board.ideal as ideal
        import repro.crossbar.solver as solver

        calls = []
        real = solver._digest

        def spy(g):
            calls.append(g.copy())
            return real(g)

        monkeypatch.setattr(ideal, "_digest", spy)
        monkeypatch.setattr(solver, "_digest", spy)
        return calls

    def test_mutating_written_arrays_leaves_reads_unchanged(self):
        # One vector per read: too few for a transfer-matrix build, so
        # every read below is the same entry's junction sum.
        g = _conductances(6, 5)
        v = np.random.default_rng(1).uniform(-0.2, 0.2, 6)
        reference = IdealSimBoard(6, 5)
        reference.program(g.copy())
        want = reference.column_currents(v, wire_resistance=2.0)
        board = IdealSimBoard(6, 5)
        board.program(g)
        board.column_currents(v, wire_resistance=2.0)  # memoise
        g[2, 3] = 0.5
        board.read_conductances()[0, 0] = 0.5
        got = board.column_currents(v, wire_resistance=2.0)
        assert np.array_equal(got, want)
        assert np.array_equal(board.read_conductances(),
                              reference.read_conductances())

    def test_pulse_back_answers_from_the_original_entry(self):
        board = IdealSimBoard(6, 5)
        board.program(_conductances(6, 5))
        v = np.full(6, 0.1)
        first = board.column_currents(v, wire_resistance=2.0)
        old = board.read_conductances()[3, 2]
        board.pulse(3, 2, 2 * old)
        assert not np.array_equal(
            board.column_currents(v, wire_resistance=2.0), first)
        board.pulse(3, 2, old)
        counts = (_CACHE_HIT.value, _CACHE_MISS.value, _CACHE_UPDATE.value)
        again = board.column_currents(v, wire_resistance=2.0)
        assert (_CACHE_HIT.value, _CACHE_MISS.value,
                _CACHE_UPDATE.value) == (counts[0] + 1, *counts[1:])
        assert np.array_equal(again, first)

    def test_digest_taken_once_per_written_state(self, monkeypatch):
        calls = self._spy(monkeypatch)
        board = IdealSimBoard(4, 4)
        board.program(_conductances())
        drive = ({0: 0.2}, {0: 0.0})

        def read_all():
            board.column_currents(np.full(4, 0.1), wire_resistance=1.0)
            board.column_currents_many(np.full((2, 4), 0.1),
                                       wire_resistance=1.0)
            board.read_iv(*drive, wire_resistance=1.0)
            board.read_iv_variants(*drive, [(1, 1, 1e-5)],
                                   wire_resistance=1.0)

        read_all()
        read_all()
        assert len(calls) == 1
        board.column_currents(np.full(4, 0.1))  # ideal wires: no digest
        board.read_iv(*drive)
        board.pulse(2, 2, 1e-5)
        board.pulse(2, 3, 1e-5)
        assert len(calls) == 1  # taken at the first read, not the write
        read_all()
        assert len(calls) == 2
        assert np.array_equal(calls[-1], board.read_conductances())
        board.program(_conductances(seed=4))
        read_all()
        assert len(calls) == 3


class TestHardwareStub:
    def test_constructible_but_untouchable(self):
        board = HardwareStubBoard(4, 4)
        assert board.digest
        for verb in (
            lambda: board.program(np.zeros((4, 4))),
            lambda: board.pulse(0, 0, 1e-4),
            lambda: board.read_conductances(),
            lambda: board.read_iv({0: 0.5}, {0: 0.0}),
            lambda: board.column_currents(np.zeros(4)),
            lambda: board.column_currents_many(np.zeros((1, 4))),
            lambda: board.reset(),
        ):
            with pytest.raises(BoardError, match="wire protocol"):
                verb()

    def test_transport_in_digest(self):
        assert (HardwareStubBoard(4, 4).digest
                != HardwareStubBoard(4, 4, transport="serial:/dev/ttyUSB0").digest)


class TestAnalogSeam:
    def test_default_board_is_ideal(self):
        xbar = AnalogCrossbar(4, 4)
        assert isinstance(xbar.board, IdealSimBoard)

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(CrossbarError, match="geometry"):
            AnalogCrossbar(4, 4, board=IdealSimBoard(4, 5))

    def test_noisy_board_changes_result(self):
        w = np.random.default_rng(0).standard_normal((8, 8))
        x = np.random.default_rng(1).random(8)
        clean = AnalogCrossbar(8, 8, seed=0)
        clean.program(w)
        noisy = AnalogCrossbar(
            8, 8, seed=0,
            board=NoisyInstrumentBoard(
                8, 8, profile=InstrumentProfile(variability=0.3), seed=2
            ),
        )
        noisy.program(w)
        assert not np.allclose(clean.matvec(x), noisy.matvec(x))

    def test_differential_boards_come_in_pairs(self):
        with pytest.raises(CrossbarError, match="pairs"):
            DifferentialCrossbar(4, 4, board=IdealSimBoard(4, 4))
        diff = DifferentialCrossbar(
            4, 4, board=IdealSimBoard(4, 4),
            negative_board=IdealSimBoard(4, 4),
        )
        w = np.random.default_rng(0).standard_normal((4, 4))
        diff.program(w)
        x = np.random.default_rng(1).random(4)
        assert np.allclose(diff.matvec(x), x @ w, atol=1e-6)

    def test_crossbar_charges_board(self):
        xbar = AnalogCrossbar(4, 4)
        xbar.program(np.eye(4))
        xbar.matvec(np.ones(4))
        assert xbar.board.stats.programs == 1
        assert xbar.board.stats.matvec_words == 1


class TestEngineSeam:
    def test_run_kernel_board_implies_electrical(self):
        kernel = kernel_for_program(ripple_adder_program(4))
        board = IdealSimBoard(4, 4)
        result = run_kernel(kernel, {"a": [3, 7], "b": [5, 6]}, board=board)
        assert result.backend == "electrical"
        assert list(result.word("s")) == [8, 13]
        assert board.stats.device_writes == 2 * kernel.step_count

    def test_board_rejected_off_electrical(self):
        kernel = kernel_for_program(ripple_adder_program(4))
        with pytest.raises(EngineError, match="electrical"):
            run_kernel(kernel, {"a": [1], "b": [1]},
                       backend="functional", board=IdealSimBoard(4, 4))

    def test_board_and_executor_exclusive(self):
        from repro.engine.executors import ElectricalBatchExecutor

        kernel = kernel_for_program(ripple_adder_program(4))
        with pytest.raises(EngineError, match="not both"):
            run_kernel(kernel, {"a": [1], "b": [1]},
                       board=IdealSimBoard(4, 4),
                       executor=ElectricalBatchExecutor())

    def test_executor_board_voltages_exclusive(self):
        from repro.engine.executors import ElectricalBatchExecutor
        from repro.logic.imply import ImplyVoltages

        with pytest.raises(EngineError, match="not both"):
            ElectricalBatchExecutor(
                voltages=ImplyVoltages(), board=IdealSimBoard(4, 4)
            )


class TestMemorySeam:
    def test_board_meters_logical_traffic(self):
        board = IdealSimBoard(4, 8)
        memory = CrossbarMemory(4, 8, board=board)
        memory.write_int(0, 0xA5)
        memory.read_int(0)
        assert board.stats.device_writes == 8
        assert board.stats.energy == memory.stats.energy

    def test_sense_word_matches_logical_read_on_ideal(self):
        board = IdealSimBoard(4, 8)
        memory = CrossbarMemory(4, 8, board=board)
        memory.write_int(2, 0b11010010)
        assert memory.sense_word(2) == memory.read_word(2)

    def test_sense_word_requires_board_and_1r(self):
        with pytest.raises(CrossbarError, match="board"):
            CrossbarMemory(4, 8).sense_word(0)
        crs = CrossbarMemory(4, 8, cell_kind="CRS", board=IdealSimBoard(4, 8))
        with pytest.raises(CrossbarError, match="CRS"):
            crs.sense_word(0)

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(CrossbarError, match="geometry"):
            CrossbarMemory(4, 8, board=IdealSimBoard(8, 4))


class TestSneakSeam:
    def test_geometry_mismatch_rejected(self):
        with pytest.raises(CrossbarError, match="geometry"):
            read_margin(8, 8, board=IdealSimBoard(4, 4))

    def test_noisy_board_shifts_margin(self):
        ideal = read_margin(8, 8, board=IdealSimBoard(8, 8))
        noisy = read_margin(
            8, 8,
            board=NoisyInstrumentBoard(
                8, 8, profile=InstrumentProfile(variability=0.3), seed=0
            ),
        )
        assert noisy.margin != ideal.margin


class TestCli:
    def run_cli(self, *argv):
        import contextlib
        import io

        from repro.__main__ import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    def test_board_lists_kinds_and_default(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_BOARD_ENV, raising=False)
        code, out = self.run_cli("board")
        assert code == 0
        for kind in BOARDS:
            assert kind in out
        assert "ideal *" in out
        assert DEFAULT_BOARD_ENV in out

    def test_board_env_moves_the_default_marker(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_BOARD_ENV, "noisy")
        code, out = self.run_cli("board")
        assert code == 0
        assert "noisy *" in out
        assert "ideal *" not in out

    def test_board_json_carries_digests(self):
        code, out = self.run_cli("board", "--json")
        assert code == 0
        payload = json.loads(out)
        assert {entry["kind"] for entry in payload["boards"]} == set(BOARDS)
        digests = [entry["digest"] for entry in payload["boards"]]
        assert all(len(digest) == 64 for digest in digests)
        assert len(set(digests)) == len(digests)

    def test_board_spec_override_shifts_digests(self):
        _, base = self.run_cli("board", "--json")
        _, derived = self.run_cli(
            "board", "--json",
            "--spec-override", "memristor.write_energy=2e-15",
        )
        base_digests = {e["kind"]: e["digest"]
                        for e in json.loads(base)["boards"]}
        derived_digests = {e["kind"]: e["digest"]
                           for e in json.loads(derived)["boards"]}
        assert all(base_digests[k] != derived_digests[k]
                   for k in base_digests)

    def test_sweep_over_board_axis(self, tmp_path):
        jsonl = tmp_path / "points.jsonl"
        code, out = self.run_cli(
            "sweep", "--param", "board.variability=0,0.1",
            "--serial", "--no-ledgers", "--jsonl", str(jsonl),
        )
        assert code == 0
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        points = [line for line in lines if "sweep" not in line]
        assert len(points) == 2
        rmse = {point["overrides"]["board.variability"]:
                point["metrics"]["board.rmse"] for point in points}
        assert rmse[0] == 0.0 and rmse[0.1] > 0.0


class TestCampaign:
    def test_split_overrides(self):
        spec_part, board_part = split_overrides(
            {"memristor.write_time": 1e-9, "board.variability": 0.1,
             "board.kind": "noisy"}
        )
        assert spec_part == {"memristor.write_time": 1e-9}
        assert board_part == {"variability": 0.1, "kind": "noisy"}

    def test_point_digest_extends_only_for_board_axes(self):
        assert point_digest("abc", {}) == "abc"
        extended = point_digest("abc", {"variability": 0.1})
        assert extended.startswith("abc+board:")
        assert extended != point_digest("abc", {"variability": 0.2})

    def test_ideal_point_is_error_free(self):
        metrics = evaluate_board_point(TABLE1, {"kind": "ideal"})
        assert metrics["board.rmse"] == 0.0
        assert metrics["board.max_abs_error"] == 0.0

    def test_variability_monotone_in_error_and_seeded(self):
        lo = evaluate_board_point(TABLE1, {"variability": 0.05, "seed": 1})
        hi = evaluate_board_point(TABLE1, {"variability": 0.3, "seed": 1})
        again = evaluate_board_point(TABLE1, {"variability": 0.3, "seed": 1})
        assert 0 < lo["board.rmse"] < hi["board.rmse"]
        assert hi == again
        assert hi["board.energy_j"] > 0

    def test_unknown_axis_and_kind_rejected(self):
        with pytest.raises(BoardError, match="unknown board parameter"):
            evaluate_board_point(TABLE1, {"wobble": 1})
        with pytest.raises(BoardError, match="kind"):
            evaluate_board_point(TABLE1, {"kind": "hardware"})

    def test_sweep_keys_board_points_distinctly(self):
        from repro.analysis.dse import clear_cache, run_sweep

        clear_cache()
        result = run_sweep(
            {"board.variability": [0.0, 0.1]},
            serial=True, keep_ledgers=False,
        )
        digests = {point.spec_digest for point in result.points}
        assert len(digests) == 2
        assert all("board.rmse" in point.metrics for point in result.points)
