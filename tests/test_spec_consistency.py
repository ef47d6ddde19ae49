"""The spec layer is the single source of every Table 1 number.

PR 4 made :data:`repro.spec.TABLE1` that source, keeping the old
module-level constants as deprecated aliases; PR 10 removed the aliases
(replacements stable for more than two PRs, the DESIGN.md deprecation
bar).  This suite pins the spec values **by exact float equality** (bit
identity matters: the Table 2 golden test below pins the reproduced
metrics to their pre-refactor hex representations), asserts the removed
aliases now raise, and pins the spec's own identity (digest, derive
semantics).
"""

import pytest

from repro.cmosarch.gates import CLA_ADDER_32, CMOS_COMPARATOR
from repro.core import classification, presets, roofline
from repro.core.evaluate import table2
from repro.core.periphery import PeripherySpec
from repro.devices.technology import (
    CACHE_8KB_DNA,
    CACHE_8KB_MATH,
    FINFET_22NM,
    MEMRISTOR_5NM,
)
from repro.engine import CAMMatchCost
from repro.logic.adders import TCAdderCost
from repro.logic.comparator import ComparatorCost
from repro.spec import TABLE1

#: TABLE1's frozen identity.  Changing any Table 1 number (or the tree
#: shape) changes this digest — which is exactly the point: the change
#: must be deliberate and this pin updated with it.
TABLE1_DIGEST = "9b6315844fba5b4d5e1b7fe0b41a0cb072e55114a89893838a278d3067c04203"

#: Table 2 as reproduced before the spec refactor, in exact float hex
#: (``float.hex()``) — the golden bit-identity reference.
GOLDEN_TABLE2_HEX = {
    ("dna", "cim"): {
        "energy_delay_per_op": "0x1.0d3d270570ddep-48",
        "computing_efficiency": "0x1.43603a9638e39p+44",
        "performance_per_area": "0x1.11d6af3508531p+42",
    },
    ("dna", "conventional"): {
        "energy_delay_per_op": "0x1.71db1a00e2297p-27",
        "computing_efficiency": "0x1.d6a08b5c39df5p+22",
        "performance_per_area": "0x1.8e9efe9c33fbcp+28",
    },
    ("math", "cim"): {
        "energy_delay_per_op": "0x1.5db7d2da24f49p-67",
        "computing_efficiency": "0x1.c6bf526340000p+41",
        "performance_per_area": "0x1.b1a786d013b4ap+49",
    },
    ("math", "conventional"): {
        "energy_delay_per_op": "0x1.bc3e23bc87faap-60",
        "computing_efficiency": "0x1.848f1d32f9a62p+32",
        "performance_per_area": "0x1.17ebbeb60cfd0p+38",
    },
}


# -- device-layer aliases ---------------------------------------------------


def test_memristor_alias_matches_spec():
    assert TABLE1.memristor == MEMRISTOR_5NM
    assert TABLE1.memristor.write_time == MEMRISTOR_5NM.write_time
    assert TABLE1.memristor.write_energy == MEMRISTOR_5NM.write_energy
    assert TABLE1.memristor.cell_area == MEMRISTOR_5NM.cell_area
    assert TABLE1.memristor.static_power == MEMRISTOR_5NM.static_power


def test_cmos_alias_matches_spec():
    assert TABLE1.cmos == FINFET_22NM
    assert TABLE1.cmos.gate_delay == FINFET_22NM.gate_delay
    assert TABLE1.cmos.gate_area == FINFET_22NM.gate_area
    assert TABLE1.cmos.gate_power == FINFET_22NM.gate_power
    assert TABLE1.cmos.gate_leakage == FINFET_22NM.gate_leakage
    assert TABLE1.cmos.clock_frequency == FINFET_22NM.clock_frequency


def test_cache_aliases_match_spec():
    assert TABLE1.cache_for("dna") == CACHE_8KB_DNA
    assert TABLE1.cache_for("math") == CACHE_8KB_MATH
    assert TABLE1.cache.size_bytes == CACHE_8KB_DNA.size_bytes
    assert TABLE1.cache.area == CACHE_8KB_DNA.area
    assert TABLE1.cache.static_power == CACHE_8KB_DNA.static_power
    assert TABLE1.cache.miss_penalty_cycles == CACHE_8KB_DNA.miss_penalty_cycles
    assert TABLE1.workloads.dna_hit_ratio == CACHE_8KB_DNA.hit_ratio
    assert TABLE1.workloads.math_hit_ratio == CACHE_8KB_MATH.hit_ratio


# -- compute-unit aliases ---------------------------------------------------


def test_gate_block_aliases_match_spec():
    assert TABLE1.cla_adder.gates == CLA_ADDER_32.gates
    assert TABLE1.cla_adder.depth == CLA_ADDER_32.depth
    assert TABLE1.cmos_comparator.gates == CMOS_COMPARATOR.gates
    assert TABLE1.cmos_comparator.depth == CMOS_COMPARATOR.depth


def test_comparator_cost_default_matches_spec():
    assert ComparatorCost.from_spec(TABLE1) == ComparatorCost()
    cost = ComparatorCost()
    assert TABLE1.comparator.memristors == cost.memristors
    assert TABLE1.comparator.steps == cost.steps
    assert TABLE1.comparator.dynamic_energy == cost.dynamic_energy
    assert TABLE1.comparator.area == cost.area


def test_tc_adder_cost_default_matches_spec():
    assert TCAdderCost.from_spec(TABLE1) == TCAdderCost()
    cost = TCAdderCost()
    assert TABLE1.adder.width == cost.width
    assert TABLE1.adder.operations_per_bit == cost.operations_per_bit


def test_cam_match_cost_default_matches_spec():
    assert CAMMatchCost.from_spec(16, TABLE1) == CAMMatchCost(width=16)


# -- organisation / derived quantities --------------------------------------


def test_spec_organisation_values():
    """The Table 1 organisation quantities, pinned on the spec layer
    (the PR 4 ``repro.core`` constant aliases have been removed)."""
    assert TABLE1.crossbar.dna_clusters == 18750
    assert TABLE1.crossbar.units_per_cluster == 32
    assert TABLE1.dna_crossbar_devices == 18750 * 8192
    assert TABLE1.dna_units == 600_000
    assert TABLE1.workloads.math_additions == 10 ** 6
    assert TABLE1.math_clusters == 31250
    assert TABLE1.math_storage_devices == 31250 * 8192
    assert TABLE1.interconnect.word_bytes == 4


def test_removed_core_aliases_raise():
    """The pre-spec constant aliases are gone for good: stale imports
    must fail loudly, not silently resolve to something else."""
    for module, name in [
        (presets, "DNA_CLUSTERS"),
        (presets, "UNITS_PER_CLUSTER"),
        (presets, "DNA_CROSSBAR_DEVICES"),
        (presets, "DNA_PAPER_IMPLIED_UNITS"),
        (presets, "MATH_ADDITIONS"),
        (presets, "MATH_CLUSTERS"),
        (presets, "MATH_STORAGE_DEVICES"),
        (classification, "WIRE_ENERGY_PER_BIT_M"),
        (classification, "WIRE_DELAY_PER_M"),
        (classification, "COMPUTE_ENERGY"),
        (classification, "COMPUTE_DELAY"),
        (roofline, "WORD_BYTES"),
    ]:
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_periphery_defaults_match_spec():
    default = PeripherySpec()
    assert TABLE1.periphery.gates_per_driver == default.gates_per_driver
    assert TABLE1.periphery.gates_per_sense_amp == default.gates_per_sense_amp
    assert (TABLE1.periphery.decoder_gates_per_line
            == default.decoder_gates_per_line)


# -- spec identity ----------------------------------------------------------


def test_table1_digest_is_stable():
    assert TABLE1.digest == TABLE1_DIGEST
    assert TABLE1.short_digest == TABLE1_DIGEST[:12]


def test_derive_identity_and_round_trip():
    assert TABLE1.derive({}) is TABLE1
    rebuilt = type(TABLE1).from_dict(TABLE1.to_dict())
    assert rebuilt == TABLE1
    assert rebuilt.digest == TABLE1.digest


def test_derive_changes_digest_and_nothing_else():
    derived = TABLE1.derive({"memristor.write_energy": 2e-15})
    assert derived.digest != TABLE1.digest
    assert derived.memristor.write_energy == 2e-15
    assert derived.cmos == TABLE1.cmos
    assert derived.cache == TABLE1.cache
    # TABLE1 itself is untouched (frozen derive, not mutation).
    assert TABLE1.memristor.write_energy == 1e-15


# -- the golden test --------------------------------------------------------


def test_table2_bit_identical_under_default_spec():
    """The whole refactor, summarised: under TABLE1 the reproduced
    Table 2 is *bit-for-bit* what the pre-spec code produced."""
    result = table2(dna_packing="paper")
    assert result.spec is TABLE1
    assert result.spec_digest == TABLE1_DIGEST
    for cell, golden in GOLDEN_TABLE2_HEX.items():
        produced = result.metrics[cell].as_dict()
        for metric, hex_value in golden.items():
            assert produced[metric].hex() == hex_value, (
                f"{cell}/{metric}: {produced[metric].hex()} != {hex_value}"
            )


def test_table2_reports_carry_ledgers():
    result = table2(dna_packing="paper")
    for cell, report in result.reports.items():
        ledger = report.ledger
        assert ledger is not None, cell
        from repro.spec import Quantity

        assert ledger.total(Quantity.ENERGY) == report.energy
        assert all(entry.provenance for entry in ledger)


def test_table2_under_derived_spec_moves():
    """A perturbed spec must actually change the outputs (the aliases
    above guarantee the default path; this guards the threading)."""
    cheap_writes = TABLE1.derive({"memristor.write_energy": 0.5e-15})
    base = table2(dna_packing="paper")
    moved = table2(dna_packing="paper", spec=cheap_writes)
    assert moved.spec_digest != base.spec_digest
    assert (moved.metric("math", "cim", "computing_efficiency")
            > base.metric("math", "cim", "computing_efficiency"))
    # Conventional column doesn't depend on the memristor device.
    assert moved.metric("math", "conventional", "computing_efficiency") == (
        base.metric("math", "conventional", "computing_efficiency"))
