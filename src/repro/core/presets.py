"""Table 1 presets: the four machine configurations and two workloads.

Since PR 4 every factory here is parameterized on a
:class:`~repro.spec.TechSpec` (default :data:`~repro.spec.TABLE1`), so
the same code that reproduces Table 2 also evaluates any derived
assumption set — the DSE sweep engine in :mod:`repro.analysis.dse`
calls these factories with perturbed specs.  Under the default spec the
construction is value-identical to the original hard-coded presets
(pinned by the Table 2 golden test).

Derivations the paper leaves implicit (and the two places where its own
arithmetic slips) are called out in comments and reproduced faithfully
where they matter.
"""

from __future__ import annotations

from ..cmosarch.gates import GateBlock
from ..cmosarch.multicore import ClusteredMulticore
from ..logic.adders import TCAdderCost
from ..logic.comparator import ComparatorCost
from ..spec import TABLE1, TechSpec
from .cim import CIMMachine
from .conventional import ConventionalMachine
from .workload import Workload, dna_workload, parallel_additions_workload

# The PR 4 module-level constant aliases (DNA_CLUSTERS,
# UNITS_PER_CLUSTER, DNA_CROSSBAR_DEVICES, DNA_PAPER_IMPLIED_UNITS,
# MATH_ADDITIONS, MATH_CLUSTERS, MATH_STORAGE_DEVICES) are gone: their
# replacements on ``repro.spec.TABLE1`` (``crossbar.dna_clusters``,
# ``crossbar.units_per_cluster``, ``dna_crossbar_devices``,
# ``dna_units``, ``workloads.math_additions``, ``math_clusters``,
# ``math_storage_devices``) have been stable for more than two PRs,
# which is the removal bar DESIGN.md's deprecation policy sets.


# -- unit cost factories (spec -> cost model) -------------------------------


def comparator_cost(spec: TechSpec = TABLE1) -> ComparatorCost:
    """The spec's IMPLY nucleotide comparator (Table 1 CIM DNA unit)."""
    return ComparatorCost.from_spec(spec)


def tc_adder_cost(spec: TechSpec = TABLE1) -> TCAdderCost:
    """The spec's CRS TC-adder (Table 1 CIM mathematics unit)."""
    return TCAdderCost.from_spec(spec)


def cla_adder_block(spec: TechSpec = TABLE1) -> GateBlock:
    """The spec's 32-bit CLA adder (Table 1 conventional math unit)."""
    return GateBlock(
        name=f"cla-adder-{spec.adder.width}",
        gates=spec.cla_adder.gates,
        depth=spec.cla_adder.depth,
        technology=spec.cmos,
    )


def cmos_comparator_block(spec: TechSpec = TABLE1) -> GateBlock:
    """The spec's CMOS nucleotide comparator (see DESIGN.md for the
    gate-count assumption Table 1 leaves open)."""
    return GateBlock(
        name="cmos-comparator",
        gates=spec.cmos_comparator.gates,
        depth=spec.cmos_comparator.depth,
        technology=spec.cmos,
    )


# -- machine factories ------------------------------------------------------


def conventional_dna_machine(spec: TechSpec = TABLE1) -> ConventionalMachine:
    """18750 clusters x 32 CMOS comparators, 8 kB caches at 50% hits."""
    return ConventionalMachine(
        ClusteredMulticore(
            name="conventional-dna",
            clusters=spec.crossbar.dna_clusters,
            units_per_cluster=spec.crossbar.units_per_cluster,
            unit=cmos_comparator_block(spec),
            cache=spec.cache_for("dna"),
            technology=spec.cmos,
        )
    )


def conventional_math_machine(spec: TechSpec = TABLE1) -> ConventionalMachine:
    """31250 clusters x 32 CLA adders, 8 kB caches at 98% hits."""
    return ConventionalMachine(
        ClusteredMulticore(
            name="conventional-math",
            clusters=spec.math_clusters,
            units_per_cluster=spec.crossbar.units_per_cluster,
            unit=cla_adder_block(spec),
            cache=spec.cache_for("math"),
            technology=spec.cmos,
        )
    )


def cim_dna_machine(packing: str = "max", spec: TechSpec = TABLE1) -> CIMMachine:
    """CIM DNA machine: IMPLY comparators inside the cache-sized crossbar.

    ``packing='max'`` fits as many 13-memristor comparators as the
    crossbar holds (11.8M units — the architectural potential);
    ``packing='paper'`` uses the 600 000 units Table 2's execution time
    implies (apples-to-apples with the conventional machine).
    """
    unit = comparator_cost(spec)
    if packing == "max":
        return CIMMachine.packed_into_crossbar(
            name="cim-dna-max",
            unit=unit,
            storage_devices=spec.dna_crossbar_devices,
            miss_penalty_cycles=spec.cache.miss_penalty_cycles,
            hit_cycles=spec.cache.hit_cycles,
            write_cycles=spec.cache.write_cycles,
            reference_clock=spec.cmos,
            technology=spec.memristor,
        )
    if packing == "paper":
        return CIMMachine(
            name="cim-dna-paper",
            units=spec.dna_units,
            unit=unit,
            storage_devices=spec.dna_crossbar_devices,
            compute_in_storage=True,
            miss_penalty_cycles=spec.cache.miss_penalty_cycles,
            hit_cycles=spec.cache.hit_cycles,
            write_cycles=spec.cache.write_cycles,
            reference_clock=spec.cmos,
            technology=spec.memristor,
        )
    raise ValueError(f"packing must be 'max' or 'paper', got {packing!r}")


def cim_math_machine(spec: TechSpec = TABLE1) -> CIMMachine:
    """CIM math machine: 10^6 TC-adders next to cache-equivalent storage.

    "The crossbar is scalable to support the 10^6 adders", so the
    adders are *not* carved out of the storage pool.
    """
    return CIMMachine(
        name="cim-math",
        units=spec.workloads.math_additions,
        unit=tc_adder_cost(spec),
        storage_devices=spec.math_storage_devices,
        compute_in_storage=False,
        miss_penalty_cycles=spec.cache.miss_penalty_cycles,
        hit_cycles=spec.cache.hit_cycles,
        write_cycles=spec.cache.write_cycles,
        reference_clock=spec.cmos,
        technology=spec.memristor,
    )


def dna_paper_workload(spec: TechSpec = TABLE1) -> Workload:
    """Table 1 healthcare workload (coverage 50, 100-char reads, 50% hits)."""
    return dna_workload(
        coverage=spec.workloads.dna_coverage,
        reference_bases=spec.workloads.dna_reference_bases,
        short_read_len=spec.workloads.dna_short_read_len,
        hit_ratio=spec.workloads.dna_hit_ratio,
    )


def math_paper_workload(spec: TechSpec = TABLE1) -> Workload:
    """Table 1 mathematics workload (10^6 additions, 98% hits)."""
    return parallel_additions_workload(
        count=spec.workloads.math_additions,
        hit_ratio=spec.workloads.math_hit_ratio,
    )


#: Table 2 of the paper, verbatim, for paper-vs-measured reporting.
#: Units are unstated in the paper; see DESIGN.md for the recovered
#: formulas (math column) and the known inconsistencies (DNA column).
PAPER_TABLE2 = {
    ("dna", "conventional"): {
        "energy_delay_per_op": 2.0210e-06,
        "computing_efficiency": 4.1097e04,
        "performance_per_area": 5.7312e09,
    },
    ("dna", "cim"): {
        "energy_delay_per_op": 2.3382e-09,
        "computing_efficiency": 3.7037e07,
        "performance_per_area": 5.1118e09,
    },
    ("math", "conventional"): {
        "energy_delay_per_op": 1.5043e-18,
        "computing_efficiency": 6.5226e09,
        "performance_per_area": 5.1118e09,
    },
    ("math", "cim"): {
        "energy_delay_per_op": 9.2570e-21,
        "computing_efficiency": 3.9063e12,
        "performance_per_area": 4.9164e12,
    },
}
