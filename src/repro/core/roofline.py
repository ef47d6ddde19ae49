"""Roofline model of the memory wall — Section II's framing, quantified.

The paper's motivation leans on the memory wall ([10-14]: "the maximal
performance cannot be extracted as the processors will have many idle
moments while waiting for data").  The roofline model makes that
precise: attainable throughput is

    min(peak_compute, bandwidth x arithmetic_intensity)

with intensity in operations per byte moved.  Below the *ridge point*
(peak/bandwidth) a machine is memory-bound; above it, compute-bound.

Both Table 1 machines reduce naturally to rooflines: the conventional
machine's bandwidth is its cache-delivery rate, the CIM machine's is
the crossbar's internal word rate — orders of magnitude higher because
the data never crosses a chip-level interconnect.  The paper's
workloads sit far below the conventional ridge (deeply memory-bound)
and above or near the CIM ridge: the architecture moves the wall, it
does not just climb it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import ArchitectureError
from ..spec import TABLE1, TechSpec
from .cim import CIMMachine
from .conventional import ConventionalMachine
from .workload import Workload

# The PR 4 ``WORD_BYTES`` alias is gone; the canonical value is
# ``repro.spec.TABLE1.interconnect.word_bytes`` and has been for more
# than two PRs, which is the removal bar DESIGN.md's deprecation policy sets.


@dataclass(frozen=True)
class Roofline:
    """A two-parameter machine performance model.

    ``peak`` in operations/second, ``bandwidth`` in bytes/second.
    """

    machine: str
    peak: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.peak <= 0 or self.bandwidth <= 0:
            raise ArchitectureError(
                f"{self.machine}: peak and bandwidth must be positive"
            )

    @property
    def ridge_intensity(self) -> float:
        """Ops/byte at which the machine turns compute-bound."""
        return self.peak / self.bandwidth

    def attainable(self, intensity: float) -> float:
        """Attainable throughput (ops/s) at *intensity* ops/byte."""
        if intensity <= 0:
            raise ArchitectureError(
                f"intensity must be positive, got {intensity}"
            )
        return min(self.peak, self.bandwidth * intensity)

    def is_memory_bound(self, intensity: float) -> bool:
        return intensity < self.ridge_intensity


def conventional_roofline(
    machine: ConventionalMachine, spec: TechSpec = TABLE1
) -> Roofline:
    """Roofline of a clustered CMOS machine.

    Peak: all units issuing back-to-back at their combinational latency.
    Bandwidth: every cluster delivering one word per *average hit-time*
    cycle — the L1's best case; misses push the operating point further
    left, they do not raise the roof.
    """
    inner = machine.machine
    peak = inner.parallel_units / inner.unit.latency
    cycle = inner.technology.cycle_time
    word_bytes = spec.interconnect.word_bytes
    bandwidth = inner.clusters * word_bytes / (inner.cache.hit_cycles * cycle)
    return Roofline(machine=inner.name, peak=peak, bandwidth=bandwidth)


def cim_roofline(machine: CIMMachine, spec: TechSpec = TABLE1) -> Roofline:
    """Roofline of a CIM machine.

    Peak: every in-memory unit completing one operation per unit
    latency.  Bandwidth: every unit pulling one word per hit-time cycle
    from its co-located storage — the whole point of computation in
    memory is that this scales with *units*, not with chip-edge pins.
    """
    peak = machine.units / machine.unit.latency
    cycle = machine.reference_clock.cycle_time
    word_bytes = spec.interconnect.word_bytes
    bandwidth = machine.units * word_bytes / (machine.hit_cycles * cycle)
    return Roofline(machine=machine.name, peak=peak, bandwidth=bandwidth)


def workload_intensity(workload: Workload, spec: TechSpec = TABLE1) -> float:
    """Arithmetic intensity of a workload in ops/byte."""
    word_bytes = spec.interconnect.word_bytes
    bytes_per_op = (workload.reads_per_op + workload.writes_per_op) * word_bytes
    if bytes_per_op == 0:
        raise ArchitectureError(
            f"{workload.name}: workload moves no data; intensity undefined"
        )
    return 1.0 / bytes_per_op


def intensity_sweep(
    rooflines: Sequence[Roofline],
    intensities: Sequence[float] = (1e-3, 1e-2, 1e-1, 1.0, 10.0),
) -> List[dict]:
    """Attainable-throughput table over intensities for several machines."""
    rows = []
    for intensity in intensities:
        row = {"intensity": intensity}
        for roofline in rooflines:
            row[roofline.machine] = roofline.attainable(intensity)
        rows.append(row)
    return rows
