"""Fig 1: classification of computing systems by working-set location.

The paper's Figure 1 orders five architecture classes by where the
working set lives: (a) main memory, (b) cache, (c) parallel cores with
shared L1, (d) processor-in-memory, (e) computation-in-memory.  The
figure is qualitative; to regenerate it as data we model the one
variable the classification actually encodes — the *distance between
compute and working set* — and derive per-operand communication energy
and latency from standard wire scaling (energy and delay proportional
to distance; Horowitz ISSCC'14 [4] gives ~0.1-0.2 pJ/bit/mm on-chip).

The model's claim, matching the paper's narrative, is ordinal: each
step from (a) to (e) strictly reduces communication energy and latency
per operation, and for data-intensive workloads (many operands per
compute op) the communication term dominates everything else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from ..errors import ArchitectureError
from ..spec import TABLE1, TechSpec


class ArchitectureClass(enum.Enum):
    """The five Fig 1 classes, working set farthest to nearest."""

    MAIN_MEMORY = "a: working set in main memory"
    CACHE = "b: working set in cache"
    PARALLEL_CACHE = "c: parallel cores, shared L1"
    PROCESSOR_IN_MEMORY = "d: processor-in-memory"
    COMPUTATION_IN_MEMORY = "e: computation-in-memory (CIM)"


@dataclass(frozen=True)
class ClassParameters:
    """Communication parameters of one architecture class.

    ``distance`` is the effective compute-to-working-set distance in
    metres; ``rounds_trips_per_operand`` covers protocol overheads
    (cache fills travel twice: request + line)."""

    distance: float
    round_trips_per_operand: float = 1.0


#: Distances: off-chip DRAM ~ tens of mm of board + pins (modelled as an
#: effective 100 mm), L2/LLC ~ 10 mm, shared L1 ~ 1 mm, PIM logic at the
#: memory edge ~ 0.1 mm, CIM inside the array ~ 1 um (a crossbar pitch).
CLASS_PARAMETERS: Dict[ArchitectureClass, ClassParameters] = {
    ArchitectureClass.MAIN_MEMORY: ClassParameters(distance=100e-3, round_trips_per_operand=2.0),
    ArchitectureClass.CACHE: ClassParameters(distance=10e-3, round_trips_per_operand=2.0),
    ArchitectureClass.PARALLEL_CACHE: ClassParameters(distance=1e-3, round_trips_per_operand=2.0),
    ArchitectureClass.PROCESSOR_IN_MEMORY: ClassParameters(distance=0.1e-3),
    ArchitectureClass.COMPUTATION_IN_MEMORY: ClassParameters(distance=1e-6),
}

# The PR 4 constant aliases (WIRE_ENERGY_PER_BIT_M, WIRE_DELAY_PER_M,
# COMPUTE_ENERGY, COMPUTE_DELAY) are gone; the canonical values live on
# ``repro.spec.TABLE1.interconnect`` and have for more than two PRs,
# which is the removal bar DESIGN.md's deprecation policy sets.


@dataclass(frozen=True)
class ClassCost:
    """Per-operation energy/latency of one class on one workload shape."""

    architecture: ArchitectureClass
    energy_per_op: float
    latency_per_op: float
    communication_fraction: float


def class_cost(
    architecture: ArchitectureClass,
    operands_per_op: float = 3.0,
    word_bits: int = 32,
    spec: TechSpec = TABLE1,
) -> ClassCost:
    """Energy and latency per operation for *architecture*.

    ``operands_per_op`` is the data intensity (operand transfers each
    operation performs — 3 for a load-load-store op).  Wire and compute
    costs come from ``spec.interconnect``.
    """
    if operands_per_op < 0:
        raise ArchitectureError("operands_per_op must be non-negative")
    if word_bits < 1:
        raise ArchitectureError("word_bits must be >= 1")
    wires = spec.interconnect
    params = CLASS_PARAMETERS[architecture]
    transfers = operands_per_op * params.round_trips_per_operand
    comm_energy = transfers * word_bits * wires.wire_energy_per_bit_m * params.distance
    comm_delay = transfers * wires.wire_delay_per_m * params.distance
    energy = wires.compute_energy + comm_energy
    latency = wires.compute_delay + comm_delay
    return ClassCost(
        architecture=architecture,
        energy_per_op=energy,
        latency_per_op=latency,
        communication_fraction=comm_energy / energy,
    )


def classify_all(
    operands_per_op: float = 3.0,
    word_bits: int = 32,
    spec: TechSpec = TABLE1,
) -> List[ClassCost]:
    """Costs of all five classes, in Fig 1 order (a) to (e)."""
    return [
        class_cost(architecture, operands_per_op, word_bits, spec)
        for architecture in ArchitectureClass
    ]


def ordering_is_monotonic(costs: List[ClassCost]) -> bool:
    """True when each class strictly improves on the previous one in
    both energy and latency — the Fig 1 claim."""
    for previous, current in zip(costs, costs[1:]):
        if current.energy_per_op >= previous.energy_per_op:
            return False
        if current.latency_per_op >= previous.latency_per_op:
            return False
    return True
