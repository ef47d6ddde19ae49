"""The unified cost-estimation seam: one `CostModel` protocol, two models.

Before this module, "what does it cost to run kernel K over N words?"
was answered in three different places with three different code paths:
the engine's :class:`~repro.engine.AnalyticalCostExecutor` priced CIM
runs, the board layer rendered :class:`~repro.board.base.BoardStats`
into ledgers by hand, and the conventional-CPU side lived only inside
:class:`~repro.core.conventional.ConventionalMachine`'s full Table 2
evaluation.  This module is the one seam all of them share:

* :class:`CostModel` — the protocol: ``estimate(kernel, n_words, spec)
  -> CostLedger``.  A *kernel* is anything structurally shaped like a
  compiled engine kernel (:class:`KernelLike`); the returned ledger
  carries provenance-tagged energy/latency entries.
* :class:`CIMCostModel` — the memristor-crossbar pricing the engine's
  analytical executor now delegates to, so the *predicted* ledger and
  the *executed* ledger are literally the same code path (the planner's
  predicted==executed property test pins this).
* :class:`CPUCostModel` — the conventional baseline, priced from the
  ``cmos``/``cache``/``cla_adder``/``cmos_comparator`` TechSpec
  subtrees with the same equations as
  :class:`~repro.core.conventional.ConventionalMachine` (rounds of
  hit/miss-weighted cache accesses plus unit latency; dynamic +
  leakage + cache-static energy).
* :func:`board_stats_ledger` — the one renderer from board counters to
  a ledger (:meth:`repro.board.base.Board.ledger` delegates here).

:class:`CAMMatchCost` lives here, not in :mod:`repro.engine.builtins`:
it is a cost model constant, not an engine artifact, and the planner
needs it without importing the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

from ..devices.technology import MEMRISTOR_5NM, MemristorTechnology
from ..errors import SpecError
from .ledger import CostLedger
from .techspec import TABLE1, GateBlockSpec, TechSpec

__all__ = [
    "CAMMatchCost",
    "CIMCostModel",
    "CPUCostModel",
    "CostModel",
    "KernelLike",
    "KernelPricing",
    "board_stats_ledger",
]


@runtime_checkable
class KernelLike(Protocol):
    """The structural face of a compiled engine kernel.

    Anything carrying a ``name``, an optional attached analytical
    ``cost`` object (``steps`` / ``dynamic_energy`` / ``latency``) and a
    ``compute_step_count`` fallback can be priced — the spec layer never
    has to import the engine to estimate it.
    """

    @property
    def name(self) -> str: ...

    @property
    def cost(self) -> Any: ...

    @property
    def compute_step_count(self) -> int: ...


@runtime_checkable
class CostModel(Protocol):
    """``estimate(kernel, n_words, spec) -> CostLedger`` — the seam."""

    def estimate(
        self,
        kernel: KernelLike,
        n_words: int,
        spec: Optional[TechSpec] = None,
    ) -> CostLedger: ...


@dataclass(frozen=True)
class KernelPricing:
    """One kernel/batch pricing: the executor-facing decomposition.

    ``energy_per_word`` scales with the batch (lock-step SIMD charges
    energy per word); ``latency`` is one batch regardless of width.
    ``ledger`` carries the same numbers as provenance-tagged entries.
    """

    steps: int
    energy_per_word: float
    latency: float
    ledger: CostLedger


@dataclass(frozen=True)
class CAMMatchCost:
    """Analytical cost of matching one stored CAM row against a query.

    Mirrors :class:`~repro.logic.cam.MemristiveCAM`'s accounting: all
    rows compare in parallel in **one** array access (steps = 1,
    latency = one write time), and each of the row's *width* cells
    dissipates one worst-case search pulse.
    """

    width: int
    technology: MemristorTechnology = MEMRISTOR_5NM

    @classmethod
    def from_spec(cls, width: int, spec: TechSpec) -> "CAMMatchCost":
        """Build on the memristor profile of a :class:`~repro.spec.TechSpec`."""
        return cls(width=width, technology=spec.memristor)

    @property
    def memristors(self) -> int:
        return 2 * self.width          # two devices per ternary cell

    @property
    def steps(self) -> int:
        return 1

    @property
    def latency(self) -> float:
        return self.technology.write_time

    @property
    def dynamic_energy(self) -> float:
        return self.width * self.technology.write_energy


def _check_words(n_words: int) -> int:
    if n_words < 1:
        raise SpecError(f"cost estimate needs n_words >= 1, got {n_words}")
    return int(n_words)


@dataclass(frozen=True)
class CIMCostModel:
    """Memristor-crossbar pricing (the engine's analytical path).

    A kernel with an attached ``cost`` object is priced from it;
    otherwise the step-count fallback applies (steps x the memristor
    write energy/time).  ``technology`` pins the device profile; left
    ``None`` it resolves from the spec passed to :meth:`estimate`
    (falling back to Table 1's memristor).
    """

    technology: Optional[MemristorTechnology] = None

    def resolve_technology(
        self, spec: Optional[TechSpec] = None
    ) -> MemristorTechnology:
        """The device profile pricing a run (see class docstring)."""
        if self.technology is not None:
            return self.technology
        if spec is not None:
            return spec.memristor
        return MEMRISTOR_5NM

    def steps(self, kernel: KernelLike) -> int:
        """Analytical step count: attached cost model, else fallback."""
        cost = kernel.cost
        if cost is not None:
            return int(cost.steps)
        return int(kernel.compute_step_count)

    def price(
        self,
        kernel: KernelLike,
        n_words: int,
        spec: Optional[TechSpec] = None,
    ) -> KernelPricing:
        """Full pricing: steps, per-word energy, batch latency, ledger.

        The ledger entries (values *and* provenance strings) are the
        ones the engine's analytical executor has always produced —
        this method IS that executor's pricing now.
        """
        n_words = _check_words(n_words)
        cost = kernel.cost
        ledger = CostLedger()
        if cost is not None:
            steps = int(cost.steps)
            energy_per_word = float(cost.dynamic_energy)
            latency = float(cost.latency)
            ledger.energy(
                kernel.name, energy_per_word * n_words,
                f"{n_words} words x {type(cost).__name__}.dynamic_energy")
            ledger.latency(
                kernel.name, latency, f"{type(cost).__name__}.latency")
        else:
            technology = self.resolve_technology(spec)
            steps = int(kernel.compute_step_count)
            energy_per_word = steps * technology.write_energy
            latency = steps * technology.write_time
            ledger.energy(
                kernel.name, energy_per_word * n_words,
                f"{steps} steps x {n_words} words x memristor.write_energy")
            ledger.latency(
                kernel.name, latency,
                f"{steps} steps x memristor.write_time")
        return KernelPricing(
            steps=steps, energy_per_word=energy_per_word,
            latency=latency, ledger=ledger,
        )

    def estimate(
        self,
        kernel: KernelLike,
        n_words: int,
        spec: Optional[TechSpec] = None,
    ) -> CostLedger:
        """The :class:`CostModel` face of :meth:`price`."""
        return self.price(kernel, n_words, spec).ledger


@dataclass(frozen=True)
class CPUCostModel:
    """Conventional CPU/cache-hierarchy baseline for one kernel.

    Prices ``n_words`` operations of *kernel* on one Table 1 cluster —
    ``crossbar.units_per_cluster`` combinational units behind the
    shared L1 — with :class:`~repro.core.conventional.
    ConventionalMachine`'s equations:

    * ``rounds = ceil(n_words / units)``; each round serialises the
      hit/miss-weighted operand reads, the result write, and the unit's
      critical path (``depth x cmos.gate_delay``).
    * Energy = per-op gate dynamic energy + gate leakage over the
      Table 1 leakage duration + cache static power over the runtime
      (charged per unit, the Table 2 convention).

    The unit is chosen from the kernel name: adder-family kernels price
    as ``spec.cla_adder`` (2 reads + 1 write per op); comparator-family
    kernels as ``spec.cmos_comparator`` (2 reads, the match result
    stays in flags).  ``hit_ratio`` overrides the spec cache's base
    ratio (Table 1 assigns hit rates per application, not per cache).
    """

    hit_ratio: Optional[float] = None
    units: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hit_ratio is not None and not 0.0 <= self.hit_ratio <= 1.0:
            raise SpecError(
                f"hit_ratio must lie in [0, 1], got {self.hit_ratio}")
        if self.units is not None and self.units < 1:
            raise SpecError(f"units must be >= 1, got {self.units}")

    @staticmethod
    def unit_for(kernel_name: str, spec: TechSpec) -> GateBlockSpec:
        """The CMOS combinational block a kernel name prices as."""
        if "adder" in kernel_name.lower():
            return spec.cla_adder
        return spec.cmos_comparator

    @staticmethod
    def accesses_for(kernel_name: str) -> "tuple[int, int]":
        """``(reads, writes)`` per operation for a kernel family."""
        if "adder" in kernel_name.lower():
            return (2, 1)
        return (2, 0)

    def estimate(
        self,
        kernel: KernelLike,
        n_words: int,
        spec: Optional[TechSpec] = None,
    ) -> CostLedger:
        """Price ``n_words`` ops of *kernel* on the CPU baseline."""
        n_words = _check_words(n_words)
        spec = spec if spec is not None else TABLE1
        unit = self.unit_for(kernel.name, spec)
        reads, writes = self.accesses_for(kernel.name)
        hit_ratio = (self.hit_ratio if self.hit_ratio is not None
                     else spec.cache.hit_ratio)
        cache = spec.cache.with_hit_ratio(hit_ratio)
        units = (self.units if self.units is not None
                 else spec.crossbar.units_per_cluster)
        tech = spec.cmos

        cycle = tech.cycle_time
        round_time = (reads * cache.average_read_cycles() * cycle
                      + writes * cache.write_cycles * cycle
                      + unit.depth * tech.gate_delay)
        rounds = math.ceil(n_words / units)
        time = rounds * round_time

        dynamic = n_words * unit.gates * tech.gate_dynamic_energy()
        leak_fraction = (cycle - tech.gate_delay) / cycle
        logic_leakage = (units * unit.gates * tech.gate_leakage
                         * time * leak_fraction)
        cache_static = units * cache.static_power * time

        ledger = CostLedger()
        ledger.energy(
            "dynamic", dynamic,
            f"{n_words} ops x {unit.gates} gates "
            "[cmos.gate_power x cmos.gate_delay]")
        ledger.energy(
            "logic_leakage", logic_leakage,
            "gate leakage power x runtime x (cycle - gate_delay)/cycle "
            "[cmos.gate_leakage]")
        ledger.energy(
            "cache_static", cache_static,
            f"{units} units x cache.static_power x runtime "
            f"[hit ratio {hit_ratio:g}]")
        ledger.latency(
            "rounds", time,
            f"{rounds} rounds x ({reads} reads + {writes} writes "
            "+ unit latency) [cache.*_cycles, cmos.gate_delay]")
        return ledger


class _BoardStatsLike(Protocol):
    """The counters :func:`board_stats_ledger` renders (structural, so
    the spec layer never imports the board layer)."""

    @property
    def programs(self) -> int: ...

    @property
    def pulses(self) -> int: ...

    @property
    def device_writes(self) -> int: ...

    @property
    def iv_reads(self) -> int: ...

    @property
    def energy(self) -> float: ...

    @property
    def latency(self) -> float: ...


def board_stats_ledger(
    stats: _BoardStatsLike, technology: MemristorTechnology
) -> CostLedger:
    """Render board counters into the provenance-tagged cost ledger.

    The one renderer behind :meth:`repro.board.base.Board.ledger`;
    entry labels and provenance strings are part of the board's
    observable contract and must stay stable.
    """
    ledger = CostLedger()
    ledger.energy(
        "board_writes",
        stats.energy,
        f"{stats.device_writes} device writes x "
        f"memristor.write_energy (+{stats.iv_reads} I-V reads)",
    )
    ledger.latency(
        "board_ops",
        stats.latency,
        f"{stats.programs} programs + {stats.pulses} pulses "
        f"+ {stats.iv_reads} reads x memristor.write_time "
        f"({technology.name})",
    )
    return ledger
