"""Passive crossbar simulation — Fig 3/4 of the paper.

Public API:

* :class:`CrossbarArray` — junction grid.
* :func:`solve_ideal_wires` / :func:`solve_with_wire_resistance` —
  Kirchhoff solvers; :func:`solve_many_with_wire_resistance` batches
  drive patterns as multi-RHS blocks against shared factorizations and
  :func:`solve_junction_variants` answers single-cell conductance
  changes by rank-1 update; :func:`column_currents_with_wire_resistance`
  answers warm batched column reads from a cached transfer matrix.
* Bias schemes (:class:`FloatingBias`, :class:`GroundedBias`,
  :class:`VHalfBias`, :class:`VThirdBias`).
* Junction options (:class:`OneR`, :class:`OneSelectorOneR`,
  :class:`CRSJunction`, :class:`Selector`).
* Sneak-path analysis (:func:`read_margin`, :func:`margin_vs_size`,
  :func:`max_readable_size`, :func:`sense_current`).
* :class:`CrossbarMemory` — word-level memory with CRS destructive-read
  semantics and Table 1 energy accounting.
"""

from .array import CrossbarArray
from .bias import (
    ALL_SCHEMES,
    BiasScheme,
    FloatingBias,
    GroundedBias,
    VHalfBias,
    VThirdBias,
)
from .disturb import (
    DisturbReport,
    compare_schemes,
    ecm_disturb_report,
    max_writes_per_row,
    solved_unselected_stress,
    solved_unselected_stress_sweep,
    threshold_disturb_free,
)
from .memory import AccessStats, CrossbarMemory
from .multistage import (
    multistage_margin_vs_size,
    multistage_read_margin,
    multistage_sense_current,
    read_cost_factor,
)
from .selector import CRSJunction, OneR, OneSelectorOneR, Selector
from .sneak import (
    DEFAULT_MIN_MARGIN,
    MarginReport,
    margin_vs_size,
    max_readable_size,
    read_margin,
    sense_current,
    solve_access,
    worst_case_array,
)
from .solver import (
    CrossbarSolution,
    clear_factorization_cache,
    column_currents_with_wire_resistance,
    scipy_available,
    solve_ideal_wires,
    solve_junction_variants,
    solve_many_with_wire_resistance,
    solve_with_wire_resistance,
)

__all__ = [
    "CrossbarArray",
    "CrossbarSolution",
    "solve_ideal_wires",
    "solve_with_wire_resistance",
    "solve_many_with_wire_resistance",
    "solve_junction_variants",
    "column_currents_with_wire_resistance",
    "clear_factorization_cache",
    "scipy_available",
    "BiasScheme",
    "FloatingBias",
    "GroundedBias",
    "VHalfBias",
    "VThirdBias",
    "ALL_SCHEMES",
    "OneR",
    "OneSelectorOneR",
    "CRSJunction",
    "Selector",
    "MarginReport",
    "read_margin",
    "margin_vs_size",
    "max_readable_size",
    "sense_current",
    "solve_access",
    "worst_case_array",
    "DEFAULT_MIN_MARGIN",
    "CrossbarMemory",
    "AccessStats",
    "multistage_sense_current",
    "multistage_read_margin",
    "multistage_margin_vs_size",
    "read_cost_factor",
    "DisturbReport",
    "ecm_disturb_report",
    "solved_unselected_stress",
    "solved_unselected_stress_sweep",
    "threshold_disturb_free",
    "compare_schemes",
    "max_writes_per_row",
]
