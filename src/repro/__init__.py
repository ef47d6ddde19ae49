"""repro — reproduction of Hamdioui et al., "Memristor Based
Computation-in-Memory Architecture for Data-Intensive Applications"
(DATE 2015).

The package is organised bottom-up, mirroring the paper:

* :mod:`repro.devices` — memristor models (Section IV.A) incl. the CRS
  cell of Fig 4 and the Table 1 technology profiles.
* :mod:`repro.crossbar` — passive crossbar electrical simulation,
  sneak paths, bias schemes, junction options (Fig 3, Section IV.B).
* :mod:`repro.logic` — IMPLY stateful logic, gates, adders,
  comparators, LUTs, CAM (Fig 5, Section IV.C).
* :mod:`repro.cmosarch` — the conventional CMOS substrate of Table 1.
* :mod:`repro.core` — the CIM architecture model and the Table 2
  evaluation (Sections II-III).
* :mod:`repro.apps` — the DNA-sequencing and parallel-addition
  workloads (Section III.B).
* :mod:`repro.sim` — a bit-accurate functional CIM machine.
* :mod:`repro.engine` — the unified compile-once/execute-many kernel
  pipeline every workload runs through (functional, electrical, and
  analytical executors behind one interface).
* :mod:`repro.spec` — the Table 1 parameter space as one frozen,
  digest-keyed :class:`~repro.spec.TechSpec` tree plus the
  provenance-tagged :class:`~repro.spec.CostLedger`.
* :mod:`repro.analysis` — reports, parameter sweeps and the DSE sweep
  engine (``repro sweep``).

* :mod:`repro.serve` — the async batched serving layer (``repro
  serve``): dynamic batching, backpressure, deadlines, digest-keyed
  result caching.
* :mod:`repro.api` — the stable public facade; start here.

Quick start::

    from repro import api
    from repro.analysis import render_table2
    print(render_table2(api.table2()))
"""

import importlib
from typing import Any, List

from .errors import (
    ArchitectureError,
    CrossbarError,
    DeadlineExceeded,
    DeviceError,
    EngineError,
    LogicError,
    ObservabilityError,
    ReproError,
    ServeError,
    ServerOverloaded,
    SpecError,
    SynthesisError,
    TransientExecutorError,
    WorkloadError,
)

__version__ = "0.1.0"

#: Subpackages (and the ``api``/``units`` modules) imported on first
#: attribute access, so ``import repro.serve`` loads only what serving
#: reaches.
_SUBMODULES = (
    "devices",
    "analog",
    "api",
    "compiler",
    "engine",
    "reliability",
    "interconnect",
    "crossbar",
    "logic",
    "cmosarch",
    "core",
    "apps",
    "serve",
    "sim",
    "spec",
    "analysis",
    "obs",
    "units",
)

__all__ = [
    *_SUBMODULES,
    "ReproError",
    "DeviceError",
    "CrossbarError",
    "LogicError",
    "ArchitectureError",
    "WorkloadError",
    "SynthesisError",
    "ObservabilityError",
    "EngineError",
    "SpecError",
    "ServeError",
    "ServerOverloaded",
    "DeadlineExceeded",
    "TransientExecutorError",
    "__version__",
]


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_SUBMODULES))
