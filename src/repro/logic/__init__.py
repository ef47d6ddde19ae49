"""Stateful logic on memristors — Section IV.C / Fig 5 of the paper.

Public API:

* IMP primitives: :func:`imp_truth`, :class:`ImplyGate` (Fig 5a),
  :class:`CRSImplyCell` (Fig 5b), :class:`ImplyVoltages`.
* Programs: :class:`ImplyProgram`, :class:`Instruction`, :class:`OpKind`.
* Gate library: :func:`build_gate` and the individual builders.
* Execution: :class:`ImplyMachine`, :class:`ExecutionReport`.
* Arithmetic: :func:`ripple_adder_program`, :func:`full_adder_program`,
  :class:`TCAdderCost`.
* Comparison: :func:`nucleotide_comparator_program`,
  :func:`word_comparator_program`, :class:`ComparatorCost`.
* Synthesis: :func:`synthesise`, :func:`verify_program`.
* Structures: :class:`CrossbarLUT`, :class:`MemristiveCAM`.
"""

import importlib
from typing import Any, Dict, List, Tuple

#: Submodule -> the public names it defines.  Both are imported on
#: first attribute access (PEP 562), so ``from repro.logic.program import
#: ...`` — the kernel compiler's path — loads neither ``lut`` nor the
#: crossbar memory beneath it.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "adders": ("TCAdderCost", "add_integers_functional",
               "full_adder_program", "ripple_adder_program"),
    "cam": ("WILDCARD", "MemristiveCAM", "SearchStats"),
    "comparator": ("ComparatorCost", "nucleotide_comparator_program",
                   "word_comparator_program"),
    "gates": ("GATES", "and_gate", "build_gate", "nand_gate", "nor_gate",
              "not_gate", "or_gate", "xnor_gate", "xor_gate"),
    "imply": ("CRSImplyCell", "ImplyGate", "ImplyVoltages", "imp_truth"),
    "lut": ("CrossbarLUT",),
    "program": ("ImplyProgram", "Instruction", "OpKind"),
    "sequencer": ("ExecutionReport", "ImplyMachine"),
    "synthesis": ("synthesise", "truth_table_of", "verify_program"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = [
    "imp_truth",
    "ImplyGate",
    "CRSImplyCell",
    "ImplyVoltages",
    "ImplyProgram",
    "Instruction",
    "OpKind",
    "GATES",
    "build_gate",
    "not_gate",
    "or_gate",
    "nand_gate",
    "and_gate",
    "nor_gate",
    "xor_gate",
    "xnor_gate",
    "ImplyMachine",
    "ExecutionReport",
    "full_adder_program",
    "ripple_adder_program",
    "add_integers_functional",
    "TCAdderCost",
    "ComparatorCost",
    "nucleotide_comparator_program",
    "word_comparator_program",
    "synthesise",
    "truth_table_of",
    "verify_program",
    "CrossbarLUT",
    "MemristiveCAM",
    "WILDCARD",
    "SearchStats",
]


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        module = importlib.import_module(f".{_ORIGIN[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_ORIGIN))
