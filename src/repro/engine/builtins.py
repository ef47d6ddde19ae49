"""Built-in kernels: the paper's compute units as engine artifacts.

Each factory returns a cached :class:`~repro.engine.kernel.CompiledKernel`
with the matching Table 1 analytical cost model attached, so one
artifact serves all three backends:

* :func:`comparator_kernel` — the 2-bit nucleotide comparator
  (Table 1's "2 XOR and a NAND", :class:`ComparatorCost`);
* :func:`word_comparator_kernel` — the N-bit equality comparator the
  DNA sweeps use;
* :func:`adder_kernel` — the N-bit ripple adder, priced as the CRS
  TC-adder (:class:`TCAdderCost`);
* :func:`cam_match_kernel` — one CAM row's match (functional program =
  word equality; analytical cost = the associative-search accounting of
  :class:`~repro.logic.cam.MemristiveCAM`).

:func:`kernel_catalog` lists them for the ``repro kernels`` CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import EngineError
from ..logic.adders import TCAdderCost, ripple_adder_program
from ..logic.comparator import (
    ComparatorCost,
    nucleotide_comparator_program,
    word_comparator_program,
)
from ..spec.costmodel import CAMMatchCost as _CAMMatchCost
from .kernel import CompiledKernel, cached_kernel, compile_program


def _check_width(width: int, limit: int = 63) -> int:
    if not 1 <= int(width) <= limit:
        raise EngineError(f"kernel width must be 1..{limit}, got {width}")
    return int(width)


def comparator_kernel() -> CompiledKernel:
    """The paper's 2-bit nucleotide comparator (Table 1 DNA unit)."""
    def build() -> CompiledKernel:
        return compile_program(
            nucleotide_comparator_program(),
            name="comparator",
            word_inputs={"a": ("a0", "a1"), "b": ("b0", "b1")},
            word_outputs={"match": ("match",)},
            cost=ComparatorCost(),
        )
    return cached_kernel(("builtin", "comparator"), build)


def word_comparator_kernel(width: int) -> CompiledKernel:
    """N-bit word equality comparator (match = 1 iff a == b)."""
    width = _check_width(width)

    def build() -> CompiledKernel:
        return compile_program(
            word_comparator_program(width),
            name=f"word-compare-{width}",
            word_inputs={
                "a": tuple(f"a{i}" for i in range(width)),
                "b": tuple(f"b{i}" for i in range(width)),
            },
            word_outputs={"match": ("match",)},
            # No Table 1 constant covers an N-bit comparator; leave the
            # cost to the step-count fallback of the analytical backend.
            cost=None,
        )
    return cached_kernel(("builtin", "word-compare", width), build)


def adder_kernel(width: int) -> CompiledKernel:
    """N-bit ripple adder, priced as the CRS TC-adder of Table 1."""
    width = _check_width(width)

    def build() -> CompiledKernel:
        return compile_program(
            ripple_adder_program(width),
            name=f"tc-adder-{width}",
            word_inputs={
                "a": tuple(f"a{i}" for i in range(width)),
                "b": tuple(f"b{i}" for i in range(width)),
            },
            word_outputs={
                "sum": tuple(f"s{i}" for i in range(width)),
                "cout": ("cout",),
            },
            cost=TCAdderCost(width=width),
        )
    return cached_kernel(("builtin", "adder", width), build)


def cam_match_kernel(width: int) -> CompiledKernel:
    """One CAM row's equality match against an N-bit query."""
    width = _check_width(width)

    def build() -> CompiledKernel:
        program = word_comparator_program(width)
        program.name = f"cam-match-{width}"
        return compile_program(
            program,
            name=f"cam-match-{width}",
            word_inputs={
                "a": tuple(f"a{i}" for i in range(width)),
                "b": tuple(f"b{i}" for i in range(width)),
            },
            word_outputs={"match": ("match",)},
            cost=_CAMMatchCost(width=width),
        )
    return cached_kernel(("builtin", "cam-match", width), build)


def kernel_catalog(adder_width: int = 32, match_width: int = 16) -> List[Dict[str, object]]:
    """Describe every built-in kernel (the ``repro kernels`` listing)."""
    kernels = [
        comparator_kernel(),
        word_comparator_kernel(match_width),
        adder_kernel(adder_width),
        cam_match_kernel(match_width),
    ]
    return [k.describe() for k in kernels]


#: Serve/API kernel-name vocabulary: public name -> builder taking a
#: width (``comparator`` ignores it — the nucleotide comparator is
#: fixed at 2 bits).  ``adder``/``word-compare``/``cam-match`` are the
#: canonical names; the compiled artifact names (``tc-adder`` etc.)
#: are accepted as aliases.
KERNEL_BUILDERS: Dict[str, Callable[[int], CompiledKernel]] = {
    "comparator": lambda width: comparator_kernel(),
    "word-compare": word_comparator_kernel,
    "word-comparator": word_comparator_kernel,
    "adder": adder_kernel,
    "tc-adder": adder_kernel,
    "cam-match": cam_match_kernel,
}


def resolve_kernel(name: str, width: int = 32) -> CompiledKernel:
    """Look a built-in kernel up by its public name.

    The resolver is the name vocabulary shared by :mod:`repro.api` and
    the :mod:`repro.serve` request protocol, so a JSONL request's
    ``{"kernel": "adder", "width": 32}`` and an in-process
    ``api.run_kernel(kernel="adder", width=32)`` hit the same cached
    artifact.
    """
    builder = KERNEL_BUILDERS.get(str(name).strip().lower())
    if builder is None:
        raise EngineError(
            f"unknown kernel {name!r}; choose one of "
            f"{sorted(set(KERNEL_BUILDERS))}"
        )
    return builder(width)
