"""Shared bit pack/unpack helpers for the kernel engine.

Every executor — and every app feeding one — needs the same two moves:
explode integer words into little-endian bit lanes (one memristor column
per bit) and reassemble lane bits into words.  Before the engine landed,
each consumer hand-rolled its own ``[(value >> i) & 1 for i in
range(width)]`` loop; these helpers centralise that convention and do it
vectorised, so an N-word batch packs as one NumPy shift instead of
``N * width`` Python iterations.

On top of the word/bit layout sit the *bit-plane* transforms
(:func:`pack_bitplanes` / :func:`unpack_bitplanes`): the transpose view
where each signal's bit column across the batch is packed into uint64
lanes, 64 words per lane — the layout the ``functional_bitplane``
executor consumes so one bitwise op processes 64 words at once.

Conventions
-----------
* Bit order is **little-endian**: lane ``i`` holds bit ``2**i``.
* Packed batches are ``uint8`` arrays of shape ``(words, width)``.
* Word values travel as ``uint64`` (so ``width <= 63`` round-trips
  exactly through the NumPy shift path).
* Bit planes are ``uint64`` arrays of shape ``(signals, lanes)`` with
  ``lanes = ceil(words / 64)``; word ``w`` of a signal lives in lane
  ``w // 64``, bit ``w % 64`` (little-endian again).  Pad bits beyond
  the batch are zero.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..errors import EngineError

#: Widest word the vectorised uint64 shift path supports.
MAX_WIDTH = 63

#: Words per uint64 bit-plane lane.
PLANE_LANE_BITS = 64


def _check_width(width: int) -> int:
    if not 1 <= int(width) <= MAX_WIDTH:
        raise EngineError(f"width must be 1..{MAX_WIDTH} bits, got {width}")
    return int(width)


def int_to_bits(value: int, width: int) -> List[int]:
    """Little-endian bit list of one *width*-bit word."""
    width = _check_width(width)
    value = int(value)
    if not 0 <= value < (1 << width):
        raise EngineError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Reassemble a little-endian bit sequence into an integer."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise EngineError(f"bit lane {i} must hold 0/1, got {bit}")
        value |= int(bit) << i
    return value


def pack_words(values: Union[Sequence[int], np.ndarray], width: int) -> np.ndarray:
    """Explode integer words into a ``(words, width)`` uint8 bit matrix.

    Lane ``i`` (column ``i``) carries bit ``2**i`` of every word — the
    layout all engine executors consume.

    Raises :class:`~repro.errors.EngineError` on an empty batch, on
    non-integer values (a float batch would silently truncate), and on
    any word that does not fit in *width* bits — naming the offending
    batch index so a thousand-word batch pinpoints its one bad word.
    """
    width = _check_width(width)
    words = np.atleast_1d(np.asarray(values))
    if words.ndim != 1:
        raise EngineError(f"expected a flat word vector, got shape {words.shape}")
    if words.size == 0:
        raise EngineError("cannot pack an empty word batch")
    if words.dtype == object:
        # Python ints too large for int64/uint64 land here; find the
        # culprit instead of dying in the cast below.
        for index, value in enumerate(words):
            if not isinstance(value, (int, np.integer)):
                raise EngineError(
                    f"word {index} is {type(value).__name__} "
                    f"({value!r}); words must be integers"
                )
            if value < 0:
                raise EngineError(
                    f"word {index} is negative ({value}); "
                    "words must be non-negative"
                )
            if value >= (1 << width):
                raise EngineError(
                    f"word {index} = {value} does not fit in {width} bits"
                )
        words = words.astype(np.uint64)
    elif not np.issubdtype(words.dtype, np.integer):
        if words.dtype == np.bool_:
            words = words.astype(np.uint64)
        else:
            raise EngineError(
                f"words must be integers, got dtype {words.dtype} "
                "(float batches would silently truncate)"
            )
    if np.issubdtype(words.dtype, np.signedinteger) and (words < 0).any():
        index = int(np.nonzero(words < 0)[0][0])
        raise EngineError(
            f"word {index} is negative ({int(words[index])}); "
            "words must be non-negative"
        )
    words = np.ascontiguousarray(words, dtype="<u8")
    too_wide = words >= np.uint64(1 << width)
    if too_wide.any():
        index = int(np.nonzero(too_wide)[0][0])
        raise EngineError(
            f"word {index} = {int(words[index])} does not fit in "
            f"{width} bits"
        )
    # Little-endian bytes unpacked little-endian bit first: column i is
    # bit 2**i, exactly the lane layout.
    return np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1,
                         count=width, bitorder="little")


def assemble_words(lanes: Sequence[np.ndarray]) -> np.ndarray:
    """Reassemble little-endian bit lanes into uint64 words.

    ``lanes[i]`` is the ``(words,)`` lane carrying bit ``2**i``.  The
    lanes are trusted to hold only 0/1 — executors produce them that
    way; outside data goes through :func:`unpack_words`, which checks.
    """
    words = np.zeros(len(lanes[0]), dtype=np.uint64)
    shifted = np.empty_like(words)
    for bit, lane in enumerate(lanes):
        np.left_shift(lane, np.uint64(bit), out=shifted, dtype=np.uint64,
                      casting="unsafe")
        words |= shifted
    return words


def unpack_words(bits: np.ndarray) -> np.ndarray:
    """Reassemble a ``(words, width)`` bit matrix into uint64 words."""
    matrix = np.asarray(bits)
    if matrix.ndim != 2:
        raise EngineError(f"expected a (words, width) matrix, got shape {matrix.shape}")
    width = _check_width(matrix.shape[1])
    if matrix.size and not np.isin(matrix, (0, 1)).all():
        raise EngineError("bit matrix entries must be 0/1")
    return assemble_words([matrix[:, i] for i in range(width)])


def plane_lanes(words: int) -> int:
    """Number of uint64 lanes needed to hold a *words*-word bit plane."""
    if words < 1:
        raise EngineError(f"bit planes need words >= 1, got {words}")
    return (words + PLANE_LANE_BITS - 1) // PLANE_LANE_BITS


def pack_bitplanes(bits: np.ndarray) -> np.ndarray:
    """Transpose a ``(signals, words)`` bit matrix into uint64 planes.

    Returns a ``(signals, lanes)`` uint64 array where word ``w`` of each
    signal sits at lane ``w // 64``, bit ``w % 64`` (little-endian);
    pad bits past the batch end are zero.  The transform is endianness-
    independent: lanes are assembled by explicit shifts, not by
    reinterpreting byte buffers.
    """
    matrix = np.asarray(bits)
    if matrix.ndim != 2:
        raise EngineError(
            f"expected a (signals, words) bit matrix, got shape {matrix.shape}"
        )
    signals, words = matrix.shape
    lanes = plane_lanes(words)
    if matrix.size and not np.isin(matrix, (0, 1)).all():
        raise EngineError("bit matrix entries must be 0/1")
    padded = np.zeros((signals, lanes * PLANE_LANE_BITS), dtype=np.uint8)
    padded[:, :words] = matrix
    # (signals, lanes*8) little-endian bytes -> uint64 lanes by shifts.
    packed = np.packbits(padded, axis=1, bitorder="little")
    shifts = np.uint64(8) * np.arange(8, dtype=np.uint64)
    grouped = packed.reshape(signals, lanes, 8).astype(np.uint64) << shifts
    return np.bitwise_or.reduce(grouped, axis=2)


def unpack_bitplanes(planes: np.ndarray, words: int) -> np.ndarray:
    """Inverse of :func:`pack_bitplanes`: planes back to a bit matrix.

    *words* trims the pad bits the pack step added; the result is a
    ``(signals, words)`` uint8 matrix.
    """
    lanes_arr = np.asarray(planes)
    if lanes_arr.ndim != 2:
        raise EngineError(
            f"expected a (signals, lanes) plane array, got shape {lanes_arr.shape}"
        )
    if lanes_arr.dtype != np.uint64:
        raise EngineError(
            f"bit planes must be uint64, got dtype {lanes_arr.dtype}"
        )
    signals, lanes = lanes_arr.shape
    if not 1 <= words <= lanes * PLANE_LANE_BITS:
        raise EngineError(
            f"words must be 1..{lanes * PLANE_LANE_BITS} for {lanes} "
            f"lanes, got {words}"
        )
    shifts = np.uint64(8) * np.arange(8, dtype=np.uint64)
    as_bytes = ((lanes_arr[..., None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
    matrix = np.unpackbits(
        as_bytes.reshape(signals, lanes * 8), axis=1, bitorder="little"
    )
    return matrix[:, :words]
