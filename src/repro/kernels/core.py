"""Bulk kernels: typed views and occupied-slot gathers.

Everything here follows the package's charge-from-plan / execute-vectorized
contract (see the package docstring).  Functions that take raw ``bytes``
returned by ``SimulatedMemory.read`` are pure data movement -- the charge
was paid by the read.  Functions that touch ``mem._buf`` directly document
which scalar call sequence their charging replicates.
"""

from __future__ import annotations

import struct
import sys
from array import array

_LITTLE_ENDIAN = sys.byteorder == "little"


def _resolve_typecodes() -> dict[tuple[int, bool], str]:
    table: dict[tuple[int, bool], str] = {}
    for code in "BHILQ":
        table.setdefault((array(code).itemsize, False), code)
    for code in "bhilq":
        table.setdefault((array(code).itemsize, True), code)
    return table


_TYPECODES = _resolve_typecodes()


def typed_array(raw: bytes, elem_size: int, signed: bool = False):
    """View ``raw`` little-endian bytes as a typed sequence of integers.

    Returns an ``array.array`` (one C-level ``frombytes``, no per-element
    Python work).  Falls back to a list via :mod:`struct` on platforms
    without a matching typecode.
    """
    code = _TYPECODES.get((elem_size, signed))
    if code is None:  # pragma: no cover - no such CPython platform known
        fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[elem_size]
        return list(struct.unpack(f"<{len(raw) // elem_size}{fmt.upper() if not signed else fmt}", raw))
    out = array(code)
    out.frombytes(raw)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
        out.byteswap()
    return out


def pack_values(values, elem_size: int, signed: bool = False) -> bytes:
    """Little-endian bytes for a sequence of integers, in one C call."""
    code = _TYPECODES.get((elem_size, signed))
    if code is not None and isinstance(values, array) and values.typecode == code:
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            swapped = array(code, values)
            swapped.byteswap()
            return swapped.tobytes()
        return values.tobytes()
    if code is not None:
        out = array(code, values)
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            out.byteswap()
        return out.tobytes()
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[elem_size]  # pragma: no cover
    fmt = fmt if signed else fmt.upper()  # pragma: no cover
    return struct.pack(f"<{len(values)}{fmt}", *values)  # pragma: no cover


def select_occupied(statuses: bytes, keys_raw: bytes, vals_raw: bytes):
    """Extract (keys, values) of occupied slots from one table chunk.

    Pure data movement over bytes already read (and charged) by the
    caller: ``bytes.find`` over the statuses plus one bulk unpack.
    """
    n = len(statuses)
    all_keys = struct.unpack(f"<{n}Q", keys_raw)
    all_vals = struct.unpack(f"<{n}q", vals_raw)
    keys: list[int] = []
    vals: list[int] = []
    append_k = keys.append
    append_v = vals.append
    find = statuses.find
    i = find(1)
    while i >= 0:
        append_k(all_keys[i])
        append_v(all_vals[i])
        i = find(1, i + 1)
    return keys, vals


class Kernels:
    """Kernel state bound to one :class:`~repro.nvm.memory.SimulatedMemory`."""

    __slots__ = ("mem", "consts")

    def __init__(self, mem) -> None:
        self.mem = mem
        #: Lazily-built tuple of per-device invariants (the line size,
        #: the memory's singleton clock/stats/cache objects and bound
        #: methods) hoisted once instead of per kernel call; see
        #: repro.kernels.hashops._env.
        self.consts: tuple | None = None
