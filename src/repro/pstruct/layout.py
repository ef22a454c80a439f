"""Scalar packing helpers over a simulated memory.

Fixed-width field accessors so persistent structures read the same on
every device.  All integers are little-endian.
"""

from __future__ import annotations

import struct

from repro.nvm.memory import SimulatedMemory

# Scalar fields go through the memory's fused integer accessors, which
# charge identically to read()/write() of the packed bytes but skip the
# codec round-trip and (single-line case) the generic span pipeline.


def write_u8(mem: SimulatedMemory, offset: int, value: int) -> None:
    mem.write_uint(offset, 1, value)


def read_u32(mem: SimulatedMemory, offset: int) -> int:
    return mem.read_uint(offset, 4)


def write_u32(mem: SimulatedMemory, offset: int, value: int) -> None:
    mem.write_uint(offset, 4, value)


def read_u64(mem: SimulatedMemory, offset: int) -> int:
    return mem.read_uint(offset, 8)


def write_u64(mem: SimulatedMemory, offset: int, value: int) -> None:
    mem.write_uint(offset, 8, value)


def read_u32_array(mem: SimulatedMemory, offset: int, count: int) -> list[int]:
    """Read ``count`` consecutive u32 values in one device access."""
    if count == 0:
        return []
    raw = mem.read(offset, 4 * count)
    return list(struct.unpack(f"<{count}I", raw))


def write_u32_array(mem: SimulatedMemory, offset: int, values: list[int]) -> None:
    """Write consecutive u32 values in one device access."""
    if not values:
        return
    mem.write(offset, struct.pack(f"<{len(values)}I", *values))


# Checked scalar reads: force the window path through mem.read(), which
# runs CRC seal verification when an integrity mirror is attached (see
# repro.nvm.scrub.MediaGuard).  On an unprotected memory they charge and
# decode exactly like their read_uint counterparts -- use them at sites
# that must never trust a corrupted field (headers, counts, offsets).


def read_u32_checked(mem: SimulatedMemory, offset: int) -> int:
    return int.from_bytes(mem.read(offset, 4), "little")


def read_u64_checked(mem: SimulatedMemory, offset: int) -> int:
    return int.from_bytes(mem.read(offset, 8), "little")


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= max(value, 1).

    The paper rounds hash-table lengths up to a power of two "for alignment
    to improve the hit rate of the cache" (Section IV-D).
    """
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()
