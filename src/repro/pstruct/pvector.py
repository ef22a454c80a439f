"""Fixed-capacity persistent vector with optional (costly) growth.

The vector exists in two modes mirroring the paper's argument:

* **pre-sized** (``growable=False``): the capacity comes from the
  bottom-up summation upper bound, so an overflow is a logic error and
  raises :class:`~repro.errors.CapacityError`.
* **growable** (``growable=True``): models the STL-style container the
  paper criticizes.  On overflow the data buffer is reallocated at twice
  the capacity and every element is copied through the device -- the
  "violent reconstruction" whose read-modify-write traffic N-TADOC's
  summation technique eliminates.

Layout::

    header (24 B): u32 length | u32 capacity | u32 elem_size | u32 flags
                   | u64 data_offset
    data:          capacity * elem_size bytes (relocatable when growable)
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import CapacityError
from repro.kernels import typed_array
from repro.nvm.allocator import PoolAllocator
from repro.obs.tracer import traced_op
from repro.pstruct import layout

_HEADER = struct.Struct("<IIIIQ")
_FLAG_GROWABLE = 1

#: Elements read per device round-trip during iteration.
_CHUNK = 512


class PVector:
    """A persistent vector of unsigned integers (4- or 8-byte elements)."""

    def __init__(self, allocator: PoolAllocator, header_offset: int) -> None:
        self._allocator = allocator
        self._mem = allocator.memory
        self.header_offset = header_offset
        raw = self._mem.read(header_offset, _HEADER.size)
        (
            self._length,
            self._capacity,
            self.elem_size,
            flags,
            self._data_offset,
        ) = _HEADER.unpack(raw)
        self.growable = bool(flags & _FLAG_GROWABLE)
        if self.elem_size not in (4, 8):
            raise ValueError(f"unsupported element size {self.elem_size}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        allocator: PoolAllocator,
        capacity: int,
        elem_size: int = 4,
        growable: bool = False,
    ) -> "PVector":
        """Allocate a new vector in the pool and return a handle to it."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if elem_size not in (4, 8):
            raise ValueError("elem_size must be 4 or 8")
        mem = allocator.memory
        header_offset = allocator.alloc(_HEADER.size)
        data_offset = allocator.alloc(capacity * elem_size)
        flags = _FLAG_GROWABLE if growable else 0
        mem.write(
            header_offset,
            _HEADER.pack(0, capacity, elem_size, flags, data_offset),
        )
        return cls(allocator, header_offset)

    @classmethod
    def attach(cls, allocator: PoolAllocator, header_offset: int) -> "PVector":
        """Reopen a vector from its persisted header (e.g. after recovery)."""
        return cls(allocator, header_offset)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def reconstructions(self) -> int:
        """How many times this vector has been grown (and fully copied)."""
        return getattr(self, "_reconstructions", 0)

    def get(self, index: int) -> int:
        """Return the element at ``index``."""
        self._check_index(index)
        off = self._data_offset + index * self.elem_size
        return self._mem.read_uint(off, self.elem_size)

    def set(self, index: int, value: int) -> None:
        """Overwrite the element at ``index``."""
        self._check_index(index)
        off = self._data_offset + index * self.elem_size
        self._mem.write_uint(off, self.elem_size, value)

    def add_at(self, index: int, delta: int) -> int:
        """Fused read-modify-write of one element; returns the new value.

        Charges exactly like ``get`` followed by ``set`` (one read plus
        one write of the element) but saves a Python round-trip on the
        counter-update hot path.
        """
        self._check_index(index)
        off = self._data_offset + index * self.elem_size
        return self._mem.rmw_add(off, self.elem_size, delta)

    @traced_op("pvector:add_each")
    def add_each(self, indices, delta: int = 1) -> None:
        """Apply ``add_at(i, delta)`` for every index in ``indices``.

        The constant-delta sibling of :meth:`add_at_each`: order is
        preserved and every element pays its own fused read-modify-write,
        but the site list is materialized in one comprehension and
        bounds-checked via its extremes, keeping the per-token hot loop
        (the uncompressed baseline's counter scan) free of per-site
        Python-level checks.
        """
        if not isinstance(indices, (list, tuple)):
            indices = list(indices)
        if not indices:
            return
        low = min(indices)
        high = max(indices)
        if low < 0 or high >= self._length:
            bad = low if low < 0 else high
            raise IndexError(f"index {bad} out of range [0, {self._length})")
        elem_size = self.elem_size
        base = self._data_offset
        self._mem.rmw_add_each(
            [(base + index * elem_size, delta) for index in indices], elem_size
        )

    @traced_op("pvector:add_at_each")
    def add_at_each(self, pairs) -> None:
        """Apply :meth:`add_at` for many ``(index, delta)`` pairs.

        Accounting is identical to looping ``add_at`` -- deltas are NOT
        pre-summed and order is preserved, so a per-element scan (the
        uncompressed baseline's cost figure) stays faithful while the
        wall-clock cost drops to one fused device round-trip per element.
        """
        length = self._length
        base = self._data_offset
        elem_size = self.elem_size

        def sites():
            for index, delta in pairs:
                if not 0 <= index < length:
                    raise IndexError(
                        f"index {index} out of range [0, {length})"
                    )
                yield base + index * elem_size, delta

        self._mem.rmw_add_each(sites(), elem_size)

    @traced_op("pvector:read_range")
    def read_range(self, index: int, count: int):
        """Read ``count`` consecutive elements in one device access.

        Returns a typed sequence (``array.array``) decoded from the bulk
        read in one C-level conversion -- no per-element unpack.  It
        indexes and iterates as plain Python ints; call :func:`list` on
        it when a real list is needed.
        """
        if count == 0:
            return typed_array(b"", self.elem_size)
        self._check_index(index)
        if count < 0 or index + count > self._length:
            raise IndexError(
                f"range [{index}, {index + count}) out of range [0, {self._length})"
            )
        raw = self._mem.read(
            self._data_offset + index * self.elem_size, count * self.elem_size
        )
        return typed_array(raw, self.elem_size)

    def append(self, value: int) -> None:
        """Append one element, growing (expensively) if permitted.

        Raises:
            CapacityError: when full and not growable.
        """
        if self._length >= self._capacity:
            if not self.growable:
                raise CapacityError(
                    f"vector full at capacity {self._capacity}; "
                    "size it with the bottom-up upper bound or pass growable=True"
                )
            self._grow()
        off = self._data_offset + self._length * self.elem_size
        self._mem.write_uint(off, self.elem_size, value)
        self._length += 1
        self._store_length()

    @traced_op("pvector:extend")
    def extend(self, values: list[int]) -> None:
        """Bulk append; packs all values into a single device write."""
        if not values:
            return
        while self._length + len(values) > self._capacity:
            if not self.growable:
                raise CapacityError(
                    f"extend of {len(values)} overflows capacity {self._capacity}"
                )
            self._grow()
        off = self._data_offset + self._length * self.elem_size
        self._mem.write_array(off, values, self.elem_size)
        self._length += len(values)
        self._store_length()

    def __iter__(self) -> Iterator[int]:
        """Yield elements in order, reading in line-friendly chunks.

        Routes through :meth:`read_range`, so each chunk is one bulk
        read and one typed decode.
        """
        for start in range(0, self._length, _CHUNK):
            yield from self.read_range(start, min(_CHUNK, self._length - start))

    def to_list(self) -> list[int]:
        """Return all elements as a Python list (chunked bulk reads)."""
        out: list[int] = []
        for start in range(0, self._length, _CHUNK):
            chunk = self.read_range(start, min(_CHUNK, self._length - start))
            out.extend(chunk.tolist() if hasattr(chunk, "tolist") else chunk)
        return out

    def clear(self) -> None:
        """Logically empty the vector (capacity retained)."""
        self._length = 0
        self._store_length()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range [0, {self._length})")

    def _store_length(self) -> None:
        layout.write_u32(self._mem, self.header_offset, self._length)

    def _grow(self) -> None:
        """Reallocate at double capacity, copying every element."""
        new_capacity = self._capacity * 2
        new_offset = self._allocator.alloc(new_capacity * self.elem_size)
        # The read-modify-write reconstruction the paper measures: every
        # live byte crosses the device twice.
        live = self._length * self.elem_size
        for start in range(0, live, _CHUNK * self.elem_size):
            size = min(_CHUNK * self.elem_size, live - start)
            chunk = self._mem.read(self._data_offset + start, size)
            self._mem.write(new_offset + start, chunk)
        self._allocator.free(self._data_offset, self._capacity * self.elem_size)
        self._data_offset = new_offset
        self._capacity = new_capacity
        self._reconstructions = self.reconstructions + 1
        self._mem.write(
            self.header_offset,
            _HEADER.pack(
                self._length,
                self._capacity,
                self.elem_size,
                _FLAG_GROWABLE if self.growable else 0,
                self._data_offset,
            ),
        )
