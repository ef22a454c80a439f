"""Pool allocator over a region of simulated memory.

Two allocation disciplines are provided because the paper's motivation
experiment (direct port of TADOC to Optane, 13.37x slowdown) hinges on the
difference between them:

* **packed** (default): a bump allocator.  Consecutive allocations are
  adjacent, so logically related objects share device lines -- the layout
  the N-TADOC DAG pool is designed to achieve.
* **scattered**: each allocation is preceded by a pseudo-random,
  deterministic gap of whole device lines, modelling the placement a
  general-purpose heap produces after churn.  Objects land on distinct
  lines and traversals miss the cache on nearly every hop.

A small exact-size free list lets fixed-size records be recycled, which is
enough for the reconstruction churn exercised by the naive baseline.

Bump space below the allocator's *zero watermark* is known to hold zeros.
An ordinary region starts with the watermark at its end: the device is
zero until something allocates it.  A region that may hold a previous
owner's bytes (a recycled or reopened segment extent) starts with the
watermark at its base, and each bump allocation that passes it zeroes
whole lines up to the allocation's line-aligned end, so only the lines
the new owner uses are ever written.

A *scope* frees everything allocated after a point in one step.
:meth:`PoolAllocator.mark` records the bump top, the free lists and
``allocated_bytes``; :meth:`PoolAllocator.release` returns all three to
the mark and lowers the zero watermark to it, so bump allocations after
the release still read zero (the released space holds the scope's
bytes, and is zeroed line by line as it is handed out again).  The
segmented ingest layer scopes each checkpoint query's scratch this way,
so a segment queried forever needs one query's scratch, not one per
query.  Nothing allocated before the mark may be freed inside the scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.nvm.memory import SimulatedMemory


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


@dataclass(frozen=True)
class AllocatorMark:
    """A point :meth:`PoolAllocator.release` can return the allocator to."""

    top: int
    free_lists: dict[int, tuple[int, ...]]
    allocated_bytes: int


class PoolAllocator:
    """Allocates byte ranges inside ``memory[base, base+capacity)``.

    Args:
        memory: The simulated memory backing this pool.
        base: First byte of the allocatable region.
        capacity: Size of the allocatable region in bytes.
        scatter: Use the scattered discipline described in the module
            docstring.  Deterministic for a given ``seed``.
        seed: Seed for the scattered-gap generator.
    """

    def __init__(
        self,
        memory: SimulatedMemory,
        base: int,
        capacity: int,
        scatter: bool = False,
        seed: int = 0x5EED,
    ) -> None:
        if base < 0 or capacity <= 0 or base + capacity > memory.size:
            raise ValueError("allocator region outside memory bounds")
        self.memory = memory
        self.base = base
        self.capacity = capacity
        self.scatter = scatter
        self._top = base
        self._rng_state = seed & 0xFFFFFFFF
        self._free_lists: dict[int, list[int]] = {}
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        #: Whether the most recent alloc() reused a freed block (reused
        #: blocks contain stale data; bump allocations read zero).
        self.last_alloc_reused = False
        #: Bump space in ``[top, zero_watermark)`` is known zero; a bump
        #: allocation reaching past it zero-fills whole lines first.
        self.zero_watermark = base + capacity

    @property
    def top(self) -> int:
        """Current bump pointer (first never-allocated byte)."""
        return self._top

    @property
    def remaining(self) -> int:
        """Bytes left in the bump region (free-list blocks not counted)."""
        return self.base + self.capacity - self._top

    def alloc(self, size: int, align: int = 8) -> int:
        """Allocate ``size`` bytes and return their offset.

        Raises:
            OutOfMemoryError: when the region is exhausted.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        free = self._free_lists.get(size)
        if free:
            offset = free.pop()
            self.last_alloc_reused = True
            self._note_alloc(size)
            return offset
        self.last_alloc_reused = False
        start = _align_up(self._top, align)
        if self.scatter:
            start += self._scatter_gap()
            start = _align_up(start, align)
        if start + size > self.base + self.capacity:
            raise OutOfMemoryError(
                f"pool exhausted: need {size} B at {start}, region ends at "
                f"{self.base + self.capacity}"
            )
        end = start + size
        if end > self.zero_watermark:
            line_size = self.memory.profile.line_size
            zero_end = min(_align_up(end, line_size), self.base + self.capacity)
            self.memory.fill(self.zero_watermark, zero_end - self.zero_watermark, 0)
            self.zero_watermark = zero_end
        self._top = end
        self._note_alloc(size)
        return start

    def free(self, offset: int, size: int) -> None:
        """Return a block to the exact-size free list for reuse."""
        if offset < self.base or offset + size > self.base + self.capacity:
            raise ValueError("freeing block outside allocator region")
        self._free_lists.setdefault(size, []).append(offset)
        self.allocated_bytes -= size

    def mark(self) -> AllocatorMark:
        """Record the allocator's state for a later :meth:`release`."""
        return AllocatorMark(
            top=self._top,
            free_lists={
                size: tuple(blocks)
                for size, blocks in self._free_lists.items()
                if blocks
            },
            allocated_bytes=self.allocated_bytes,
        )

    def release(self, mark: AllocatorMark) -> None:
        """Free every block allocated since ``mark``, in one step.

        The bump top, the free lists and ``allocated_bytes`` return to
        the mark; ``peak_bytes`` and ``alloc_count`` keep counting.  The
        zero watermark drops to the mark's top, so the released space is
        zeroed again before a bump allocation hands it out.  Charges
        nothing: the released bytes stay on the device until reused.
        """
        self._top = mark.top
        self._free_lists = {
            size: list(blocks) for size, blocks in mark.free_lists.items()
        }
        self.allocated_bytes = mark.allocated_bytes
        self.zero_watermark = min(self.zero_watermark, mark.top)

    def _note_alloc(self, size: int) -> None:
        self.allocated_bytes += size
        self.alloc_count += 1
        if self.allocated_bytes > self.peak_bytes:
            self.peak_bytes = self.allocated_bytes

    def _scatter_gap(self) -> int:
        """Deterministic pseudo-random gap of 1..8 device lines."""
        # xorshift32 keeps the sequence deterministic and dependency-free.
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        lines = 1 + (x % 8)
        return lines * self.memory.profile.line_size
