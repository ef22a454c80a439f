"""Head/tail structure for sequence analytics (Section IV-D).

For each rule we persist the first ``k`` and last ``k`` *terminal* words
of the rule's full expansion.  During sequence counting this lets the
traversal examine only the boundary buffers of a subrule instead of
recursively expanding it, "thereby increasing the speed of sequence
analytics" (the technique N-TADOC borrows from G-TADOC).

Layout (one fixed-size record per rule, contiguous)::

    record: u16 head_len | u16 tail_len | k * u32 head | k * u32 tail
"""

from __future__ import annotations

import struct

from repro.kernels import dagops
from repro.nvm.allocator import PoolAllocator

_LENGTHS = struct.Struct("<HH")


class HeadTailStore:
    """Per-rule head/tail word buffers stored contiguously in a pool."""

    def __init__(
        self, allocator: PoolAllocator, base_offset: int, n_rules: int, k: int
    ) -> None:
        self._mem = allocator.memory
        self.base_offset = base_offset
        self.n_rules = n_rules
        self.k = k
        self._record_size = _LENGTHS.size + 8 * k

    @classmethod
    def create(cls, allocator: PoolAllocator, n_rules: int, k: int) -> "HeadTailStore":
        """Allocate head/tail records for ``n_rules`` rules of width ``k``."""
        if n_rules <= 0 or k <= 0:
            raise ValueError("n_rules and k must be positive")
        record_size = _LENGTHS.size + 8 * k
        base = allocator.alloc(n_rules * record_size)
        return cls(allocator, base, n_rules, k)

    @classmethod
    def attach(
        cls, allocator: PoolAllocator, base_offset: int, n_rules: int, k: int
    ) -> "HeadTailStore":
        """Reopen a store whose geometry is known (persisted elsewhere)."""
        return cls(allocator, base_offset, n_rules, k)

    @property
    def record_size(self) -> int:
        """Bytes per rule record."""
        return self._record_size

    @staticmethod
    def encode(heads: list[list[int]], tails: list[list[int]], k: int) -> bytes:
        """The records of every rule, in rule order (:meth:`set`'s bytes)."""
        record = struct.Struct(f"<HH{2 * k}I")
        out = []
        for head, tail in zip(heads, tails):
            head = head[:k]
            tail = tail[-k:] if tail else []
            out.append(
                record.pack(
                    len(head), len(tail),
                    *head, *[0] * (k - len(head)),
                    *tail, *[0] * (k - len(tail)),
                )
            )
        return b"".join(out)

    def set(self, rule: int, head: list[int], tail: list[int]) -> None:
        """Store the boundary words for ``rule`` (each list truncated to k)."""
        self._check_rule(rule)
        offset = self.base_offset + rule * self._record_size
        self._mem.write(offset, self.encode([head], [tail], self.k))

    def install(self, records: bytes) -> None:
        """Store every rule's record from :meth:`encode`'s ``records``.

        Charged as one :meth:`set` per rule, in rule order; while the
        memory is ``kernel_ready`` the writes run as the hoisted
        :func:`repro.kernels.dagops.write_records`.
        """
        size = self._record_size
        if len(records) != self.n_rules * size:
            raise ValueError("records do not cover every rule")
        mem = self._mem
        if mem.kernel_ready:
            dagops.write_records(mem, self.base_offset, records, size)
            return
        base = self.base_offset
        for start in range(0, len(records), size):
            mem.write(base + start, records[start : start + size])

    def get(self, rule: int) -> tuple[list[int], list[int]]:
        """Return ``(head_words, tail_words)`` for ``rule``."""
        self._check_rule(rule)
        offset = self.base_offset + rule * self._record_size
        raw = self._mem.read(offset, self._record_size)
        head_len, tail_len = _LENGTHS.unpack_from(raw, 0)
        words = struct.unpack_from(f"<{2 * self.k}I", raw, _LENGTHS.size)
        return list(words[:head_len]), list(words[self.k : self.k + tail_len])

    def get_head(self, rule: int) -> list[int]:
        """Return the head buffer only."""
        return self.get(rule)[0]

    def get_tail(self, rule: int) -> list[int]:
        """Return the tail buffer only."""
        return self.get(rule)[1]

    def _check_rule(self, rule: int) -> None:
        if not 0 <= rule < self.n_rules:
            raise IndexError(f"rule {rule} out of range [0, {self.n_rules})")
