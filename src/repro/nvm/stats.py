"""Access counters collected by a simulated memory."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class MemoryStats:
    """Cumulative counters for one :class:`~repro.nvm.memory.SimulatedMemory`.

    All counters are monotonically increasing; use :meth:`snapshot` and
    :meth:`delta` to measure a region of interest.
    """

    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    lines_read: int = 0
    lines_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    writebacks: int = 0
    flush_ops: int = 0
    flushed_lines: int = 0
    #: Media time: line fetches, dirty write-backs and flushed lines.
    device_ns: float = 0.0
    #: Bytes CRC-sealed by the MediaGuard at pool flushes.
    seal_bytes: int = 0
    #: Bytes re-read (and retried) by MediaGuard scrub passes.
    scrub_bytes: int = 0

    def snapshot(self) -> "MemoryStats":
        """Return an independent copy of the current counter values."""
        return MemoryStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, earlier: "MemoryStats") -> "MemoryStats":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        return MemoryStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "MemoryStats") -> "MemoryStats":
        """Return the element-wise sum of two counter sets."""
        return MemoryStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of line touches served by the CPU cache (0 when idle)."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def as_dict(self) -> dict[str, float]:
        """Return the counters as a plain dictionary (for reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
