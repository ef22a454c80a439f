"""LRU line-cache model sitting between the CPU and a simulated device.

The cache is what turns *layout* into *performance* in this simulator: two
systems that touch the same number of bytes can differ by an order of
magnitude in simulated time depending on whether their touches hit cached
lines.  This is exactly the mechanism behind the paper's pruning/pool
design -- rules packed contiguously in the DAG pool share 256-byte Optane
lines, while scattered allocations miss on nearly every hop.
"""

from __future__ import annotations

from collections import OrderedDict


class LineCache:
    """A write-back, write-allocate LRU cache of device lines.

    Args:
        capacity_bytes: Total cache capacity.  Defaults to 1 MiB, a stand-in
            for the portion of the CPU cache hierarchy available to the
            analytics working set.
        line_size: Size of one cached line; must equal the device's media
            granularity so that miss counts translate directly into media
            accesses.
    """

    def __init__(self, capacity_bytes: int = 1 << 20, line_size: int = 64) -> None:
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        self.line_size = line_size
        self.capacity_lines = max(1, capacity_bytes // line_size)
        # line_id -> dirty flag; insertion order is recency order (LRU first).
        self._lines: OrderedDict[int, bool] = OrderedDict()

    def __len__(self) -> int:
        return len(self._lines)

    def access_many(
        self, first_line: int, last_line: int, dirty: bool
    ) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
        """Touch lines ``first_line..last_line`` (inclusive) in order.

        A hit moves the line to the MRU end (a dirty touch marks it
        dirty; a clean one never launders it); a miss inserts it,
        evicting the LRU line when full.  One pass returns the aggregates
        the batched cost model consumes directly:

        * ``n_hits`` -- how many of the lines were cache hits,
        * ``miss_runs`` -- maximal runs of consecutive missing lines as
          ``(start_line, length)`` pairs, in access order,
        * ``evictions`` -- dirty write-backs as ``(miss_line, victim_line)``
          pairs, in eviction order, where ``miss_line`` is the missing line
          whose insertion evicted ``victim_line``.

        A line evicted early in the span and touched again later in the
        same span misses on the second touch, exactly as a per-line loop
        would observe.
        """
        lines = self._lines
        capacity = self.capacity_lines
        n_hits = 0
        miss_runs: list[tuple[int, int]] = []
        evictions: list[tuple[int, int]] = []
        run_start = 0
        run_len = 0
        for line in range(first_line, last_line + 1):
            if line in lines:
                if dirty:
                    lines[line] = True
                lines.move_to_end(line)
                n_hits += 1
                if run_len:
                    miss_runs.append((run_start, run_len))
                    run_len = 0
            else:
                if len(lines) >= capacity:
                    victim, victim_dirty = lines.popitem(last=False)
                    if victim_dirty:
                        evictions.append((line, victim))
                lines[line] = dirty
                if run_len:
                    run_len += 1
                else:
                    run_start = line
                    run_len = 1
        if run_len:
            miss_runs.append((run_start, run_len))
        return n_hits, miss_runs, evictions

    def invalidate_all(self) -> None:
        """Drop every cached line (used when simulating a crash)."""
        self._lines.clear()
