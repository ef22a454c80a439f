"""Byte-addressable simulated memory with deterministic cost accounting.

A :class:`SimulatedMemory` is the load/store surface every persistent data
structure in this library is built on.  Each ``read``/``write`` call:

1. rounds the touched byte range up to device lines,
2. runs each line through an LRU :class:`~repro.nvm.cache.LineCache`,
3. charges a hit 1 ns and a miss by the one miss rule
   (:meth:`SimulatedMemory._miss`) to a shared :class:`SimulatedClock`,
   at the prices of one :class:`LinePrices` record derived from the
   memory's :class:`~repro.nvm.device.DeviceProfile`, with a
   sequential-access discount when a miss continues the previous line.

Because the clock is shared, several memories (a DRAM and an NVM, say) can
participate in one experiment and the resulting ``clock.ns`` is directly
comparable across systems -- which is how every figure in the paper is a
ratio of two configurations.

Crash semantics (ADR): a persistent memory that crashes reverts to the
image captured by its most recent :meth:`SimulatedMemory.flush`.  This
matches the paper's phase-level checkpoint model, where recovery restarts
from the last completed phase and overwrites dirty intermediate state.

Fault injection: a :class:`~repro.nvm.faults.FaultPlan` armed via
:meth:`SimulatedMemory.arm_faults` observes every write/flush event and
can make a flush *non-atomic* -- persisting only a chosen subset and
ordering of the dirty lines (cut mid-line at the device's atomic persist
unit) before raising :class:`~repro.errors.CrashPoint`.  A subsequent
``crash()`` then reveals the torn image, which is what the recovery
layer's checksums and ping-pong slots are hardened against.
"""

from __future__ import annotations

import math
import mmap
import zlib
from pathlib import Path
from typing import NamedTuple

from repro.errors import InvalidAccessError, MediaError
from repro.kernels.core import Kernels
from repro.kernels.core import pack_values as _pack_values
from repro.kernels.core import typed_array as _typed_array
from repro.nvm.cache import LineCache
from repro.nvm.device import DeviceProfile
from repro.nvm.stats import MemoryStats


#: :meth:`SimulatedClock.advance_window` serves clocks below ``2**52``,
#: where the grid step is at most half a nanosecond, so integer adds are
#: exact and ``CPU_OP_NS`` rounds to a fixed step per binade.
_WINDOW_LIMIT = float(1 << 52)
#: Grid points per binade (``2**53``): a binade's values are
#: ``[2**52, 2**53)`` times its grid step.
_GRID = 1 << 53


class SimulatedClock:
    """A monotonically advancing nanosecond counter shared by devices.

    The clock also offers a tiny CPU cost model (:meth:`cpu`) so that
    compute-heavy inner loops (hash probing, comparisons, sorting) are not
    free relative to memory traffic.
    """

    #: Default cost of one abstract CPU operation, in nanoseconds.
    CPU_OP_NS = 1.2

    def __init__(self) -> None:
        self.ns: float = 0.0

    def advance(self, ns: float) -> None:
        """Move the clock forward by ``ns`` nanoseconds."""
        if ns < 0:
            raise ValueError("time cannot move backwards")
        self.ns += ns

    def cpu(self, ops: int | float) -> None:
        """Charge ``ops`` abstract CPU operations as one add of ``ops * CPU_OP_NS``."""
        self.ns += ops * self.CPU_OP_NS

    def advance_window(self, int_ns: int, cpu_ops: int) -> bool:
        """Apply a window of adds in closed form, or decline untouched.

        The window is ``cpu_ops`` single ``CPU_OP_NS`` adds (``cpu(1)``
        calls) and integer-valued adds summing to ``int_ns``, in any
        interleaving.  With ``2**k <= ns < 2**(k+1)``, every add whose
        result stays below ``2**(k+1)`` lands on the binade's grid of
        ``u = 2**(k-52)``: an integer add is exact, and a ``CPU_OP_NS``
        add rounds to the same step ``r_k`` from every grid point unless
        ``CPU_OP_NS / u`` sits exactly halfway between two grid points.
        So the window ends at ``ns + int_ns + cpu_ops * r_k`` whatever
        its order, and that value is set here with ``==`` to every
        sequential order.  Returns ``False`` with ``ns`` unchanged when
        ``ns < 4`` or ``ns >= 2**52``, when the step is a tie, or when
        the window would reach ``2**(k+1)``; the caller then charges the
        adds one by one (docs/cost_model.md, "Closed-form clock
        windows").
        """
        end = self._window_end(int_ns, cpu_ops)
        if end is None:
            return False
        self.ns = math.ldexp(*end)
        return True

    def window_fits(self, int_ns: int, cpu_ops: int) -> bool:
        """Whether :meth:`advance_window` would accept this window now."""
        return self._window_end(int_ns, cpu_ops) is not None

    def _window_end(self, int_ns: int, cpu_ops: int) -> tuple[int, int] | None:
        """The accepted window's end as ``(grid units, -shift)``, or ``None``."""
        ns = self.ns
        if not 4.0 <= ns < _WINDOW_LIMIT:
            return None
        mantissa, exponent = math.frexp(ns)
        shift = 53 - exponent  # grid points per ns, as a power of two
        num, den = float(self.CPU_OP_NS).as_integer_ratio()
        step, rem = divmod(num << shift, den)
        if 2 * rem == den:
            return None
        if 2 * rem > den:
            step += 1
        end = int(mantissa * _GRID) + (int_ns << shift) + cpu_ops * step
        if end >= _GRID:
            return None
        return end, -shift

    def advance_steps(self, int_prefix: list[int], cpu_prefix: list[int], step) -> None:
        """Apply a walk of steps, closed form wherever a window is accepted.

        Step ``j`` of the walk adds ``int_prefix[j+1] - int_prefix[j]``
        ns in integer-valued adds and ``cpu_prefix[j+1] - cpu_prefix[j]``
        ``CPU_OP_NS`` adds (both prefix lists start at 0);
        ``step(j)`` applies step ``j``'s adds one by one, in the walk's
        order.  The longest run of steps whose window
        :meth:`advance_window` accepts goes in closed form, and the step
        after it -- the one that reaches a power of two -- runs
        sequentially; then the rest of the walk is tried again.  So the
        end point is ``==`` to the sequential walk's, and a walk that
        straddles a power of two costs one sequential step per crossing.
        """
        n = len(int_prefix) - 1
        done = 0
        while done < n:
            base_int = int_prefix[done]
            base_cpu = cpu_prefix[done]
            if self.advance_window(int_prefix[n] - base_int, cpu_prefix[n] - base_cpu):
                return
            # The longest accepted prefix of the rest: steps done..last-1.
            last = done
            if self.window_fits(0, 0):
                hi = n - 1
                while last < hi:
                    mid = (last + hi + 1) // 2
                    if self.window_fits(int_prefix[mid] - base_int, cpu_prefix[mid] - base_cpu):
                        last = mid
                    else:
                        hi = mid - 1
                self.advance_window(int_prefix[last] - base_int, cpu_prefix[last] - base_cpu)
            step(last)
            done = last + 1


def charge_sequential_io(
    clock: SimulatedClock,
    profile: "DeviceProfile",
    nbytes: int,
    write: bool = False,
) -> float:
    """Charge the cost of streaming ``nbytes`` to/from a device.

    Used to model bulk disk I/O (loading a dataset, writing results back)
    without materializing a device image: the stream touches
    ``ceil(nbytes / line_size)`` lines, the first at random cost and the
    rest at the sequential rate.  Returns the nanoseconds charged.
    """
    if nbytes <= 0:
        return 0.0
    lines = -(-nbytes // profile.line_size)  # ceil division
    if write:
        cost = profile.write_ns + (lines - 1) * profile.seq_write_ns
    else:
        cost = profile.read_ns + (lines - 1) * profile.seq_read_ns
    clock.advance(cost)
    return cost


class LinePrices(NamedTuple):
    """Every per-line media price of one device, syscall included.

    Derived once per memory by :meth:`of`; the miss rule, the span rule
    and the flush charge read their prices from here and nowhere else.
    """

    fetch: float  # random line fetch
    seq_fetch: float  # fetch of the line after the previous miss
    writeback: float  # random dirty-victim write-back
    seq_writeback: float  # write-back of the line after the miss
    flush: float  # one flushed line (CLWB + fence)

    @classmethod
    def of(cls, profile: DeviceProfile) -> "LinePrices":
        syscall = profile.syscall_ns
        return cls(
            profile.read_ns + syscall,
            profile.seq_read_ns + syscall,
            profile.write_ns + syscall,
            profile.seq_write_ns + syscall,
            profile.flush_ns + syscall,
        )


class SimulatedMemory:
    """A fixed-size byte array fronted by a line cache and a cost model.

    Args:
        profile: The device cost table.
        size: Capacity in bytes.
        clock: Shared simulated clock; a private one is created if omitted.
        cache_bytes: Capacity of the CPU-cache model for this device.
        name: Optional label used in error messages and reports.
        reference: Charge every access through the per-line reference
            loop (:meth:`_touch`) and stand the kernels down.  Accounting
            is identical to the default fast path; the differential
            suites in ``tests/test_batch_equivalence.py`` and
            ``tests/test_kernel_equivalence.py`` hold the two together.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        size: int,
        clock: SimulatedClock | None = None,
        cache_bytes: int = 1 << 20,
        name: str | None = None,
        track_wear: bool = False,
        reference: bool = False,
    ) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.profile = profile
        self._prices = LinePrices.of(profile)
        self.size = size
        self.clock = clock if clock is not None else SimulatedClock()
        self.name = name or profile.name
        self.stats = MemoryStats()
        # Anonymous mmap instead of bytearray: pages are zero on demand,
        # so creating a large device is O(1) instead of an eager memset.
        # Every access below uses exact-length slice reads/writes, which
        # mmap supports identically.  The crash image is a second such
        # mmap, and :meth:`crash` touches only the lines of its restore
        # set, so neither map is ever faulted in as a whole.
        self._buf = mmap.mmap(-1, size)
        self._cache = LineCache(cache_bytes, profile.line_size)
        self._media_lines: set[int] = set()  # lines that ever reached media
        self._last_media_line: int | None = None
        #: Lines dirtied since the last flush.  Every charged writer of
        #: ``_buf`` registers its lines here (the kernels' inline stores
        #: through a hoisted ``add``, so the set is mutated in place and
        #: never replaced).
        self._dirty_lines: set[int] = set()
        #: The rest of :meth:`crash`'s restore set: lines whose bytes may
        #: differ from the crash image although they are not dirty.  Those
        #: are lines stored uncharged (:meth:`_store`: ``poke`` outside the
        #: flight recorder's window, sticky read corruption, media-fault
        #: patches, a loaded file image on a volatile device), a detached
        #: recorder's window, and -- on a volatile device, whose crash
        #: image is all zeros -- every line a flush cleaned.  Only
        #: :meth:`crash` empties it.
        self._restore_lines: set[int] = set()
        #: Lines whose latest media program came from an eviction
        #: write-back; ``flush`` skips these in wear accounting so one
        #: logical program is never counted twice.
        self._evict_programmed: set[int] = set()
        #: The crash image of a persistent device; ``None`` until first
        #: written, standing for all zeros.  A volatile device never has one.
        self._flushed_image: mmap.mmap | None = None
        self._backing_path: Path | None = None
        #: Armed fault-injection plan (see repro.nvm.faults); None almost
        #: always -- every hook below is guarded by a None check so the
        #: hot paths pay one attribute load when faults are off.
        self._fault_plan = None
        #: Completed-flush counter.  Crash-consistent writers (the pool
        #: directory's ping-pong arenas) compare epochs to know whether a
        #: span written earlier has since reached media.
        self.flush_epoch = 0
        #: Bumped whenever the image may change outside the charged
        #: write path (:meth:`crash`, :meth:`poke` outside the flight
        #: recorder's window, :meth:`attach_file`) and whenever
        #: :attr:`kernel_ready` goes False (:meth:`arm_faults`,
        #: :meth:`attach_integrity`).  Host-side decode caches of sealed
        #: regions (``PrunedDag``) serve only while it holds the value
        #: they were filled under, so they never return bytes the device
        #: no longer holds.
        self.image_epoch = 0
        self._reference = reference
        self._touch_span = self._touch if reference else self._touch_batch
        #: Per-line media program counts (endurance accounting); only
        #: populated when ``track_wear`` is enabled.
        self.wear: dict[int, int] | None = {} if track_wear else None
        #: Attached :class:`~repro.nvm.flightrec.FlightRecorder`, if any.
        #: Its window persists by riding :meth:`flush` (uncharged, like
        #: the integrity reseal); ``None`` almost always.
        self._flightrec = None
        #: Integrity mirror (line -> CRC32 of the line's bytes) attached
        #: by a :class:`~repro.nvm.scrub.MediaGuard`; ``None`` almost
        #: always, so unprotected reads pay one attribute load.
        self._integrity_seals: dict[int, int] | None = None
        #: Lines exempt from program-time resealing (the guard's own
        #: on-media tables).
        self._integrity_exclude: frozenset[int] | set[int] = frozenset()
        #: Depth of :meth:`read_unverified` nesting; > 0 suspends seal
        #: verification (scrub reads damaged lines on purpose).
        self._verify_suspended = 0
        #: Bulk-kernel state for this device (see :mod:`repro.kernels`),
        #: or ``None`` under the reference model.
        self.kernels = None if reference else Kernels(self)

    # ------------------------------------------------------------------
    # Load/store interface
    # ------------------------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``, charging device cost.

        :meth:`charge_read` charges the span; this adds the bytes, the
        fault-plan hooks and seal verification.
        """
        self.charge_read(offset, size)
        end = offset + size
        data = self._buf[offset:end]
        plan = self._fault_plan
        if plan is not None:
            plan.reads += 1
            if plan.on_read is not None:
                plan.on_read(self, offset, size)
            if plan.has_pending_corruption:
                data = self._corrupt_read(offset, data)
            if plan.media_faults:
                data = self._media_read(offset, data)
        if self._integrity_seals is not None and size:
            self._verify_window(offset, data)
        return data

    def charge_read(self, offset: int, size: int) -> None:
        """Charge ``read(offset, size)`` without moving the bytes.

        A one-line span is charged here: an LRU hit costs 1 ns, a miss
        goes through :meth:`_miss` (always a fetch).  Multi-line spans
        are charged by :meth:`_touch_batch`, and every access by
        :meth:`_touch` under ``reference=True``.  Called alone it skips
        the fault hooks and seal checks of :meth:`read`, so callers that
        serve the bytes themselves do so only while :attr:`kernel_ready`.
        """
        end = offset + size
        if offset < 0 or size < 0 or end > self.size:
            self._check_range(offset, size)
        line_size = self.profile.line_size
        first = offset // line_size
        stats = self.stats
        if self._reference or size == 0 or (end - 1) // line_size != first:
            self._touch_span(offset, size, False)
        else:
            stats.lines_read += 1
            cache_lines = self._cache._lines
            if first in cache_lines:
                cache_lines.move_to_end(first)
                stats.cache_hits += 1
                self.clock.ns += 1.0
            else:
                self.clock.ns += self._miss(first, False)
        stats.read_ops += 1
        stats.bytes_read += size

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Write ``data`` at ``offset``, charging device cost.

        A write that covers an entire line does not pay the fetch-on-miss
        cost (write-allocate without fetch): the old contents are fully
        overwritten, as a page cache or WPQ buffer would recognize.  Nor
        does a miss on a line that never reached media.  A one-line
        write is charged here (a hit inline, a miss by :meth:`_miss`);
        spans and the reference model are charged as in :meth:`read`.
        """
        if self._fault_plan is not None:
            self._fault_plan.on_write(self)
        size = len(data)
        end = offset + size
        if offset < 0 or end > self.size:
            self._check_range(offset, size)
        line_size = self.profile.line_size
        first = offset // line_size
        stats = self.stats
        if self._reference or size == 0 or (end - 1) // line_size != first:
            self._touch_span(offset, size, True)
        else:
            stats.lines_written += 1
            cache_lines = self._cache._lines
            if first in cache_lines:
                cache_lines.move_to_end(first)
                cache_lines[first] = True
                self._dirty_lines.add(first)
                self._evict_programmed.discard(first)
                stats.cache_hits += 1
                self.clock.ns += 1.0
            else:
                fetch = size != line_size and first in self._media_lines
                self.clock.ns += self._miss(first, True, fetch)
        stats.write_ops += 1
        stats.bytes_written += size
        self._buf[offset:end] = data

    @property
    def kernel_ready(self) -> bool:
        """Whether hoisted loops and kernels may bypass :meth:`read`/:meth:`write`.

        False under the per-line reference model, while a fault plan is
        armed (the hoisted loops skip the per-access hooks and
        read-corruption sites), or while an integrity mirror is attached
        (they would skip seal verification); callers then take the scalar
        path, which handles all three.
        """
        return (
            self.kernels is not None
            and self._fault_plan is None
            and self._integrity_seals is None
        )

    def read_array(self, offset: int, count: int, elem_size: int, signed: bool = False):
        """Read ``count`` little-endian integer fields as a typed sequence.

        Accounting identical to ``read(offset, count * elem_size)``; the
        decode is one bulk C-level conversion (no per-element unpack).
        """
        raw = self.read(offset, count * elem_size)
        return _typed_array(raw, elem_size, signed)

    def write_array(self, offset: int, values, elem_size: int, signed: bool = False) -> None:
        """Write integer fields from a sequence in one bulk transfer.

        Accounting identical to ``write(offset, <packed bytes>)``.
        """
        self.write(offset, _pack_values(values, elem_size, signed))

    def read_uint(self, offset: int, size: int, signed: bool = False) -> int:
        """Read one little-endian integer field: a :meth:`read`."""
        return int.from_bytes(self.read(offset, size), "little", signed=signed)

    def write_uint(
        self, offset: int, size: int, value: int, signed: bool = False
    ) -> None:
        """Write one little-endian integer field: a :meth:`write`."""
        self.write(offset, value.to_bytes(size, "little", signed=signed))

    def rmw_add(self, offset: int, size: int, delta: int, signed: bool = False) -> int:
        """Add ``delta`` to one little-endian integer field.

        A :meth:`read` followed by a :meth:`write` of the new value, so
        charges, fault hooks and overflow (``OverflowError`` before the
        write) are theirs.  Returns the new value.
        """
        value = int.from_bytes(self.read(offset, size), "little", signed=signed) + delta
        self.write(offset, value.to_bytes(size, "little", signed=signed))
        return value

    def rmw_add_each(
        self, pairs, size: int, signed: bool = False, collect: bool = False
    ) -> list[int] | None:
        """Apply :meth:`rmw_add` at many ``(offset, delta)`` sites.

        Accounting is identical to issuing the calls one by one, which
        is what happens unless :attr:`kernel_ready`.  Otherwise this is
        the hoisted hot loop (scattered counter updates are the
        per-token hot loop of the analytics baselines, and the call
        chain per element costs more wall-clock than the charge itself).
        Like the loops in ``repro.kernels`` it inlines only the hit --
        the read half and the write half of a cached site cost 1 ns
        each -- and sends a miss through :meth:`_miss`.  It is held to
        the scalar calls by ``tests/test_batch_equivalence.py``
        (``test_fused_rmw_equivalence``, the overflow regression) and
        ``tests/test_kernel_equivalence.py``.

        With ``collect=True``, returns the post-update values in site
        order (the traversal engine consumes in-degree decrements this
        way); the default skips the list entirely.
        """
        if not self.kernel_ready:
            values = [
                self.rmw_add(offset, size, delta, signed=signed)
                for offset, delta in pairs
            ]
            return values if collect else None
        line_size = self.profile.line_size
        device_size = self.size
        stats = self.stats
        cache_lines = self._cache._lines
        move_to_end = cache_lines.move_to_end
        dirty_add = self._dirty_lines.add
        ep_discard = self._evict_programmed.discard
        miss = self._miss
        buf = self._buf
        from_bytes = int.from_bytes
        size1 = size - 1
        values: list[int] | None = [] if collect else None
        #: Deferred buffer updates (offset -> accumulated delta).  When the
        #: caller does not collect post-update values, no observable state
        #: depends on intermediate buffer contents, so each distinct site
        #: pays one int decode/encode instead of one per visit -- a large
        #: saving for Zipf-distributed counter traffic.  Charging still
        #: happens per visit, in order.
        pend: dict[int, int] | None = None if collect else {}
        pend_get = pend.get if pend is not None else None
        #: Sign of the deltas pended so far (0 until the first non-zero).
        #: Same-sign partial sums are monotone, so a pended sum overflows
        #: exactly when some one-by-one call would; a sign change could
        #: cross a width limit and come back, so it ends pending.
        sign = 0
        total = 0.0
        hits = 0
        n_ops = 0

        def sync() -> None:
            nonlocal total, hits, n_ops
            if pend:
                # to_bytes raises OverflowError where a scalar write would.
                for p_off, p_delta in pend.items():
                    p_end = p_off + size
                    p_value = (
                        from_bytes(buf[p_off:p_end], "little", signed=signed)
                        + p_delta
                    )
                    buf[p_off:p_end] = p_value.to_bytes(size, "little", signed=signed)
                pend.clear()
            self.clock.ns += total
            stats.cache_hits += hits + n_ops
            stats.lines_read += n_ops
            stats.lines_written += n_ops
            stats.read_ops += n_ops
            stats.write_ops += n_ops
            stats.bytes_read += n_ops * size
            stats.bytes_written += n_ops * size
            total = 0.0
            hits = n_ops = 0

        try:
            for offset, delta in pairs:
                if pend is not None and delta:
                    if not sign:
                        sign = 1 if delta > 0 else -1
                    elif (delta > 0) != (sign > 0):
                        sync()
                        pend = None
                if offset < 0 or offset + size > device_size:
                    raise InvalidAccessError(
                        f"{self.name}: access [{offset}, {offset + size}) "
                        f"outside device of {device_size} bytes"
                    )
                first = offset // line_size
                if (offset + size1) // line_size != first:
                    # Line-straddling field: sync and take the scalar path.
                    sync()
                    value = self.rmw_add(offset, size, delta, signed=signed)
                    if values is not None:
                        values.append(value)
                    continue
                # The write half is a dirty hit on the line the read half
                # just cached, so a site is one hit or one fetch miss, plus
                # 1 ns for the write.
                if first in cache_lines:
                    hits += 1
                    move_to_end(first)
                    total += 2.0
                    if not cache_lines[first]:
                        # A dirty cached line is never in the
                        # evict-programmed set, so the dirty transition
                        # (and its bookkeeping) happens at most once.
                        cache_lines[first] = True
                        dirty_add(first)
                        ep_discard(first)
                else:
                    total += miss(first, True) + 1.0
                if pend is not None:
                    pend[offset] = pend_get(offset, 0) + delta
                else:
                    end = offset + size
                    value = from_bytes(buf[offset:end], "little", signed=signed) + delta
                    buf[offset:end] = value.to_bytes(size, "little", signed=signed)
                    if values is not None:
                        values.append(value)
                n_ops += 1
        finally:
            sync()
        return values

    def fill(self, offset: int, size: int, value: int = 0) -> None:
        """Write ``size`` copies of ``value`` starting at ``offset``.

        Charges exactly like one :meth:`write` of ``size`` bytes.  A fill
        within one line *is* that write; a longer one never materializes
        a ``size``-byte pattern for non-zero values, and zero fills use
        ``bytes(size)`` (calloc-backed) directly.
        """
        line_size = self.profile.line_size
        if 0 <= size <= line_size - offset % line_size:
            self.write(offset, bytes([value]) * size)
            return
        if self._fault_plan is not None:
            self._fault_plan.on_write(self)
        self._check_range(offset, size)
        self._touch_span(offset, size, True)
        stats = self.stats
        stats.write_ops += 1
        stats.bytes_written += size
        if value == 0:
            self._buf[offset : offset + size] = bytes(size)
        else:
            chunk = bytes([value]) * min(size, 1 << 16)
            step = len(chunk)
            for start in range(offset, offset + size, step):
                end = min(start + step, offset + size)
                self._buf[start:end] = chunk[: end - start]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Persist all lines dirtied since the previous flush.

        Returns the number of lines flushed.  For a persistent device this
        also updates the crash-recovery image incrementally (and the
        backing file when one is attached).  Flushing a volatile device
        persists nothing: its lines leave dirty tracking for the restore
        set, since its crash image stays all zeros.
        """
        # Sorted snapshot: per-line flush cost is order-independent, but a
        # deterministic (and physically sequential) write-back order keeps
        # the whole pipeline reproducible under ND003's discipline.
        dirty_lines = sorted(self._dirty_lines)
        plan = self._fault_plan
        if plan is not None:
            tear = plan.on_flush(self, dirty_lines)
            if tear is not None:
                self._apply_torn_flush(plan, *tear)  # raises CrashPoint
        flushed = len(dirty_lines)
        self._charge_flushed(flushed)
        if flushed:
            # A line already programmed by an eviction write-back holds its
            # final data on media; flushing it persists cache state but is
            # not a second media program for endurance purposes.
            already_programmed = self._evict_programmed
            programmed = (
                [line for line in dirty_lines if line not in already_programmed]
                if already_programmed
                else dirty_lines
            )
            if self.wear is None and self._integrity_seals is None:
                self._media_lines.update(programmed)
            else:
                for line in programmed:
                    self._program_line(line)
        self._evict_programmed.clear()
        self.stats.flush_ops += 1
        if self.profile.persistent:
            self._persist(self._byte_runs(dirty_lines))
            recorder = self._flightrec
            if recorder is not None:
                # The flight-recorder window rides this flush into the
                # crash image.  Its lines are never dirty (all recorder
                # writes are uncharged pokes), so this copy is invisible
                # to flush charging and to the fault plan's accounting.
                recorder.on_flush(self)
                self._persist([recorder.window])
        else:
            self._restore_lines.update(dirty_lines)
        cache_lines = self._cache._lines
        for line in dirty_lines:
            if line in cache_lines:
                cache_lines[line] = False
        self._dirty_lines.clear()
        self.flush_epoch += 1
        return flushed

    def _apply_torn_flush(
        self,
        plan,
        ordered_lines: list[int],
        full_lines: int,
        partial_bytes: int,
    ) -> None:
        """Persist a torn prefix of this flush, then die.

        Models power loss mid-flush: ``ordered_lines[:full_lines]`` reach
        media whole, the next line persists only its first
        ``partial_bytes`` (rounded down to the device's atomic unit), and
        everything else stays dirty.  Dirty tracking, the cache, and the
        flush epoch are deliberately left untouched -- the machine is
        dead; the caller observes the wreckage via :meth:`crash`.
        """
        profile = self.profile
        line_size = profile.line_size
        persisted = ordered_lines[:full_lines]
        cut_line = ordered_lines[full_lines] if full_lines < len(ordered_lines) else None
        cut_bytes = 0
        if cut_line is not None and partial_bytes > 0:
            unit = max(profile.atomic_unit, 1)
            cut_bytes = min((partial_bytes // unit) * unit, line_size)
        self._charge_flushed(len(persisted) + (1 if cut_bytes else 0))
        if profile.persistent:
            size = self.size
            spans = [
                (line * line_size, min((line + 1) * line_size, size))
                for line in persisted
            ]
            if cut_bytes:
                start = cut_line * line_size
                spans.append((start, min(start + cut_bytes, size)))
            self._persist(spans)
            already_programmed = self._evict_programmed
            for line in persisted:
                if line not in already_programmed:
                    self._program_line(line)
            if cut_bytes and cut_line not in already_programmed:
                self._program_line(cut_line)
            recorder = self._flightrec
            if recorder is not None:
                # Power died mid-flush: the recorder window persists only
                # a prefix proportional to what the tear itself persisted,
                # so the newest slot may land half-written on media.  The
                # decoder classifies such a slot as a typed torn record.
                recorder.on_flush(self)
                lo, hi = recorder.window
                budget = len(persisted) * line_size + cut_bytes
                self._persist([(lo, min(hi, lo + budget))])
        plan.raise_torn(self, len(persisted))

    def crash(self) -> None:
        """Simulate a power failure.

        A persistent device reverts to its last flushed image (or zeroes if
        it was never flushed); a volatile device loses everything.  The
        line cache is invalidated either way.

        Only the restore set is rewritten: the dirty lines, the lines of
        ``_restore_lines`` and the flight recorder's window.  Every other
        line already holds its crash-image bytes, because every charged
        writer of ``_buf`` registers its line in ``_dirty_lines`` and
        every uncharged one goes through :meth:`poke` (inside this class,
        :meth:`_store`).  So the result is byte for byte that of copying
        the whole image, at a cost in lines written since the last crash
        rather than in device size.
        """
        image = self._flushed_image
        buf = self._buf
        for start, end in self._take_restore_runs():
            buf[start:end] = image[start:end] if image is not None else bytes(end - start)
        self._cache.invalidate_all()
        self._dirty_lines.clear()
        self._evict_programmed.clear()
        self._last_media_line = None
        self.image_epoch += 1

    def attach_file(self, path: str | Path, load: bool = False) -> None:
        """Attach a backing file that holds a persistent device's crash image.

        The file is sized to the device and written whole here, once;
        from then on every write to the crash image (a flush's runs and
        recorder window, a torn flush's persisted prefix) also lands at
        its offset in the file.

        Args:
            path: Backing file location.
            load: When ``True`` and the file exists, load its contents as
                the current (and flushed) image -- i.e. reopen a pool.
        """
        path = Path(path)
        self._backing_path = None  # a previous file receives nothing more
        if load and path.exists():
            data = path.read_bytes()
            if len(data) > self.size:
                raise InvalidAccessError(
                    f"backing image ({len(data)} B) larger than device ({self.size} B)"
                )
            self._store(0, data)
            if self.profile.persistent:
                # The whole current state becomes the crash image.  Only
                # the restore set, which now holds the loaded prefix, can
                # differ from the old one.
                self._persist(self._take_restore_runs())
            self.image_epoch += 1
        self._backing_path = path
        if self.profile.persistent:
            with path.open("wb") as f:
                if self._flushed_image is None:
                    f.truncate(self.size)
                else:
                    f.write(self._flushed_image)

    @property
    def dirty_line_count(self) -> int:
        """Number of lines dirtied since the last flush."""
        return len(self._dirty_lines)

    def dirty_lines(self) -> list[int]:
        """Line indices dirtied since the last flush, ascending.

        The media guard reseals exactly this set on ``pool.flush``.
        """
        return sorted(self._dirty_lines)

    # ------------------------------------------------------------------
    # Fault injection (see repro.nvm.faults)
    # ------------------------------------------------------------------

    def arm_faults(self, plan) -> None:
        """Attach a :class:`~repro.nvm.faults.FaultPlan` to this device.

        While armed, every charged write and every flush reports to the
        plan, which may tear the flush or raise
        :class:`~repro.errors.CrashPoint`; reads surface any corruption
        sites the plan carries.  Arming replaces a previous plan.
        """
        self._fault_plan = plan
        self.image_epoch += 1

    def disarm_faults(self) -> None:
        """Detach the fault plan; subsequent accesses run clean."""
        self._fault_plan = None

    @property
    def fault_plan(self):
        """The armed :class:`~repro.nvm.faults.FaultPlan`, or ``None``."""
        return self._fault_plan

    def _corrupt_read(self, offset: int, data: bytes) -> bytes:
        """Apply pending read-corruption sites overlapping this read."""
        hits = self._fault_plan.take_corruption_hits(offset, len(data))
        if not hits:
            return data
        out = bytearray(data)
        for rel, mask, sticky in hits:
            for i, m in enumerate(mask):
                out[rel + i] ^= m
            if sticky:
                # Poison the media image too: the corruption is a hard
                # error, not a transient glitch, so re-reads see it.
                self._store(offset + rel, out[rel : rel + len(mask)])
        return bytes(out)

    def _media_read(self, offset: int, data: bytes) -> bytes:
        """Apply the plan's media-fault schedule to this read.

        The plan computes what the damaged cells return and which patches
        are persistent; storing those patches into the device image stays
        this class's job (ND001: fault code never touches ``_buf``).
        """
        patched, pokes = self._fault_plan.media_hits(
            offset, data, self._dirty_lines, self.profile.line_size
        )
        for abs_off, chunk in pokes:
            self._store(abs_off, chunk)
        return patched

    # ------------------------------------------------------------------
    # Integrity verification (see repro.nvm.scrub)
    # ------------------------------------------------------------------

    def attach_integrity(
        self, seals: dict[int, int], exclude: "frozenset[int] | set[int]" = frozenset()
    ) -> None:
        """Attach a CRC mirror: every verified read checks its seals.

        Args:
            seals: Live mapping of line index -> expected CRC32 of that
                line's bytes.  Reads spanning a sealed, clean line verify
                it against this mirror and raise
                :class:`~repro.errors.MediaError` on mismatch.
            exclude: Lines never auto-sealed at program time (the guard's
                own on-media tables; sealing them from inside table
                maintenance would never converge).

        While attached, every media program event (flush write-back or
        cache eviction) reseals the programmed line with the CRC of the
        bytes it stores, so *all* persisted content is verifiable -- not
        just lines that happened to be dirty at a pool flush.
        Verification models the DIMM's always-on ECC check: it adds no
        simulated charge, it only converts garbage into a typed error.
        """
        self._integrity_seals = seals
        self._integrity_exclude = exclude
        self.image_epoch += 1

    def detach_integrity(self) -> None:
        """Detach the CRC mirror; subsequent reads skip verification."""
        self._integrity_seals = None
        self._integrity_exclude = frozenset()

    # ------------------------------------------------------------------
    # Flight recorder (see repro.nvm.flightrec)
    # ------------------------------------------------------------------

    def attach_flight_recorder(self, recorder) -> None:
        """Attach a :class:`~repro.nvm.flightrec.FlightRecorder`.

        While attached, every flush copies the recorder's window into
        the crash image after the dirty lines land (a torn flush copies
        a bounded prefix).  The copy -- like all recorder writes -- is
        uncharged and invisible to dirty tracking, so attaching cannot
        change a single charged nanosecond.  Attaching replaces a
        previous recorder.

        Attaching also formats the region at mount: the recorder window
        (freshly-poked header included) is copied straight into the
        crash image, so a crash -- even a fully torn very first flush --
        always reveals a decodable, possibly empty, ring.  Materializing
        an all-zero image for a never-flushed device is behaviour-
        preserving: :meth:`crash` already zero-fills in that case.
        """
        self.detach_flight_recorder()
        self._flightrec = recorder
        if recorder is not None and self.profile.persistent:
            self._persist([recorder.window])

    def detach_flight_recorder(self) -> None:
        """Detach the flight recorder; the window stops persisting.

        Its window joins the restore set: pokes it took since the last
        flush may differ from the crash image, and :meth:`crash` no
        longer restores the window as a whole.
        """
        recorder = self._flightrec
        if recorder is not None:
            lo, hi = recorder.window
            self._restore_lines.update(self.profile.lines_spanned(lo, hi - lo))
        self._flightrec = None

    def read_unverified(self, offset: int, size: int) -> bytes:
        """Charged read with seal verification suspended.

        The scrub pass uses this to inspect suspect lines without
        tripping the very :class:`~repro.errors.MediaError` it exists to
        repair.  Charging is identical to :meth:`read`.  Fenced outside
        ``repro/nvm/`` by lint rule ND012.
        """
        self._verify_suspended += 1
        try:
            return self.read(offset, size)
        finally:
            self._verify_suspended -= 1

    def _verify_window(self, offset: int, data: bytes) -> None:
        """Check every sealed, clean line spanned by a completed read.

        The returned window is overlaid on the line's stored bytes before
        hashing so purely-transient faults (which never touch the image)
        are caught too.  Dirty lines are skipped: their seals are either
        refreshed or invalidated at the next flush.
        """
        if self._verify_suspended:
            return
        seals = self._integrity_seals
        line_size = self.profile.line_size
        end = offset + len(data)
        dirty = self._dirty_lines
        for line in range(offset // line_size, (end - 1) // line_size + 1):
            expected = seals.get(line)
            if expected is None or line in dirty:
                continue
            start = line * line_size
            stop = min(start + line_size, self.size)
            chunk = bytearray(self._buf[start:stop])
            lo = max(offset, start)
            hi = min(end, stop)
            chunk[lo - start : hi - start] = data[lo - offset : hi - offset]
            # Seals store crc32-or-1 (0 means unsealed); mirror the
            # mapping here so a true CRC of zero still verifies.
            if (zlib.crc32(bytes(chunk)) or 1) != expected:
                exc = MediaError(
                    f"{self.name}: CRC seal mismatch on line {line} "
                    f"(read [{offset}, {end}))",
                    offset=lo,
                    line=line,
                    kind="checksum",
                )
                exc.memory = self  # type: ignore[attr-defined]
                raise exc

    # ------------------------------------------------------------------
    # Raw access (no cost) -- verification and test support only
    # ------------------------------------------------------------------

    def peek(self, offset: int, size: int) -> bytes:
        """Read without charging cost.  For tests and integrity checks."""
        self._check_range(offset, size)
        return bytes(self._buf[offset : offset + size])

    def poke(self, offset: int, data: bytes) -> None:
        """Write without charging cost.  For tests and image loading."""
        end = offset + len(data)
        self._check_range(offset, len(data))
        recorder = self._flightrec
        if recorder is not None and (
            recorder.window[0] <= offset and end <= recorder.window[1]
        ):
            # The flight recorder's own window holds nothing else, and
            # crash() restores it whole.
            self._buf[offset:end] = data
        else:
            self._store(offset, data)
            self.image_epoch += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise InvalidAccessError(
                f"{self.name}: access [{offset}, {offset + size}) outside "
                f"device of {self.size} bytes"
            )

    def _store(self, offset: int, data) -> None:
        """Store ``data`` uncharged and add its lines to the restore set."""
        size = len(data)
        self._buf[offset : offset + size] = data
        self._restore_lines.update(self.profile.lines_spanned(offset, size))

    def _byte_runs(self, lines: list[int]) -> list[tuple[int, int]]:
        """The ``(start, end)`` byte span of each run of consecutive ``lines``.

        ``lines`` is ascending; spans are clipped to the device.
        """
        line_size = self.profile.line_size
        n = len(lines)
        runs = []
        run_start = 0
        for i in range(1, n + 1):
            if i < n and lines[i] == lines[i - 1] + 1:
                continue
            runs.append(
                (lines[run_start] * line_size, min((lines[i - 1] + 1) * line_size, self.size))
            )
            run_start = i
        return runs

    def _take_restore_runs(self) -> list[tuple[int, int]]:
        """Empty :meth:`crash`'s restore set and return its byte runs.

        The set is ``_restore_lines``, the dirty lines and the flight
        recorder's window.  The dirty set is left as it is.
        """
        restore = self._restore_lines
        restore.update(self._dirty_lines)
        recorder = self._flightrec
        if recorder is not None:
            lo, hi = recorder.window
            restore.update(self.profile.lines_spanned(lo, hi - lo))
        runs = self._byte_runs(sorted(restore))
        restore.clear()
        return runs

    def _persist(self, spans: list[tuple[int, int]]) -> None:
        """Copy byte ``spans`` of the buffer into the crash image.

        Creates the image (all zeros, as a never-flushed device's crash
        image is) on first use, and writes each span at its offset in the
        backing file when one is attached.
        """
        image = self._flushed_image
        if image is None:
            image = self._flushed_image = mmap.mmap(-1, self.size)
        buf = self._buf
        for start, end in spans:
            image[start:end] = buf[start:end]
        path = self._backing_path
        if path is not None and spans:
            with path.open("r+b") as f:
                for start, end in spans:
                    if end > start:
                        f.seek(start)
                        f.write(image[start:end])

    def _program_line(self, line: int) -> None:
        """Count one media program of ``line`` (endurance accounting).

        With an integrity mirror attached the program also reseals the
        line: CRC generation rides the media write like DIMM ECC, so no
        simulated time is charged (only the guard's on-media table
        maintenance is charged work).
        """
        self._media_lines.add(line)
        if self.wear is not None:
            self.wear[line] = self.wear.get(line, 0) + 1
        seals = self._integrity_seals
        if seals is not None and line not in self._integrity_exclude:
            line_size = self.profile.line_size
            start = line * line_size
            stop = min(start + line_size, self.size)
            seals[line] = zlib.crc32(bytes(self._buf[start:stop])) or 1

    def _charge_flushed(self, lines: int) -> None:
        """Charge ``lines`` flushed lines at the record's flush price.

        The price is media time, so it goes into ``stats.device_ns`` as
        well as onto the clock.
        """
        if lines:
            cost = lines * self._prices.flush
            self.clock.advance(cost)
            self.stats.flushed_lines += lines
            self.stats.device_ns += cost

    def _miss(self, line: int, dirty: bool, fetch: bool = True) -> float:
        """The one miss rule: cache ``line``, return the ns it costs.

        A fetch is priced sequential when ``line`` follows the previous
        miss and random otherwise; ``fetch=False`` (a write that needs no
        media read) allocates for 1 ns instead.  A full cache pops its LRU
        line, and a dirty victim is written back -- sequentially when it
        is ``line + 1``, since the miss has just moved the media position
        to ``line``.  The counters, ``device_ns``, wear and the dirty and
        evict-programmed sets are updated here; the clock is left to the
        caller, whose hoisted loops add a run of charges at once.
        """
        prices = self._prices
        stats = self.stats
        stats.cache_misses += 1
        if fetch:
            last = self._last_media_line
            sequential = last is not None and line == last + 1
            cost = prices.seq_fetch if sequential else prices.fetch
            device = cost
        else:
            cost = 1.0
            device = 0.0
        self._last_media_line = line
        cache_lines = self._cache._lines
        if len(cache_lines) >= self._cache.capacity_lines:
            victim, victim_dirty = cache_lines.popitem(False)
            if victim_dirty:
                writeback = (
                    prices.seq_writeback if victim == line + 1 else prices.writeback
                )
                cost += writeback
                device += writeback
                stats.writebacks += 1
                self._program_line(victim)
                self._evict_programmed.add(victim)
        if device:
            stats.device_ns += device
        cache_lines[line] = dirty
        if dirty:
            self._dirty_lines.add(line)
            self._evict_programmed.discard(line)
        return cost

    def _touch(self, offset: int, size: int, dirty: bool) -> None:
        """Per-line reference cost model: cache each line, charge the clock.

        This is the executable specification the fast path (the
        single-line hits in :meth:`charge_read`/:meth:`write`, the span
        rule in :meth:`_touch_batch`, and the hoisted loops) must
        reproduce bit-for-bit; ``reference=True`` selects it so the
        differential suites can replay traces through both.  A hit costs
        1 ns; a miss is :meth:`_miss`.
        """
        line_size = self.profile.line_size
        clock = self.clock
        stats = self.stats
        cache_lines = self._cache._lines
        for line in self.profile.lines_spanned(offset, size):
            if dirty:
                stats.lines_written += 1
            else:
                stats.lines_read += 1
            if line in cache_lines:
                cache_lines.move_to_end(line)
                stats.cache_hits += 1
                if dirty:
                    cache_lines[line] = True
                    self._dirty_lines.add(line)
                    self._evict_programmed.discard(line)
                clock.advance(1.0)
                continue
            # A write miss needs no media fetch when it covers the whole
            # line, or when the line never reached media (fresh pool space
            # has nothing to fetch -- like writing past EOF of a new file).
            fetch = not dirty or (
                line in self._media_lines
                and not (
                    offset <= line * line_size
                    and offset + size >= (line + 1) * line_size
                )
            )
            clock.advance(self._miss(line, dirty, fetch))

    def _touch_batch(self, offset: int, size: int, dirty: bool) -> None:
        """Charge a whole access span with run-length arithmetic.

        Equivalent to running :meth:`_touch`'s per-line loop, but the span
        is classified into hit/miss/no-fetch runs in one cache pass and
        each run is charged in closed form at the :class:`LinePrices`
        record's prices (see docs/cost_model.md, "Batched access & cost
        equivalence").  Key invariants that make the closed forms exact:

        * every per-line charge is an integer number of nanoseconds, so
          grouping additions cannot change the sum;
        * only cache misses update ``_last_media_line``, and eviction
          write-backs never do, so a fetch-miss run stays sequential
          across interleaved evictions;
        * for a dirty span only the unaligned first/last lines can fetch
          (interior lines are fully covered), so at most two write-path
          fetches need individual treatment.

        A dirty span must cross a line boundary (a one-line write is
        charged by :meth:`write`); a clean span may be one line.
        """
        if size <= 0:
            return
        prices = self._prices
        line_size = self.profile.line_size
        first = offset // line_size
        last = (offset + size - 1) // line_size
        stats = self.stats
        n = last - first + 1
        n_hits, miss_runs, evictions = self._cache.access_many(first, last, dirty)
        n_miss = n - n_hits
        stats.cache_hits += n_hits
        stats.cache_misses += n_miss
        total = float(n_hits)  # every hit costs 1 ns
        device = 0.0
        lml = self._last_media_line
        if dirty:
            self._dirty_lines.update(range(first, last + 1))
            if self._evict_programmed:
                self._evict_programmed.difference_update(range(first, last + 1))
            stats.lines_written += n
            if miss_runs:
                # Interior lines are fully covered (write-allocate without
                # fetch); only an unaligned first or last line can fetch.
                total += float(n_miss)  # provisional 1 ns allocate per miss
                media = self._media_lines
                aligned_first = offset == first * line_size
                aligned_last = offset + size == (last + 1) * line_size
                first_run_start, first_run_len = miss_runs[0]
                last_run_start, last_run_len = miss_runs[-1]
                if (
                    not aligned_first
                    and first_run_start == first
                    and first in media
                ):
                    cost = (
                        prices.seq_fetch
                        if lml is not None and first == lml + 1
                        else prices.fetch
                    )
                    total += cost - 1.0
                    device += cost
                if (
                    not aligned_last
                    and last_run_start + last_run_len - 1 == last
                    and (
                        last in media
                        or any(victim == last for at, victim in evictions if at < last)
                    )
                ):
                    # _last_media_line just before `last` is the most
                    # recent miss in the span (every dirty miss sets it).
                    if last_run_len > 1:
                        prev_miss = last - 1
                    elif len(miss_runs) > 1:
                        prev_run_start, prev_run_len = miss_runs[-2]
                        prev_miss = prev_run_start + prev_run_len - 1
                    else:
                        prev_miss = lml
                    cost = (
                        prices.seq_fetch
                        if prev_miss is not None and last == prev_miss + 1
                        else prices.fetch
                    )
                    total += cost - 1.0
                    device += cost
                lml = last_run_start + last_run_len - 1
        else:
            stats.lines_read += n
            if miss_runs:
                fetch = prices.fetch
                seq_fetch = prices.seq_fetch
                prev_end: int | None = None
                for run_start, run_len in miss_runs:
                    before = prev_end if prev_end is not None else lml
                    base = (
                        seq_fetch
                        if before is not None and run_start == before + 1
                        else fetch
                    )
                    cost = base + (run_len - 1) * seq_fetch
                    total += cost
                    device += cost
                    prev_end = run_start + run_len - 1
                lml = prev_end
        if evictions:
            writeback = prices.writeback
            seq_writeback = prices.seq_writeback
            evict_programmed = self._evict_programmed
            for at, victim in evictions:
                # The triggering miss set _last_media_line to `at`, so the
                # write-back is sequential exactly when victim == at + 1.
                cost = seq_writeback if victim == at + 1 else writeback
                total += cost
                device += cost
                self._program_line(victim)
                # A victim re-dirtied later in this same span would have
                # its flag discarded by the per-line loop; skip adding it.
                if not (dirty and at < victim <= last):
                    evict_programmed.add(victim)
            stats.writebacks += len(evictions)
        if miss_runs:
            self._last_media_line = lml
        if device:
            stats.device_ns += device
        self.clock.ns += total
