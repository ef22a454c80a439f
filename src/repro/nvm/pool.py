"""Named-region pool on top of a simulated memory.

An :class:`NvmPool` owns one :class:`~repro.nvm.memory.SimulatedMemory`
and a :class:`~repro.nvm.allocator.PoolAllocator`, and keeps a *directory*
mapping region names to ``(offset, size)`` pairs.  The directory is
serialized into a fixed header at the start of the memory so a pool image
written by one process (or surviving a simulated crash) can be reopened:
``load_directory`` restores both the name table and the allocator's bump
pointer.

Header layout (version 2, little-endian)::

    0x00  u64  magic ("NTADOCPL")
    0x08  u32  version
    0x10  slot A (32 B): u32 seq, u32 count, u64 allocator top,
                         u32 blob length, u32 blob crc32,
                         u32 crc32 of the preceding 24 bytes, pad
    0x30  slot B (same layout)
    0x50  arena A: directory entry blob
          arena B: second entry blob (arenas split the remaining header)

    entry: u16 name length, name bytes, u64 offset, u64 size

Flushes are *not* atomic under fault injection (``repro.nvm.faults``), so
the directory is written ping-pong: each save goes to whichever
slot+arena pair can be overwritten without endangering the newest
*media-resident* copy, decided by comparing the memory's flush epoch
against the epoch of each arena's last write.  A torn flush can
therefore corrupt at most the arena being written; the CRC-guarded
fallback slot still names a directory no older than the last completed
flush.  Both slot metadata and the entry blob are CRC32-checked, so a
torn or corrupted copy is detected, never trusted.

Version 4 extends the directory for segmented corpora (``repro.ingest``):
the fixed header gains a flags word (bit 0 = media-protected) and the
entry blob gains a *segment table* -- whole extents handed out by
:meth:`NvmPool.create_segment`, each hosting a nested pool
(``NvmPool(memory, base=off, capacity=size)``) with its own header and
regions.  A v2/v3 pool's saved bytes are unchanged: the segment section
is only emitted by pools opened with ``segmented=True``.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import OutOfMemoryError, PoolLayoutError
from repro.nvm.allocator import PoolAllocator
from repro.nvm.memory import SimulatedMemory
from repro.obs import tracer as obs

_MAGIC = 0x4E5441444F43504C  # "NTADOCPL"
_VERSION = 2
#: Version 3 = version 2 layout + a ``__seals__`` region of per-chunk
#: CRC32 seals maintained by :class:`~repro.nvm.scrub.MediaGuard`.  The
#: header bytes themselves are identical; the version digit records that
#: readers must expect (and may verify against) the seal table.
_VERSION_PROTECTED = 3
#: Version 4 = segmented directory: the fixed header carries a flags
#: word (media protection moves from the version digit into bit 0) and
#: the entry blob is followed by a segment-extent table.
_VERSION_SEGMENTED = 4
_FIXED_FMT = "<QI"  # magic, version
_FIXED_SEG_FMT = "<QII"  # magic, version, flags (v4 only)
_FLAG_MEDIA_PROTECT = 1
_FIXED_SIZE = 16  # struct.calcsize + 4 pad bytes
_SLOT_FMT = "<IIQII"  # seq, count, allocator top, blob length, blob crc32
_SLOT_BODY_SIZE = struct.calcsize(_SLOT_FMT)
_SLOT_SIZE = 32  # body + crc32 + pad
_SLOT0_OFF = _FIXED_SIZE
_ARENA_BASE = _SLOT0_OFF + 2 * _SLOT_SIZE


class NvmPool:
    """A memory pool with a persistent directory of named regions.

    Args:
        memory: Backing simulated memory.
        header_bytes: Bytes reserved at offset 0 for the directory.
        scatter: Forwarded to the allocator (naive-baseline mode).
        media_protect: Save the directory as layout version 3 and expect
            a CRC seal table (see :mod:`repro.nvm.scrub`).  Off by
            default -- an unprotected pool is byte-identical to the
            version-2 behavior.
        base: Offset of the pool's header within the memory.  Nonzero
            for a *nested* pool living inside a segment extent of an
            outer segmented pool; region offsets stay absolute.
        capacity: Bytes the pool may manage starting at ``base``
            (header included); defaults to the rest of the memory.
        segmented: Save the directory as layout version 4 and persist
            the segment-extent table (:meth:`create_segment`).  A
            non-segmented pool's saved bytes are untouched.
    """

    def __init__(
        self,
        memory: SimulatedMemory,
        header_bytes: int = 4096,
        scatter: bool = False,
        media_protect: bool = False,
        base: int = 0,
        capacity: int | None = None,
        segmented: bool = False,
    ) -> None:
        if (header_bytes - _ARENA_BASE) // 2 < 64:
            raise ValueError("header too small for pool metadata")
        if capacity is None:
            capacity = memory.size - base
        if base < 0 or base + capacity > memory.size:
            raise PoolLayoutError(
                f"pool extent [{base}, {base + capacity}) exceeds the "
                f"memory ({memory.size} B)"
            )
        if capacity <= header_bytes:
            raise PoolLayoutError("pool extent smaller than its header")
        self.memory = memory
        self.header_bytes = header_bytes
        self.base = base
        self.capacity = capacity
        self.media_protect = media_protect
        self.segmented = segmented
        #: The attached :class:`~repro.nvm.scrub.MediaGuard`, when media
        #: protection is active; ``flush`` asks it to reseal dirty chunks.
        self.media_guard = None
        self.allocator = PoolAllocator(
            memory,
            base=base + header_bytes,
            capacity=capacity - header_bytes,
            scatter=scatter,
        )
        self._regions: dict[str, tuple[int, int]] = {}
        #: Segment name -> absolute ``(offset, size)`` extent (v4).
        self._segments: dict[str, tuple[int, int]] = {}
        #: Retired segment extents available for wear-aware reuse.  Not
        #: persisted: after a crash or reopen the extents conservatively
        #: leak (the allocator's bump pointer still covers them), which
        #: is safe -- a recycled-but-unrecorded extent would not be.
        self._free_extents: list[tuple[int, int]] = []
        #: Offsets of extents that may hold a previous owner's bytes:
        #: every extent :meth:`create_segment` recycled, and every extent
        #: named by a loaded directory.  :meth:`segment_pool` zeroes
        #: these lazily (see :mod:`repro.nvm.allocator`).
        self._stale_extents: set[int] = set()
        self._arena_size = ((header_bytes - _ARENA_BASE) // 2) & ~7
        self._dir_seq = 0
        #: Sequence number last written to each arena (0 = never).
        self._arena_seq = [0, 0]
        #: memory.flush_epoch at each arena's last write; -1 = clean.  An
        #: arena is media-clean once a flush completed after its write.
        self._arena_epoch = [-1, -1]

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------

    def alloc_region(self, name: str, size: int, align: int = 8) -> int:
        """Allocate a named region and return its offset.

        Raises:
            PoolLayoutError: if ``name`` already exists.
        """
        if name in self._regions:
            raise PoolLayoutError(f"region {name!r} already exists")
        start = self.memory.clock.ns
        offset = self.allocator.alloc(size, align)
        self._regions[name] = (offset, size)
        obs.op("pool:alloc_region", self.memory.clock.ns - start)
        return offset

    def alloc_region_top(self, name: str, size: int, align: int = 8) -> int:
        """Allocate a named region pinned at the TOP of the pool extent.

        A top-pinned region never moves the bump pointer, so the layout
        of every ordinary allocation is byte-for-byte identical whether
        or not the region exists -- this is what lets the flight
        recorder's ``__flightrec__`` window ride in every pool without
        perturbing data placement.  The allocator's capacity is shrunk
        below the region so ordinary allocations can never grow into it
        (:meth:`reserve_top_region` restores the carve-out after a
        reopen, which persists the bump pointer but not the capacity).

        Raises:
            PoolLayoutError: if ``name`` already exists.
            OutOfMemoryError: when allocated space already reaches into
                the window the region would occupy.
        """
        if name in self._regions:
            raise PoolLayoutError(f"region {name!r} already exists")
        alloc = self.allocator
        end = alloc.base + alloc.capacity
        offset = (end - size) // align * align
        if offset < alloc.top:
            raise OutOfMemoryError(
                f"pool exhausted: top region {name!r} ({size} B) would "
                "overlap allocated space"
            )
        alloc.capacity = offset - alloc.base
        self._regions[name] = (offset, size)
        return offset

    def reserve_top_region(self, name: str) -> None:
        """Re-carve the allocator capacity below a top-pinned region.

        :meth:`load_directory` restores regions and the bump pointer but
        not the capacity shrink :meth:`alloc_region_top` performed; call
        this after reopening a pool that holds a top-pinned region.
        """
        offset, _ = self.get_region(name)
        alloc = self.allocator
        if alloc.base <= offset < alloc.base + alloc.capacity:
            alloc.capacity = offset - alloc.base

    def get_region(self, name: str) -> tuple[int, int]:
        """Return ``(offset, size)`` of a named region.

        Raises:
            PoolLayoutError: if the region does not exist.
        """
        try:
            return self._regions[name]
        except KeyError:
            raise PoolLayoutError(f"no region named {name!r}") from None

    def has_region(self, name: str) -> bool:
        """Return whether a region with this name exists."""
        return name in self._regions

    def free_region(self, name: str) -> None:
        """Release a named region back to the allocator."""
        offset, size = self.get_region(name)
        del self._regions[name]
        self.allocator.free(offset, size)

    def move_region(self, name: str, offset: int, size: int) -> None:
        """Point an existing region at a new ``(offset, size)`` extent.

        The caller owns the data copy and the old extent's lifetime (the
        undo log's growth path deliberately leaks its old extent until
        the new directory is durable).

        Raises:
            PoolLayoutError: if the region does not exist.
        """
        if name not in self._regions:
            raise PoolLayoutError(f"no region named {name!r}")
        self._regions[name] = (offset, size)

    def rename_region(self, old: str, new: str) -> None:
        """Rename a region in place (the extent does not move).

        Graceful degradation uses this to move a damaged region under a
        quarantine name instead of freeing it -- a freed damaged extent
        would be recycled by the allocator into fresh structures.

        Raises:
            PoolLayoutError: if ``old`` is missing or ``new`` exists.
        """
        if new in self._regions:
            raise PoolLayoutError(f"region {new!r} already exists")
        extent = self.get_region(old)
        del self._regions[old]
        self._regions[new] = extent

    def region_names(self) -> list[str]:
        """Return region names in insertion order."""
        return list(self._regions)

    def register_region(self, name: str, offset: int, size: int) -> None:
        """Record a region allocated directly through the allocator.

        Raises:
            PoolLayoutError: if ``name`` already exists.
        """
        if name in self._regions:
            raise PoolLayoutError(f"region {name!r} already exists")
        self._regions[name] = (offset, size)

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Free everything allocated inside the ``with`` block on exit.

        On exit, normal or not, the allocator is released to the mark
        taken on entry (:meth:`~repro.nvm.allocator.PoolAllocator.release`)
        and the region table returns to its entries at entry, so regions
        named inside the block vanish with their bytes.  The segmented
        ingest layer runs each checkpoint query's fused plan in a scope
        of its segment's nested pool.  Nothing allocated before entry may
        be freed inside the block.
        """
        mark = self.allocator.mark()
        regions = dict(self._regions)
        try:
            yield
        finally:
            self.allocator.release(mark)
            self._regions = regions

    # ------------------------------------------------------------------
    # Segment extents (pool v4)
    # ------------------------------------------------------------------

    def _extent_mean_wear(self, offset: int, size: int) -> float:
        """Mean media program count over the device lines of an extent."""
        wear = self.memory.wear
        if not wear:
            return 0.0
        line_size = self.memory.profile.line_size
        first = offset // line_size
        last = (offset + size - 1) // line_size
        total = sum(wear.get(line, 0) for line in range(first, last + 1))
        return total / (last - first + 1)

    def create_segment(self, name: str, size: int, align: int | None = None) -> int:
        """Allocate a whole segment extent and return its offset.

        Placement is wear-aware: every retired extent that fits and the
        allocator's bump frontier are scored by mean program count over
        their device lines, and the coldest wins (ties prefer reuse at
        the lowest offset).  A frontier that cannot hold ``size`` is not
        a candidate, so a full pool still reuses a worn extent.  Extents
        are line-aligned so a segment never shares a device line with
        its neighbors.  A recycled extent keeps its previous owner's
        bytes; :meth:`segment_pool` zeroes them lazily, as the new owner
        allocates.

        Raises:
            PoolLayoutError: if the pool is not segmented or ``name``
                already exists.
        """
        if not self.segmented:
            raise PoolLayoutError("create_segment on a non-segmented pool")
        if name in self._segments:
            raise PoolLayoutError(f"segment {name!r} already exists")
        start = self.memory.clock.ns
        if align is None:
            align = self.memory.profile.line_size
        best_idx = None
        best_key = None
        for idx, (off, sz) in enumerate(self._free_extents):
            if sz < size:
                continue
            key = (self._extent_mean_wear(off, sz), off)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        allocator = self.allocator
        frontier = -(-allocator.top // align) * align
        if best_key is not None and (
            frontier + size > allocator.base + allocator.capacity
            or best_key <= (self._extent_mean_wear(frontier, size), frontier)
        ):
            extent = self._free_extents.pop(best_idx)
            # The previous owner's bytes stay until the nested pool's
            # bump allocations reach them (segment_pool).
            self._stale_extents.add(extent[0])
        else:
            extent = (allocator.alloc(size, align), size)
        self._segments[name] = extent
        obs.op("pool:create_segment", self.memory.clock.ns - start)
        return extent[0]

    def retire_segment(self, name: str) -> None:
        """Drop a segment from the directory; its extent becomes reusable.

        The extent goes on the free-extent list for wear-aware reuse by
        :meth:`create_segment` (never back to the byte allocator, whose
        exact-size free lists would splinter it).  Only the compactor --
        inside a transaction, after the new segment set is durable --
        may call this (lint rule ND013).
        """
        extent = self.get_segment(name)
        del self._segments[name]
        self._free_extents.append(extent)

    def get_segment(self, name: str) -> tuple[int, int]:
        """Return ``(offset, size)`` of a named segment extent.

        Raises:
            PoolLayoutError: if the segment does not exist.
        """
        try:
            return self._segments[name]
        except KeyError:
            raise PoolLayoutError(f"no segment named {name!r}") from None

    def has_segment(self, name: str) -> bool:
        """Return whether a segment extent with this name exists."""
        return name in self._segments

    def segment_names(self) -> list[str]:
        """Return segment names in creation order."""
        return list(self._segments)

    def segment_pool(self, name: str, header_bytes: int = 1024) -> "NvmPool":
        """Open the nested pool living inside a segment extent.

        Nested pools are never themselves media-protected: the outer
        pool's :class:`~repro.nvm.scrub.MediaGuard` seals every dirty
        device line regardless of which pool wrote it.

        On a stale extent (recycled, or named by a loaded directory) the
        nested allocator's zero watermark starts at its base, so every
        bump allocation reads zero while the untouched rest of the
        extent keeps the old bytes.  The nested header is not zeroed:
        nested directories are written but never loaded, because reopen
        rebuilds every segment.  Code that loads one must first zero
        both of its slots, or a stale slot may outrank the live one.
        """
        offset, size = self.get_segment(name)
        nested = NvmPool(
            self.memory, header_bytes=header_bytes, base=offset, capacity=size
        )
        if offset in self._stale_extents:
            nested.allocator.zero_watermark = nested.allocator.base
        return nested

    # ------------------------------------------------------------------
    # Directory persistence
    # ------------------------------------------------------------------

    def _slot_off(self, arena: int) -> int:
        return self.base + _SLOT0_OFF + arena * _SLOT_SIZE

    def _arena_off(self, arena: int) -> int:
        return self.base + _ARENA_BASE + arena * self._arena_size

    @staticmethod
    def _encode_table(table: dict[str, tuple[int, int]]) -> bytes:
        parts: list[bytes] = []
        for name, (offset, size) in table.items():
            encoded = name.encode("utf-8")
            if len(encoded) > 255:
                raise PoolLayoutError(f"region name too long: {name!r}")
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack("<QQ", offset, size))
        return b"".join(parts)

    def _encode_entries(self) -> bytes:
        blob = self._encode_table(self._regions)
        if self.segmented:
            # v4: the region entries are followed by a counted segment
            # table (same entry shape).  v2/v3 blobs never reach here.
            blob += struct.pack("<I", len(self._segments))
            blob += self._encode_table(self._segments)
        return blob

    def _pick_save_arena(self) -> int:
        """Choose the slot+arena pair this save may overwrite.

        Invariant: between two completed flushes only ONE arena's bytes
        ever change, so however a flush tears, the other arena still
        holds a valid directory at least as new as the last completed
        flush.  An arena is *clean* when a flush completed after its last
        write (its bytes are on media); rewriting a clean arena would be
        safe only if the other one were also durable, so:

        * one arena dirty -> keep writing that one;
        * both clean -> overwrite the stale one (lower sequence);
        * both dirty (never happens via this method; defensive) -> the
          newer one, keeping the older as the least-bad fallback.
        """
        epoch = self.memory.flush_epoch
        clean0 = self._arena_epoch[0] < epoch
        clean1 = self._arena_epoch[1] < epoch
        if clean0 and clean1:
            return 0 if self._arena_seq[0] <= self._arena_seq[1] else 1
        if clean0:
            return 1
        if clean1:
            return 0
        return 0 if self._arena_seq[0] >= self._arena_seq[1] else 1

    def save_directory(self) -> None:
        """Serialize the directory into the pool header (charged I/O).

        Writes the entry blob and its CRC-sealed slot to the ping-pong
        target chosen by :meth:`_pick_save_arena`; the other slot stays
        byte-identical so a torn flush cannot lose both copies.
        """
        start = self.memory.clock.ns
        blob = self._encode_entries()
        if len(blob) > self._arena_size:
            raise PoolLayoutError(
                f"directory ({len(blob)} B) exceeds header arena "
                f"({self._arena_size} B)"
            )
        arena = self._pick_save_arena()
        self._dir_seq += 1
        seq = self._dir_seq
        body = struct.pack(
            _SLOT_FMT,
            seq,
            len(self._regions),
            self.allocator.top,
            len(blob),
            zlib.crc32(blob),
        )
        slot = body + struct.pack("<I", zlib.crc32(body)) + b"\x00" * (
            _SLOT_SIZE - _SLOT_BODY_SIZE - 4
        )
        mem = self.memory
        if self.segmented:
            flags = _FLAG_MEDIA_PROTECT if self.media_protect else 0
            fixed = struct.pack(_FIXED_SEG_FMT, _MAGIC, _VERSION_SEGMENTED, flags)
        else:
            version = _VERSION_PROTECTED if self.media_protect else _VERSION
            fixed = struct.pack(_FIXED_FMT, _MAGIC, version)
        mem.write(self.base, fixed)
        if blob:
            mem.write(self._arena_off(arena), blob)
        mem.write(self._slot_off(arena), slot)
        self._arena_seq[arena] = seq
        self._arena_epoch[arena] = mem.flush_epoch
        obs.op("pool:save_directory", mem.clock.ns - start)

    @staticmethod
    def _decode_table(
        blob: bytes, pos: int, count: int
    ) -> tuple[dict[str, tuple[int, int]], int]:
        table: dict[str, tuple[int, int]] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            offset, size = struct.unpack_from("<QQ", blob, pos)
            pos += 16
            table[name] = (offset, size)
        return table, pos

    def _parse_slot(
        self, raw: bytes, arena: int, segmented: bool
    ) -> (
        tuple[int, int, dict[str, tuple[int, int]], dict[str, tuple[int, int]]]
        | None
    ):
        """Validate one slot+arena pair; None if torn/corrupt/unwritten."""
        off = self._slot_off(arena) - self.base
        body = raw[off : off + _SLOT_BODY_SIZE]
        (stored_crc,) = struct.unpack_from("<I", raw, off + _SLOT_BODY_SIZE)
        if zlib.crc32(body) != stored_crc:
            return None
        seq, count, top, blob_len, blob_crc = struct.unpack(_SLOT_FMT, body)
        if seq == 0 or blob_len > self._arena_size:
            return None
        arena_off = self._arena_off(arena) - self.base
        blob = raw[arena_off : arena_off + blob_len]
        if zlib.crc32(blob) != blob_crc:
            return None
        segments: dict[str, tuple[int, int]] = {}
        try:
            regions, pos = self._decode_table(blob, 0, count)
            if segmented:
                (n_segments,) = struct.unpack_from("<I", blob, pos)
                segments, pos = self._decode_table(blob, pos + 4, n_segments)
        except (struct.error, UnicodeDecodeError):
            return None
        return (seq, top, regions, segments)

    def load_directory(self) -> None:
        """Restore the directory (and allocator top) from the pool header.

        Picks the valid slot with the highest sequence number; a torn or
        corrupt copy fails its CRC and the other slot is used instead.

        Raises:
            PoolLayoutError: on bad magic, or when no slot passes
                validation (truncated/corrupt header).
        """
        raw = self.memory.read(self.base, self.header_bytes)
        magic, version = struct.unpack_from(_FIXED_FMT, raw, 0)
        if magic != _MAGIC:
            raise PoolLayoutError("bad pool magic: not an N-TADOC pool image")
        if version == _VERSION_SEGMENTED:
            _, _, flags = struct.unpack_from(_FIXED_SEG_FMT, raw, 0)
            self.segmented = True
            self.media_protect = bool(flags & _FLAG_MEDIA_PROTECT)
        elif version in (_VERSION, _VERSION_PROTECTED):
            self.segmented = False
            self.media_protect = version == _VERSION_PROTECTED
        else:
            raise PoolLayoutError(f"unsupported pool version {version}")
        best = None
        seqs = [0, 0]
        for arena in (0, 1):
            parsed = self._parse_slot(raw, arena, self.segmented)
            if parsed is None:
                continue
            seqs[arena] = parsed[0]
            if best is None or parsed[0] > best[0]:
                best = parsed
        if best is None:
            raise PoolLayoutError(
                "corrupt pool directory: neither slot passes validation"
            )
        seq, top, regions, segments = best
        self._regions = regions
        self._segments = segments
        self._free_extents = []
        self._stale_extents = {offset for offset, _ in segments.values()}
        alloc = self.allocator
        alloc._top = max(top, alloc.base)
        # Space below the restored top is owned, not known-zero bump space.
        alloc.zero_watermark = max(alloc.zero_watermark, alloc._top)
        self._dir_seq = max(seqs)
        self._arena_seq = seqs
        # The loaded image is by definition on media: both arenas clean.
        self._arena_epoch = [-1, -1]

    def unverified_read(self, offset: int, size: int) -> bytes:
        """Charged read with seal verification suspended (scrub only).

        Delegates to ``memory.read_unverified``; fenced outside
        ``repro/nvm/`` by lint rule ND012.
        """
        return self.memory.read_unverified(offset, size)

    def flush(self) -> int:
        """Persist the directory and all dirty lines; return lines flushed.

        When a :class:`~repro.nvm.scrub.MediaGuard` is attached, dirty
        chunks are resealed after the directory write so the CRC table
        reaching media covers exactly the bytes this flush persists.
        """
        with obs.span("pool:flush", category="pool") as span:
            self.save_directory()
            if self.media_guard is not None:
                self.media_guard.seal_dirty()
            flushed = self.memory.flush()
            if span is not None:
                span.attrs["lines_flushed"] = flushed
            return flushed
