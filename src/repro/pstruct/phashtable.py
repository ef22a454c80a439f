"""Open-addressing persistent hash table (Fig. 4 of the paper).

The table keeps three parallel buffers allocated as one contiguous block:

* a **status buffer** (1 byte/slot: empty, occupied, tombstone),
* a **key buffer** (u64/slot),
* a **value buffer** (i64/slot).

Capacity is rounded up to a power of two "for alignment to improve the hit
rate of the cache" (Section IV-D), and collisions are resolved by
deterministic pseudo-random (triangular) probing, which visits every slot
exactly once for power-of-two capacities.

As with :class:`~repro.pstruct.pvector.PVector`, the table can be created
pre-sized from a bottom-up summation bound (overflow raises
:class:`~repro.errors.CapacityError`) or growable (overflow triggers a
full rehash through the device, the cost the paper eliminates).

Layout::

    header (24 B): u32 capacity | u32 count | u32 flags | u32 tombstones
                   | u64 data_offset
    data:          capacity * (1 + 8 + 8) bytes
                   [status | keys | values] as three adjacent buffers
"""

from __future__ import annotations

import struct
import sys
from typing import Iterator

from repro.errors import CapacityError, CorruptDataError
from repro.kernels import hashops
from repro.kernels.core import select_occupied
from repro.nvm.allocator import PoolAllocator
from repro.obs import recorder as obs_recorder
from repro.obs.tracer import traced_op
from repro.pstruct import layout
from repro.pstruct.layout import next_power_of_two

_HEADER = struct.Struct("<IIIIQ")
_FLAG_GROWABLE = 1

_EMPTY = 0
_OCCUPIED = 1
_TOMBSTONE = 2

#: Grow when count+tombstones exceeds this fraction of capacity.
_MAX_LOAD = 0.7

_SLOT_BYTES = 1 + 8 + 8

#: The kernels' cast views over the table buffers are native-endian;
#: the persisted layout is little-endian, so the fused paths stand down
#: on big-endian hosts and the scalar reference paths serve instead.
_NATIVE_LE = sys.byteorder == "little"


def hash64(key: int) -> int:
    """SplitMix64 finalizer: deterministic, well-mixed 64-bit hash."""
    x = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


#: Memoized hash64: word ids recur across the thousands of per-rule
#: word-list merges of one bottom-up sweep, so the pure finalizer is
#: worth caching (host-side only; no simulated cost either way).
_H64_CACHE: dict[int, int] = {}
_H64_CACHE_MAX = 1 << 20


def _hash64_cached(key: int) -> int:
    h = _H64_CACHE.get(key)
    if h is None:
        if len(_H64_CACHE) >= _H64_CACHE_MAX:
            _H64_CACHE.clear()
        h = hash64(key)
        _H64_CACHE[key] = h
    return h


def _home_of(entry: tuple) -> int:
    return entry[0]


def _hashes(keys: list[int]) -> list[int]:
    """``_hash64_cached`` of every key, read straight from the memo when it
    holds them all."""
    try:
        return list(map(_H64_CACHE.__getitem__, keys))
    except KeyError:
        return [_hash64_cached(key) for key in keys]


def _capacity_for(expected_entries: int) -> int:
    """Slots for ``expected_entries`` live keys: a power of two under the load cap."""
    return next_power_of_two(int(expected_entries / _MAX_LOAD) + 1)


class PHashTable:
    """Persistent u64 -> i64 hash table with open addressing.

    Attaching reads the header back and validates it on the host, for
    free: a capacity that is not a power of two, more live and dead
    entries than slots, or a data block outside the allocator's region
    raises :class:`~repro.errors.CorruptDataError` before any probe can
    use the bad values.
    """

    def __init__(self, allocator: PoolAllocator, header_offset: int) -> None:
        self._allocator = allocator
        self._mem = allocator.memory
        self.header_offset = header_offset
        raw = self._mem.read(header_offset, _HEADER.size)
        (
            self._capacity,
            self._count,
            flags,
            self._tombstones,
            self._data_offset,
        ) = _HEADER.unpack(raw)
        self.growable = bool(flags & _FLAG_GROWABLE)
        capacity = self._capacity
        if (
            not capacity
            or capacity & (capacity - 1)
            or self._count + self._tombstones > capacity
        ):
            raise CorruptDataError(
                f"hash table header at {header_offset}: capacity {capacity}, "
                f"count {self._count}, tombstones {self._tombstones}"
            )
        data_end = self._data_offset + capacity * _SLOT_BYTES
        if self._data_offset < allocator.base or (
            data_end > allocator.base + allocator.capacity
        ):
            raise CorruptDataError(
                f"hash table header at {header_offset}: data "
                f"[{self._data_offset}, {data_end}) outside the allocator "
                f"region [{allocator.base}, {allocator.base + allocator.capacity})"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        allocator: PoolAllocator,
        expected_entries: int,
        growable: bool = False,
    ) -> "PHashTable":
        """Allocate a table sized for ``expected_entries`` live keys.

        The slot count is ``expected_entries / MAX_LOAD`` rounded up to a
        power of two, so a table created from an exact upper bound never
        rehashes.
        """
        if expected_entries <= 0:
            raise ValueError("expected_entries must be positive")
        capacity = _capacity_for(expected_entries)
        mem = allocator.memory
        header_offset = allocator.alloc(_HEADER.size)
        data_offset = cls._alloc_buffers(allocator, capacity)
        flags = _FLAG_GROWABLE if growable else 0
        mem.write(
            header_offset, _HEADER.pack(capacity, 0, flags, 0, data_offset)
        )
        return cls(allocator, header_offset)

    @classmethod
    def attach(cls, allocator: PoolAllocator, header_offset: int) -> "PHashTable":
        """Reopen a table from its persisted header."""
        return cls(allocator, header_offset)

    @classmethod
    def build_bottomup(
        cls,
        allocator: PoolAllocator,
        order: list[int],
        specs: list,
        record_size: int,
        op_commit,
        visitors: tuple,
        keep: frozenset[int],
    ) -> tuple[list["PHashTable"], dict] | None:
        """Build every rule's bound-sized table in one fused kernel pass.

        Charge-identical to ``create`` + ``add_many(words)`` + one
        ``merge_from`` per child, rule by rule in ``order``, with the
        visitors and ``op_commit`` after each rule (see
        :func:`repro.kernels.hashops.build_wordlists`, which also
        documents ``specs`` and the returned host mirror of the rules in
        ``keep``).  Returns ``None``, having charged nothing, when the
        memory is not ``kernel_ready`` (or the host's byte order or the
        line size rules the kernel out); the caller then runs the
        per-rule chain.
        """
        mem = allocator.memory
        if not (_NATIVE_LE and mem.kernel_ready and mem.profile.line_size > 8):
            return None
        active = obs_recorder.current()
        tracer = active.tracer if active is not None else None

        def adopt(header_offset: int, capacity: int, count: int, data_offset: int):
            table = cls.__new__(cls)
            table._allocator = allocator
            table._mem = mem
            table.header_offset = header_offset
            table._capacity = capacity
            table._count = count
            table._tombstones = 0
            table._data_offset = data_offset
            table.growable = False
            return table

        layout = (
            _HEADER,
            _SLOT_BYTES,
            _capacity_for,
            _MAX_LOAD,
            _hashes,
            adopt,
        )
        return hashops.build_wordlists(
            mem.kernels, allocator, order, specs, record_size, layout,
            op_commit, visitors, None if tracer is None else tracer.op, keep,
        )

    @staticmethod
    def _alloc_buffers(allocator: PoolAllocator, capacity: int) -> int:
        """Allocate the status/key/value block; return its offset.

        Only the status buffer needs zeroing for correctness, and only
        when the allocator handed back a *reused* block: bump space
        reads zero (the calloc-from-fresh-pages optimization every real
        allocator makes; see the zero watermark of
        :mod:`repro.nvm.allocator`).
        """
        data_offset = allocator.alloc(capacity * _SLOT_BYTES)
        if allocator.last_alloc_reused:
            allocator.memory.write(data_offset, bytes(capacity))
        return data_offset

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def load_factor(self) -> float:
        return self._count / self._capacity

    @property
    def reconstructions(self) -> int:
        """How many full rehashes this table has paid."""
        return getattr(self, "_reconstructions", 0)

    def put(self, key: int, value: int) -> None:
        """Insert or overwrite ``key``."""
        if self._put_slot(key, value):
            self._store_header()

    def _put_slot(self, key: int, value: int) -> bool:
        """``put`` minus the header store; returns whether a key was inserted."""
        slot, existing = self._locate(key)
        if existing:
            self._write_value(slot, value)
            return False
        capacity_before = self._capacity
        self._ensure_room()
        if self._capacity != capacity_before:
            # _ensure_room rehashed; re-locate in the new table.
            slot, _ = self._locate(key)
        self._write_slot(slot, key, value)
        self._count += 1
        return True

    def get(self, key: int, default: int | None = None) -> int | None:
        """Return the value for ``key`` or ``default``."""
        slot, existing = self._locate(key)
        if not existing:
            return default
        return self._read_value(slot)

    def add(self, key: int, delta: int) -> int:
        """Add ``delta`` to the value for ``key`` (missing keys start at 0).

        Returns the new value.  This is the counter-update primitive used
        by every analytics task.
        """
        value, inserted = self._add_slot(key, delta)
        if inserted:
            self._store_header()
        return value

    def _add_slot(self, key: int, delta: int) -> tuple[int, bool]:
        """``add`` minus the header store; returns ``(new_value, inserted)``."""
        slot, existing = self._locate(key)
        if existing:
            new_value = self._mem.rmw_add(self._value_off(slot), 8, delta, signed=True)
            return new_value, False
        capacity_before = self._capacity
        self._ensure_room()
        if self._capacity != capacity_before:
            slot, _ = self._locate(key)
        self._write_slot(slot, key, delta)
        self._count += 1
        return delta, True

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    @traced_op("phashtable:insert_many")
    def insert_many(self, pairs) -> int:
        """Bulk ``put`` of ``(key, value)`` pairs; returns keys inserted.

        Duplicate keys collapse to the last value, as sequential puts
        would.  Probes are issued in home-slot order so consecutive
        insertions walk the status/key/value buffers forward and earn the
        sequential-access discount; the header is stored once at the end
        instead of once per insert.
        """
        merged: dict[int, int] = {}
        for key, value in pairs:
            merged[key] = value
        if not merged:
            return 0
        if self._kernel_ok():
            inserted = self._batch(hashops.PUT, merged.items())
            if inserted:
                self._store_header()
            return inserted
        mask = self._capacity - 1
        inserted = 0
        for key in sorted(merged, key=lambda k: hash64(k) & mask):
            if self._put_slot(key, merged[key]):
                inserted += 1
        if inserted:
            self._store_header()
        return inserted

    @traced_op("phashtable:add_many")
    def add_many(self, pairs) -> None:
        """Bulk ``add``: accumulate many ``(key, delta)`` pairs.

        Deltas for duplicate keys are pre-summed so each distinct key
        pays one probe; probes run in home-slot order (see
        :meth:`insert_many`) and the header is stored once.
        """
        self._add_many(pairs)

    def _add_many(self, pairs) -> None:
        """:meth:`add_many` without its op record (``merge_from`` calls it)."""
        totals: dict[int, int] = {}
        get = totals.get
        for key, delta in pairs:
            totals[key] = get(key, 0) + delta
        if not totals:
            return
        if self._kernel_ok():
            if self._batch(hashops.ADD, totals.items()):
                self._store_header()
            return
        mask = self._capacity - 1
        inserted = False
        for key in sorted(totals, key=lambda k: hash64(k) & mask):
            if self._add_slot(key, totals[key])[1]:
                inserted = True
        if inserted:
            self._store_header()

    @traced_op("phashtable:get_many")
    def get_many(self, keys, default: int | None = None) -> list[int | None]:
        """Bulk ``get``: values for ``keys``, in the order given.

        Lookups are issued in home-slot order internally to keep probe
        traffic sequential; results are returned in input order.
        """
        keys = list(keys)
        out: list[int | None] = [default] * len(keys)
        if self._kernel_ok():
            self._batch(hashops.GET, ((key, pos) for pos, key in enumerate(keys)), out=out)
            return out
        mask = self._capacity - 1
        for pos in sorted(range(len(keys)), key=lambda i: hash64(keys[i]) & mask):
            slot, existing = self._locate(keys[pos])
            if existing:
                out[pos] = self._read_value(slot)
        return out

    @traced_op("phashtable:merge_from")
    def merge_from(self, other: "PHashTable", scale: int = 1) -> None:
        """Accumulate every ``(key, value * scale)`` pair of ``other``.

        Charge-identical to ``add_many(other.items())`` with scaled
        values: the same chunked status/key/value scan of ``other``
        followed by the same home-ordered probe sequence into ``self``.
        The kernel path skips the generator plumbing and the duplicate
        pre-sum (a table's live keys are already distinct).
        """
        if not self._kernel_ok():
            if scale == 1:
                self._add_many(other.items())
            else:
                self._add_many((word, count * scale) for word, count in other.items())
            return
        keys, vals = other._scan_entries()
        if not keys:
            return
        if scale == 1:
            pairs = zip(keys, vals)
        else:
            pairs = ((key, value * scale) for key, value in zip(keys, vals))
        if self._batch(hashops.ADD, pairs):
            self._store_header()

    def accumulate_into(self, counts: dict, clock) -> None:
        """Fold every pair into ``counts``, charging ``clock.cpu(1)`` each.

        Charge-identical to ``for w, c in items(): counts[w] = ...;
        clock.cpu(1)`` -- the chunk reads interleave with the per-pair
        CPU charges in the same order, and each pair adds exactly one
        ``CPU_OP_NS`` to the clock.
        """
        cpu_ns = clock.CPU_OP_NS
        get = counts.get
        for keys, vals in self._chunks():
            ns = clock.ns
            for _ in keys:
                ns += cpu_ns
            clock.ns = ns
            for word, count in zip(keys, vals):
                counts[word] = get(word, 0) + count

    def delete(self, key: int) -> bool:
        """Remove ``key``; return whether it was present."""
        slot, existing = self._locate(key)
        if not existing:
            return False
        layout.write_u8(self._mem, self._status_off(slot), _TOMBSTONE)
        self._count -= 1
        self._tombstones += 1
        self._store_header()
        return True

    def __contains__(self, key: int) -> bool:
        _, existing = self._locate(key)
        return existing

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield ``(key, value)`` pairs in slot order.

        Scans the three parallel buffers with bulk sequential reads --
        the access pattern Fig. 4's adjacent-buffer layout is built for.
        A chunk of statuses is read first; the key and value buffers are
        only touched for chunks that contain occupied slots.
        """
        for keys, values in self._chunks():
            yield from zip(keys, values)

    def _chunks(self) -> Iterator[tuple[list[int], list[int]]]:
        """Per-chunk ``(keys, values)`` of live slots, charged as :meth:`items`."""
        if self._scan_ok():
            yield from hashops.scan_chunks(
                self._mem.kernels,
                data_offset=self._data_offset,
                capacity=self._capacity,
            )
            return
        mem = self._mem
        chunk = 512
        key_base = self._data_offset + self._capacity
        value_base = self._data_offset + self._capacity * 9
        for start in range(0, self._capacity, chunk):
            count = min(chunk, self._capacity - start)
            statuses = mem.read(self._data_offset + start, count)
            if _OCCUPIED not in statuses:
                continue
            yield select_occupied(
                statuses,
                mem.read(key_base + start * 8, count * 8),
                mem.read(value_base + start * 8, count * 8),
            )

    def _scan_entries(self) -> tuple[list[int], list[int]]:
        """Read all live ``(keys, values)`` with the same bulk sequential
        reads (and therefore charges) as a full drain of :meth:`items`."""
        keys_out: list[int] = []
        vals_out: list[int] = []
        for keys, vals in self._chunks():
            keys_out.extend(keys)
            vals_out.extend(vals)
        return keys_out, vals_out

    def to_dict(self) -> dict[int, int]:
        """Materialize the table as a Python dict."""
        return dict(self.items())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _kernel_ok(self) -> bool:
        """Whether batch ops may run through the fused probe kernel.

        Growable tables keep the faithful scalar rehash costs; memories
        that are not ``kernel_ready`` run the scalar path;
        the alignment conditions guarantee every 8-byte field access
        stays inside one device line and is never a whole-line write
        (see ``repro.kernels.hashops``).
        """
        mem = self._mem
        if self.growable or not _NATIVE_LE or not mem.kernel_ready:
            return False
        line_size = mem.profile.line_size
        return (
            line_size > 8
            and line_size % 8 == 0
            and self._data_offset % 8 == 0
            and self._capacity % 8 == 0
        )

    def _scan_ok(self) -> bool:
        """Whether bulk scans may run through the fused scan kernel.

        Scans charge whole spans (no per-field single-line requirement),
        so only the cost model, fault, and endianness conditions apply:
        the kernel's cast views are native-endian while the scalar
        layout is little-endian.
        """
        return _NATIVE_LE and self._mem.kernel_ready

    def _batch(self, mode: int, pairs, out: list | None = None) -> int:
        """Home-sort ``pairs`` and run the fused probe kernel.

        ``pairs`` iterates ``(key, aux)`` in the scalar path's tie-break
        order; the stable sort reproduces ``sorted(keys, key=home)``
        exactly.  On :class:`CapacityError` the scalar paths' partial
        state is mirrored: prior inserts (and their charges) stand and
        the header store is skipped.
        """
        mask = self._capacity - 1
        h64 = _hash64_cached
        entries = [(h64(key) & mask, key, aux) for key, aux in pairs]
        entries.sort(key=_home_of)
        counter = [self._count]
        try:
            return hashops.probe_batch(
                self._mem.kernels,
                data_offset=self._data_offset,
                capacity=self._capacity,
                count=self._count,
                tombstones=self._tombstones,
                load_limit=self._capacity * _MAX_LOAD,
                entries=entries,
                mode=mode,
                out=out,
                counter=counter,
            )
        finally:
            self._count = counter[0]

    def _status_off(self, slot: int) -> int:
        return self._data_offset + slot

    def _value_off(self, slot: int) -> int:
        return self._data_offset + self._capacity * 9 + slot * 8

    def _read_value(self, slot: int) -> int:
        return self._mem.read_uint(self._value_off(slot), 8, signed=True)

    def _write_value(self, slot: int, value: int) -> None:
        self._mem.write_uint(self._value_off(slot), 8, value, signed=True)

    def _write_slot(self, slot: int, key: int, value: int) -> None:
        mem = self._mem
        data_offset = self._data_offset
        capacity = self._capacity
        mem.write_uint(data_offset + slot, 1, _OCCUPIED)
        mem.write_uint(data_offset + capacity + slot * 8, 8, key)
        mem.write_uint(data_offset + capacity * 9 + slot * 8, 8, value, signed=True)

    def _locate(self, key: int) -> tuple[int, bool]:
        """Probe for ``key``.

        Returns ``(slot, True)`` when the key is present, else
        ``(insert_slot, False)`` where ``insert_slot`` is the first
        empty/tombstone slot on the probe path.
        """
        capacity = self._capacity
        mask = capacity - 1
        h = hash64(key) & mask
        first_free = -1
        mem = self._mem
        clock_cpu = mem.clock.cpu
        read_uint = mem.read_uint
        data_offset = self._data_offset
        key_base = data_offset + capacity
        for i in range(capacity):
            slot = (h + (i * (i + 1)) // 2) & mask  # triangular probing
            clock_cpu(1)
            status = read_uint(data_offset + slot, 1)
            if status == _EMPTY:
                return (first_free if first_free >= 0 else slot), False
            if status == _TOMBSTONE:
                if first_free < 0:
                    first_free = slot
                continue
            if read_uint(key_base + slot * 8, 8) == key:
                return slot, True
        if first_free >= 0:
            return first_free, False
        raise CapacityError("hash table has no free slot")

    def _ensure_room(self) -> None:
        """Grow (or fail) before an insert that would exceed the load cap."""
        if (self._count + self._tombstones + 1) <= self._capacity * _MAX_LOAD:
            return
        if not self.growable:
            raise CapacityError(
                f"hash table at load cap (capacity {self._capacity}); size it "
                "with the bottom-up upper bound or pass growable=True"
            )
        self._rehash(self._capacity * 2)

    def _rehash(self, new_capacity: int) -> None:
        """Reallocate and reinsert every live entry (full device copy)."""
        entries = list(self.items())
        self._allocator.free(self._data_offset, self._capacity * _SLOT_BYTES)
        old_capacity = self._capacity
        self._capacity = new_capacity
        self._data_offset = self._alloc_buffers(self._allocator, new_capacity)
        self._count = 0
        self._tombstones = 0
        self._store_header()
        for key, value in entries:
            slot, _ = self._locate(key)
            self._write_slot(slot, key, value)
            self._count += 1
        self._store_header()
        self._reconstructions = self.reconstructions + 1
        del old_capacity

    def _store_header(self) -> None:
        self._mem.write(
            self.header_offset,
            _HEADER.pack(
                self._capacity,
                self._count,
                _FLAG_GROWABLE if self.growable else 0,
                self._tombstones,
                self._data_offset,
            ),
        )
