"""Hash-table kernels: batched probes, scans, the fused bottom-up build
and the warm per-file merge.

``probe_batch`` is the execution engine behind ``add_many``,
``insert_many``, ``get_many`` and ``merge_from`` when kernels are active.
It walks the batch **sequentially in the caller-given order** -- exactly
the order the scalar path uses -- so probe paths, cache evolution, and
every charged nanosecond match the scalar ``_locate``/``_write_slot``/
``rmw_add`` sequence bit for bit.  What changes is the wall-clock cost
per element: the clock and the hit counters are hoisted into locals,
and slot data moves through zero-copy ``memoryview.cast`` views of the
device buffer instead of per-field ``int.to_bytes``/``int.from_bytes``
round-trips.

Only one charge is written inline here: the single-line **hit** (the
line moves to the MRU end and costs 1 ns; a write also marks it dirty).
Every other access -- a miss, with its fetch, write-back and media
bookkeeping, or a field that straddles a device line -- syncs the clock
and goes through ``SimulatedMemory.charge_read`` / ``write``, the
memory's own rules.  So no miss or write-back price is copied into this
module, and a table whose fields straddle lines (capacity 2 or 4) runs
the same loop.

:func:`build_wordlists` is the whole bottom-up word-list pass of
``core.traversal.compute_wordlists_bottomup`` as one loop: per rule the
record and entry reads, the table's header and data allocation (with the
zero-fill of a reused block), its header write and read-back, the
pre-summed word adds, and per child the chunked scan of the child's
table and the scaled adds, each charged in the per-rule chain's order.
Each child table is decoded once; the decoded ``(keys, values)`` and the
lines of its scan are the host mirror :func:`warm_merge` serves the
per-file merges from while every line they read is cached.

Callers guarantee ``mem.kernel_ready`` (not a reference memory, no fault
plan or integrity mirror), a non-growable table (the naive baseline
keeps faithful scalar costs) and a line size above 8 bytes, so an 8-byte
field is never a whole-line write.  The Hypothesis
programs in ``tests/test_kernel_equivalence.py`` replay every mode, the
fused build and the warm merge against a reference memory and compare
with ``==``.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from repro.errors import CapacityError
from repro.kernels.dagops import last_touch_order, serve_hits

#: Batch modes.
ADD = 0  # found -> rmw value += aux; missing -> insert aux
PUT = 1  # found -> overwrite value = aux; missing -> insert aux
GET = 2  # found -> out[aux] = value; missing -> leave default

_EMPTY = 0
_OCCUPIED = 1
_TOMBSTONE = 2

#: Slots per scan chunk, as ``PHashTable._chunks`` reads them.
CHUNK = 512

_home_of = itemgetter(0)
#: ``bytes.translate`` table keeping a status byte 1 only for occupied slots.
_LIVE = bytes([0, _OCCUPIED] + [0] * 254)


def _views(buf, data_offset: int, capacity: int):
    """Zero-copy (status, key, value) views of one table's buffers."""
    key_base = data_offset + capacity
    value_base = data_offset + capacity * 9
    return (
        buf[data_offset:key_base],
        buf[key_base:value_base].cast("Q"),
        buf[value_base : value_base + capacity * 8].cast("q"),
    )


def scan_chunks(kern, *, data_offset: int, capacity: int, chunk: int = CHUNK):
    """Yield per-chunk ``(keys, vals)`` lists of one table's occupied slots.

    Charge-identical to the scalar ``PHashTable.items`` scan: per chunk,
    one bulk status read, and -- only when the chunk holds occupied
    slots -- one bulk key read and one bulk value read, each charged by
    ``SimulatedMemory.charge_read``.  Charges land before each
    ``yield``, so a partial drain leaves the same simulator state as a
    partial drain of the scalar generator.  Data moves through
    zero-copy views instead of ``mem.read`` copies.
    """
    mem = kern.mem
    charge_read = mem.charge_read
    st_mv, k_mv, v_mv = _views(memoryview(mem._buf), data_offset, capacity)
    key_base = data_offset + capacity
    value_base = data_offset + capacity * 9
    for start in range(0, capacity, chunk):
        n = min(chunk, capacity - start)
        charge_read(data_offset + start, n)
        statuses = bytes(st_mv[start : start + n])
        if _OCCUPIED not in statuses:
            continue
        charge_read(key_base + start * 8, n * 8)
        charge_read(value_base + start * 8, n * 8)
        yield _occupied(statuses, start, k_mv, v_mv)


def _occupied(statuses: bytes, start: int, k_mv, v_mv) -> tuple[list, list]:
    """The ``(keys, vals)`` of the occupied slots of one chunk, in slot order."""
    live = statuses.translate(_LIVE)
    end = start + len(statuses)
    return (
        list(compress(k_mv[start:end].tolist(), live)),
        list(compress(v_mv[start:end].tolist(), live)),
    )


def _env(kern) -> tuple:
    """The memory state the kernels hoist, built once per :class:`Kernels`.

    Every entry is a profile constant, a singleton object assigned once
    in ``SimulatedMemory.__init__`` (the clock, the cache's line dict,
    the dirty and eviction-programmed sets are mutated in place, never
    replaced) or one of their bound methods, so the tuple stays valid
    for the memory's lifetime.
    """
    env = kern.consts
    if env is None:
        mem = kern.mem
        lines = mem._cache._lines
        env = kern.consts = (
            mem.profile.line_size,
            mem.clock,
            mem.stats,
            lines,
            lines.get,
            lines.move_to_end,
            mem._dirty_lines.add,
            mem._evict_programmed.discard,
            mem.charge_read,
            mem.write,
        )
    return env


def probe_batch(
    kern,
    *,
    data_offset: int,
    capacity: int,
    count: int,
    tombstones: int,
    load_limit: float,
    entries,
    mode: int,
    out: list | None = None,
    counter: list | None = None,
) -> int:
    """Run one ordered batch of probes; return the number of inserts.

    ``entries`` is a list of ``(home_slot, key, aux)`` in the exact order
    the scalar path would process them (stable home-slot order).  For
    ``GET``, ``aux`` is the index into ``out``; otherwise it is the delta
    (ADD) or value (PUT).  ``counter`` (a one-element list) receives the
    updated live count even when a :class:`CapacityError` is raised
    mid-batch, mirroring the scalar path's partially-updated state.
    """
    return _probe(
        _env(kern),
        _views(memoryview(kern.mem._buf), data_offset, capacity),
        data_offset,
        capacity,
        count,
        tombstones,
        load_limit,
        entries,
        mode,
        out,
        counter,
    )


def _probe(
    env, views, data_offset, capacity, count, tombstones, load_limit, entries,
    mode, out, counter,
) -> int:
    """:func:`probe_batch` on explicit views; see there.

    A write that hits a line already dirty only moves it: a dirty cached
    line is in the memory's dirty set and out of its eviction-programmed
    set (every write adds it to the one and discards it from the other;
    only a flush cleans it and only an eviction programs it).
    """
    (
        line_size,
        clock,
        stats,
        cache_lines,
        cached,
        move_to_end,
        dirty_add,
        ep_discard,
        charge_read,
        write,
    ) = env
    st_mv, k_mv, v_mv = views
    mask = capacity - 1
    key_base = data_offset + capacity
    value_base = data_offset + capacity * 9
    cpu_ns = clock.CPU_OP_NS

    cns = clock.ns  # running copy: identical add sequence => identical bits
    # Inline single-line hits by access size; misses count themselves.
    r1 = r8 = w1 = w8 = 0
    inserted = 0

    try:
        for home, key, aux in entries:
            first_free = -1
            found = False
            target = -1
            for i in range(capacity):
                slot = (home + ((i * (i + 1)) >> 1)) & mask
                cns += cpu_ns  # _locate's clock.cpu(1) per probe
                # read_uint(status_offset, 1)
                off = data_offset + slot
                line = off // line_size
                if line in cache_lines:
                    move_to_end(line)
                    r1 += 1
                    cns += 1.0
                else:
                    clock.ns = cns
                    charge_read(off, 1)
                    cns = clock.ns
                status = st_mv[slot]
                if status == _EMPTY:
                    target = first_free if first_free >= 0 else slot
                    break
                if status == _TOMBSTONE:
                    if first_free < 0:
                        first_free = slot
                    continue
                # occupied: read_uint(key_offset, 8), then compare
                off = key_base + slot * 8
                line = off // line_size
                if line in cache_lines and (off + 7) // line_size == line:
                    move_to_end(line)
                    r8 += 1
                    cns += 1.0
                else:
                    clock.ns = cns
                    charge_read(off, 8)
                    cns = clock.ns
                if k_mv[slot] == key:
                    target = slot
                    found = True
                    break
            else:
                if first_free >= 0:
                    target = first_free
                else:
                    raise CapacityError("hash table has no free slot")

            if found:
                off = value_base + target * 8
                line = off // line_size
                dirty = cached(line) if (off + 7) // line_size == line else None
                if mode == ADD:
                    # rmw_add(value_offset, 8, aux, signed=True)
                    if dirty is not None:
                        move_to_end(line)
                        if not dirty:
                            cache_lines[line] = True
                            dirty_add(line)
                            ep_discard(line)
                        r8 += 1
                        w8 += 1
                        cns += 2.0
                        v_mv[target] += aux
                    else:
                        clock.ns = cns
                        charge_read(off, 8)
                        value = v_mv[target] + aux
                        write(off, value.to_bytes(8, "little", signed=True))
                        cns = clock.ns
                elif mode == PUT:
                    # write_uint(value_offset, 8, aux, signed=True)
                    if dirty is not None:
                        move_to_end(line)
                        if not dirty:
                            cache_lines[line] = True
                            dirty_add(line)
                            ep_discard(line)
                        w8 += 1
                        cns += 1.0
                        v_mv[target] = aux
                    else:
                        clock.ns = cns
                        write(off, aux.to_bytes(8, "little", signed=True))
                        cns = clock.ns
                else:  # GET: read_uint(value_offset, 8, signed=True)
                    if dirty is not None:
                        move_to_end(line)
                        r8 += 1
                        cns += 1.0
                    else:
                        clock.ns = cns
                        charge_read(off, 8)
                        cns = clock.ns
                    out[aux] = v_mv[target]
                continue

            if mode == GET:
                continue
            # _ensure_room (non-growable): raise at the load cap, with the
            # scalar path's partial state (prior inserts stand, charged).
            if count + tombstones + 1 > load_limit:
                raise CapacityError(
                    f"hash table at load cap (capacity {capacity}); size it "
                    "with the bottom-up upper bound or pass growable=True"
                )
            # _write_slot: status (1 B), key (8 B), value (8 B) writes
            off = data_offset + target
            line = off // line_size
            dirty = cached(line)
            if dirty is not None:
                move_to_end(line)
                if not dirty:
                    cache_lines[line] = True
                    dirty_add(line)
                    ep_discard(line)
                w1 += 1
                cns += 1.0
                st_mv[target] = _OCCUPIED
            else:
                clock.ns = cns
                write(off, b"\x01")
                cns = clock.ns

            off = key_base + target * 8
            line = off // line_size
            dirty = cached(line) if (off + 7) // line_size == line else None
            if dirty is not None:
                move_to_end(line)
                if not dirty:
                    cache_lines[line] = True
                    dirty_add(line)
                    ep_discard(line)
                w8 += 1
                cns += 1.0
                k_mv[target] = key
            else:
                clock.ns = cns
                write(off, key.to_bytes(8, "little"))
                cns = clock.ns

            off = value_base + target * 8
            line = off // line_size
            dirty = cached(line) if (off + 7) // line_size == line else None
            if dirty is not None:
                move_to_end(line)
                if not dirty:
                    cache_lines[line] = True
                    dirty_add(line)
                    ep_discard(line)
                w8 += 1
                cns += 1.0
                v_mv[target] = aux
            else:
                clock.ns = cns
                write(off, aux.to_bytes(8, "little", signed=True))
                cns = clock.ns

            count += 1
            inserted += 1
    finally:
        clock.ns = cns
        reads = r1 + r8
        writes = w1 + w8
        stats.cache_hits += reads + writes
        stats.lines_read += reads
        stats.read_ops += reads
        stats.bytes_read += r1 + 8 * r8
        stats.lines_written += writes
        stats.write_ops += writes
        stats.bytes_written += w1 + 8 * w8
        if counter is not None:
            counter[0] = count
    return inserted


def build_wordlists(
    kern, allocator, order, specs, record_size, layout, op_commit, visitors, op, keep
):
    """Build one table per rule of ``order``, charged as the per-rule chain.

    ``specs[rule]`` is ``(record_off, entry_off, subrules, words, bound)``
    (``PrunedDag.bottomup_specs``), with ``record_size``-byte records.
    ``layout`` is ``(header, slot_bytes, capacity_of, max_load, hashes,
    adopt)`` from ``PHashTable``: the header struct, the bytes per slot,
    the entries-to-capacity rule, the load cap, the hashes of a key list
    and the constructor that wraps a built table without reading it.
    Per rule, in order:

    1. ``bound_and_entries``: the record read, then the entry read;
    2. ``PHashTable.create``: header and data allocation, the status
       zero-fill when the data block is reused, the header write, and
       the header read of ``__init__``;
    3. ``add_many(words)``: pre-summed adds in home-slot order, then the
       header store when a key was inserted;
    4. per child, ``merge_from``: the child table's chunked scan (status,
       keys, values per chunk), its pairs scaled and added in home-slot
       order, then the header store when a key was inserted;
    5. the visitors, then ``op_commit``.

    ``op`` (or ``None``) records what the ``traced_op`` wrappers would:
    ``add_many`` per word batch and ``merge_from`` per child.  Returns
    ``(tables, scans)``: ``tables[rule]`` is the rule's table, and
    ``scans[rule]`` the host mirror of a table scanned as a child, kept
    for the rules in ``keep`` (any other is dropped once its last parent
    is built): ``(spans, keys, values, lines, nbytes, widths, hashes)``,
    its scan's ``(offset, size)`` reads, its live pairs, the reads' lines
    in access order, their byte total, each read's line count and the
    keys' hashes.
    """
    header, slot_bytes, capacity_of, max_load, hashes, adopt = layout
    env = _env(kern)
    (
        line_size,
        clock,
        stats,
        cache_lines,
        cached,
        move_to_end,
        dirty_add,
        ep_discard,
        charge_read,
        write,
    ) = env
    contains = cache_lines.__contains__
    alloc = allocator.alloc
    pack = header.pack
    header_size = header.size
    buf = memoryview(kern.mem._buf)
    tables: list = [None] * len(specs)
    geometry: list = [None] * len(specs)
    scans: dict = {}
    parents = [0] * len(specs)
    for rule in order:
        for sub, _ in specs[rule][2]:
            parents[sub] += 1

    def read(off: int, size: int) -> None:
        """``charge_read(off, size)``, with an all-hit span charged inline."""
        first = off // line_size
        last = (off + size - 1) // line_size
        if first == last:
            if first not in cache_lines:
                charge_read(off, size)
                return
            move_to_end(first)
        else:
            span = range(first, last + 1)
            if not all(map(contains, span)):
                charge_read(off, size)
                return
            for line in span:
                move_to_end(line)
        n = last - first + 1
        clock.ns += n
        stats.cache_hits += n
        stats.lines_read += n
        stats.read_ops += 1
        stats.bytes_read += size

    def store(off: int, data: bytes) -> None:
        """``write(off, data)``, with a single-line hit charged inline."""
        size = len(data)
        line = off // line_size
        dirty = cached(line) if (off + size - 1) // line_size == line else None
        if dirty is None:
            write(off, data)
            return
        move_to_end(line)
        if not dirty:
            cache_lines[line] = True
            dirty_add(line)
            ep_discard(line)
        clock.ns += 1.0
        stats.cache_hits += 1
        stats.lines_written += 1
        stats.write_ops += 1
        stats.bytes_written += size
        buf[off : off + size] = data

    def scan_of(rule: int):
        """Decode a built table once: its scan reads, pairs and lines."""
        data_off, capacity, (st_mv, k_mv, v_mv) = geometry[rule]
        geometry[rule] = None
        spans = []
        keys: list = []
        vals: list = []
        key_base = data_off + capacity
        value_base = data_off + capacity * 9
        for start in range(0, capacity, CHUNK):
            n = min(CHUNK, capacity - start)
            spans.append((data_off + start, n))
            statuses = st_mv[start : start + n].tobytes()
            if _OCCUPIED not in statuses:
                continue
            spans.append((key_base + start * 8, n * 8))
            spans.append((value_base + start * 8, n * 8))
            chunk_keys, chunk_vals = _occupied(statuses, start, k_mv, v_mv)
            keys += chunk_keys
            vals += chunk_vals
        lines: list = []
        widths = []
        nbytes = 0
        for off, size in spans:
            first = off // line_size
            last = (off + size - 1) // line_size
            lines += range(first, last + 1)
            widths.append(last - first + 1)
            nbytes += size
        scan = scans[rule] = (spans, keys, vals, lines, nbytes, widths, hashes(keys))
        return scan

    for rule in order:
        record_off, entry_off, subs, words, bound = specs[rule]
        read(record_off, record_size)
        if subs or words:
            read(entry_off, (len(subs) + len(words)) * 8)
        capacity = capacity_of(bound if bound > 1 else 1)
        header_off = alloc(header_size)
        data_off = alloc(capacity * slot_bytes)
        if allocator.last_alloc_reused:
            write(data_off, bytes(capacity))
        store(header_off, pack(capacity, 0, 0, 0, data_off))
        read(header_off, header_size)
        views = _views(buf, data_off, capacity)
        geometry[rule] = (data_off, capacity, views)
        load_limit = capacity * max_load
        mask = capacity - 1
        counter = [0]
        if words:
            start = clock.ns
            # add_many's pre-sum; a pruned rule's words are distinct.
            totals = dict(words)
            if len(totals) != len(words):
                totals = {}
                get = totals.get
                for key, delta in words:
                    totals[key] = get(key, 0) + delta
            keys = list(totals)
            homes = map(mask.__and__, hashes(keys))
            entries = sorted(zip(homes, keys, totals.values()), key=_home_of)
            if _probe(env, views, data_off, capacity, 0, 0, load_limit, entries, ADD, None, counter):
                store(header_off, pack(capacity, counter[0], 0, 0, data_off))
            if op is not None:
                op("phashtable:add_many", clock.ns - start)
        for sub, freq in subs:
            start = clock.ns
            spans, keys, vals, lines, nbytes, widths, key_hashes = (
                scans.get(sub) or scan_of(sub)
            )
            # The scan's reads: all-hit spans charged inline, in order.
            if all(map(contains, lines)):
                for line in lines:
                    move_to_end(line)
                for n in widths:
                    clock.ns += n
                stats.cache_hits += len(lines)
                stats.lines_read += len(lines)
                stats.read_ops += len(spans)
                stats.bytes_read += nbytes
            else:
                for off, size in spans:
                    read(off, size)
            if keys:
                homes = map(mask.__and__, key_hashes)
                scaled = vals if freq == 1 else map(freq.__mul__, vals)
                entries = sorted(zip(homes, keys, scaled), key=_home_of)
                count = counter[0]
                if _probe(env, views, data_off, capacity, count, 0, load_limit, entries, ADD, None, counter):
                    store(header_off, pack(capacity, counter[0], 0, 0, data_off))
            if op is not None:
                op("phashtable:merge_from", clock.ns - start)
            parents[sub] -= 1
            if not parents[sub] and sub not in keep:
                del scans[sub]
        tables[rule] = adopt(header_off, capacity, counter[0], data_off)
        for visit in visitors:
            visit(rule, words, subs)
        if op_commit is not None:
            op_commit()
    return tables, scans


def warm_merge(mem, scans, segment, rule_base: int, sep_base: int) -> dict | None:
    """One file's bottom-up word counts, charged in closed form.

    Mirrors ``core.traversal.merge_segment_counts``: one CPU add per
    segment symbol; per rule reference (``symbol >= rule_base``) the
    full scan of the rule's table and one CPU add per merged pair; a
    bare word (below ``sep_base``) counts once.  ``scans`` is
    :func:`build_wordlists`' host mirror.  When every line the scans
    read is cached the walk is all-hit: one
    ``SimulatedClock.advance_window`` for its line and CPU adds, its
    distinct lines moved to the MRU end in last-touch order.  Returns
    ``None``, having charged nothing, when a referenced table has no
    mirror, a line is not cached or the clock declines the window.
    """
    touched: list = []
    reads = nbytes = pairs = 0
    get_scan = scans.get
    for symbol in segment:
        if symbol >= rule_base:
            scan = get_scan(symbol - rule_base)
            if scan is None:
                return None
            spans, keys, _, lines, size = scan[:5]
            touched += lines
            reads += len(spans)
            nbytes += size
            pairs += len(keys)
    distinct = last_touch_order(touched)
    if not all(map(mem._cache._lines.__contains__, distinct)):
        return None
    if not mem.clock.advance_window(len(touched), len(segment) + pairs):
        return None
    serve_hits(mem, distinct, len(touched), reads, nbytes)
    counts: dict = {}
    get = counts.get
    for symbol in segment:
        if symbol >= rule_base:
            keys, vals = scans[symbol - rule_base][1:3]
            for key, value in zip(keys, vals):
                counts[key] = get(key, 0) + value
        elif symbol < sep_base:
            counts[symbol] = get(symbol, 0) + 1
    return counts
