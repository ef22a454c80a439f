"""Host-side decode and the hoisted full sweep for the sealed pruned DAG.

Once ``PrunedDag.build`` has written the packed layout, a rule's record
fields (weight aside) and its ``(id, freq)`` entry lists never change
while the memory's ``image_epoch`` holds.  ``PrunedDag`` keeps them
decoded in a host cache and charges each accessor's spans through
``SimulatedMemory.charge_read``; the helpers here are the only code
that reads those bytes uncharged (ND001/ND007 fence ``_buf`` access to
this package):

* :func:`decode_rule` / :func:`decode_u32s` fill the cache lazily (after
  ``attach`` or a cache drop) from the current device image,
* :func:`read_u64` reads the mutable weight field after its record read
  was charged.

:func:`full_sweep` is the third hoisted hot loop (after
``SimulatedMemory.rmw_add_each`` and :func:`repro.kernels.hashops.probe_batch`).
It replaces ``full_sweep_weights_for_segment``'s per-rule ``subrules``
call -- a record read, an entry read, one ``clock.cpu(1)`` per entry --
with precomputed line spans: a span whose lines are all cached is
charged inline exactly as ``SimulatedMemory._touch_batch`` charges an
all-hit span (one ``clock.ns`` add of the line count, one
``move_to_end`` per line in order), and any other span goes through
``charge_read``.  Float adds to the clock keep the scalar order and
grouping; ``tests/test_kernel_equivalence.py`` compares the whole
memory snapshot with ``==`` against a reference memory.

Every caller guarantees ``mem.kernel_ready`` (no fault plan, trace
recorder or integrity mirror, not a reference memory).
"""

from __future__ import annotations

import struct


def decode_rule(mem, meta: struct.Struct, record_offset: int):
    """Decode one packed rule from the device image, uncharged.

    Returns ``(record_offset, entry_offset, subrules, words, fields)``
    with ``fields`` the record minus its trailing weight, or ``None``
    when the record points outside the device (the caller then reads
    through the charged path, which raises the range error).
    """
    buf = mem._buf
    fields = meta.unpack_from(buf, record_offset)[:-1]
    entry_offset, _, n_sub, n_words = fields[:4]
    count = (n_sub + n_words) * 2
    if entry_offset + count * 4 > mem.size:
        return None
    flat = struct.unpack_from(f"<{count}I", buf, entry_offset)
    pairs = tuple(zip(flat[0::2], flat[1::2]))
    return record_offset, entry_offset, pairs[:n_sub], pairs[n_sub:], fields


def decode_u32s(mem, offset: int, count: int):
    """``count`` little-endian u32 values at ``offset`` as a tuple, uncharged.

    ``None`` when the span leaves the device.
    """
    if offset < 0 or offset + count * 4 > mem.size:
        return None
    return struct.unpack_from(f"<{count}I", mem._buf, offset)


def read_u64(mem, offset: int) -> int:
    """The u64 field at ``offset``, uncharged (its read was charged)."""
    return int.from_bytes(mem._buf[offset : offset + 8], "little")


def sweep_plan(rows, line_size: int, record_size: int) -> list[tuple]:
    """Per-rule charge plan of the faithful sweep's ``subrules`` call.

    Each entry is ``(record_offset, record_first_line, record_last_line,
    record_lines, entry_offset, subrule_bytes, entry_first_line,
    entry_last_line, entry_lines, subrules)``, indexed by rule.
    """
    plan = []
    for record_offset, entry_offset, subs, _, _ in rows:
        rec_first = record_offset // line_size
        rec_last = (record_offset + record_size - 1) // line_size
        size = len(subs) * 8
        ent_first = entry_offset // line_size
        ent_last = (entry_offset + size - 1) // line_size if size else ent_first
        plan.append(
            (
                record_offset, rec_first, rec_last, float(rec_last - rec_first + 1),
                entry_offset, size, ent_first, ent_last,
                float(ent_last - ent_first + 1), subs,
            )
        )
    return plan


def full_sweep(mem, plan, topo_order, weights: list[int], record_size: int) -> None:
    """Push ``weights`` down the DAG in ``topo_order``, charged as the scalar sweep.

    Per rule, in order: the record read, the subrule-entry read (only
    when the rule has subrules, as ``read_u32_array`` skips empty
    reads), then one ``CPU_OP_NS`` add per entry.  ``weights`` is
    updated in place.
    """
    clock = mem.clock
    stats = mem.stats
    cache_lines = mem._cache._lines
    move_to_end = cache_lines.move_to_end
    charge_read = mem.charge_read
    cpu = clock.CPU_OP_NS
    ns = clock.ns
    hit_lines = 0
    hit_reads = 0
    hit_bytes = 0
    try:
        for rule in topo_order:
            (
                rec_off, rec_first, rec_last, rec_lines,
                ent_off, size, ent_first, ent_last, ent_lines, subs,
            ) = plan[rule]
            # The record, then the subrule entries: each is an all-hit
            # span charged inline or a read charged by the memory.
            if rec_first == rec_last:
                hit = rec_first in cache_lines
            else:
                hit = all(map(cache_lines.__contains__, range(rec_first, rec_last + 1)))
            if hit:
                for line in range(rec_first, rec_last + 1):
                    move_to_end(line)
                ns += rec_lines
                hit_lines += rec_last - rec_first + 1
                hit_reads += 1
                hit_bytes += record_size
            else:
                clock.ns = ns
                charge_read(rec_off, record_size)
                ns = clock.ns
            if not size:
                continue
            if ent_first == ent_last:
                hit = ent_first in cache_lines
            else:
                hit = all(map(cache_lines.__contains__, range(ent_first, ent_last + 1)))
            if hit:
                for line in range(ent_first, ent_last + 1):
                    move_to_end(line)
                ns += ent_lines
                hit_lines += ent_last - ent_first + 1
                hit_reads += 1
                hit_bytes += size
            else:
                clock.ns = ns
                charge_read(ent_off, size)
                ns = clock.ns
            weight = weights[rule]
            if weight:
                for sub, freq in subs:
                    ns += cpu
                    weights[sub] += weight * freq
            else:
                for _ in subs:
                    ns += cpu
    finally:
        clock.ns = ns
        stats.cache_hits += hit_lines
        stats.lines_read += hit_lines
        stats.read_ops += hit_reads
        stats.bytes_read += hit_bytes
