"""Host-side decode, the hoisted full sweep and the warm walks of the pruned DAG.

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

:func:`full_sweep` is a hoisted hot loop (like
``SimulatedMemory.rmw_add_each`` and :func:`repro.kernels.hashops.probe_batch`).
It replaces ``full_sweep_weights_for_segment``'s per-rule ``subrules``
call -- a record read, an entry read, one ``clock.cpu(1)`` per entry --
with per-rule line spans (:func:`walk_entry`, one table per cache that
the warm walks below share): a span whose lines are all cached is
charged inline exactly as ``SimulatedMemory._touch_batch`` charges an
all-hit span (one ``clock.ns`` add of the line count, one
``move_to_end`` per line in order), and any other span goes through
``charge_read``.  Float adds to the clock keep the scalar order and
grouping; ``tests/test_kernel_equivalence.py`` compares the whole
memory snapshot with ``==`` against a reference memory.

The warm walks charge a whole walk at once when every line it reads is
cached: :func:`warm_sweep` (the sweep, from a per-topo-order
:func:`sweep_summary`), :func:`warm_word_fold` (the top-down per-file
word fold) and :func:`warm_local_weights` (the segment-seeded
restricted propagation).  An all-hit walk cannot evict, so its only
effects are its hit, line, op and byte counters, its line moves to the
MRU end (one ``move_to_end`` per distinct line, in last-touch order)
and its clock adds, which
:meth:`~repro.nvm.memory.SimulatedClock.advance_window` applies in
closed form.  A walk that finds an uncached line, or whose clock window
is declined, charges nothing and returns "not served"; the caller then
runs the per-access loop.  The sweep alone keeps its per-rule steps, so
a sweep whose window straddles a power of two is still served: in
closed form up to the step that crosses, that step one add at a time,
and the rest in closed form again
(:meth:`~repro.nvm.memory.SimulatedClock.advance_steps`).

Every caller guarantees ``mem.kernel_ready`` (no fault plan or
integrity mirror, not a reference memory).
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


def walk_entry(row, line_size: int, record_size: int) -> tuple:
    """What the sweep and the warm walks need of one rule, from its row.

    Returns ``(subrules, words, record_lines, subrule_lines, word_lines,
    record_offset, entry_offset)``.  The line tuples are the lines of the
    48-byte record and of the two entry spans (empty for an empty list),
    each in access order: ``weight_and_subrules`` charges the record and
    then the subrule span, ``weight_and_words`` the record and then the
    word span, and neither reads an empty span.
    """
    record_off, entry_off, subs, words, _ = row

    def lines(offset: int, size: int) -> tuple[int, ...]:
        if not size:
            return ()
        return tuple(range(offset // line_size, (offset + size - 1) // line_size + 1))

    return (
        subs,
        words,
        lines(record_off, record_size),
        lines(entry_off, len(subs) * 8),
        lines(entry_off + len(subs) * 8, len(words) * 8),
        record_off,
        entry_off,
    )


def full_sweep(mem, table, topo_order, weights: list[int], record_size: int) -> None:
    """Push ``weights`` down the DAG in ``topo_order``, charged as the scalar sweep.

    Per rule, in order: the record read, the subrule-entry read (only
    when the rule has subrules, as ``read_u32_array`` skips empty
    reads), then one ``CPU_OP_NS`` add per entry.  ``table`` holds every
    rule's :func:`walk_entry`.  ``weights`` is updated in place.
    """
    clock = mem.clock
    stats = mem.stats
    cache_lines = mem._cache._lines
    contains = cache_lines.__contains__
    move_to_end = cache_lines.move_to_end
    charge_read = mem.charge_read
    cpu = clock.CPU_OP_NS
    ns = clock.ns
    hit_lines = 0
    hit_reads = 0
    hit_bytes = 0
    try:
        for rule in topo_order:
            subs, _, record, span, _, record_off, entry_off = table[rule]
            # The record, then the subrule entries: each is an all-hit
            # span charged inline or a read charged by the memory.
            if all(map(contains, record)):
                for line in record:
                    move_to_end(line)
                ns += len(record)
                hit_lines += len(record)
                hit_reads += 1
                hit_bytes += record_size
            else:
                clock.ns = ns
                charge_read(record_off, record_size)
                ns = clock.ns
            if not subs:
                continue
            if all(map(contains, span)):
                for line in span:
                    move_to_end(line)
                ns += len(span)
                hit_lines += len(span)
                hit_reads += 1
                hit_bytes += len(subs) * 8
            else:
                clock.ns = ns
                charge_read(entry_off, len(subs) * 8)
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


def last_touch_order(lines) -> list[int]:
    """The distinct ``lines`` ordered by their last occurrence.

    Moving these to the MRU end once each leaves the LRU order that
    moving every occurrence in turn leaves.
    """
    distinct = list(dict.fromkeys(reversed(lines)))
    distinct.reverse()
    return distinct


def sweep_summary(table, topo_order, record_size: int) -> tuple:
    """One full sweep's warm charge: ``(topo_order, distinct_lines, lines,
    reads, bytes, int_prefix, cpu_prefix)``, with ``distinct_lines`` in
    last-touch order and the prefixes the per-rule steps' clock adds
    (:meth:`~repro.nvm.memory.SimulatedClock.advance_steps`).

    ``table`` holds every rule's :func:`walk_entry`.
    """
    order = list(topo_order)
    touched: list[int] = []
    int_prefix = [0]
    cpu_prefix = [0]
    entries = spans = 0
    for rule in order:
        subs, _, record, span, _, _, _ = table[rule]
        touched += record
        if subs:
            touched += span
            spans += 1
            entries += len(subs)
        int_prefix.append(len(touched))
        cpu_prefix.append(entries)
    reads = len(order) + spans
    nbytes = len(order) * record_size + entries * 8
    distinct = last_touch_order(touched)
    return order, distinct, len(touched), reads, nbytes, int_prefix, cpu_prefix


def serve_hits(mem, distinct, lines: int, reads: int, nbytes: int) -> None:
    """Apply an accepted all-hit walk's LRU moves and counters."""
    move_to_end = mem._cache._lines.move_to_end
    for line in distinct:
        move_to_end(line)
    stats = mem.stats
    stats.cache_hits += lines
    stats.lines_read += lines
    stats.read_ops += reads
    stats.bytes_read += nbytes


def warm_sweep(mem, table, summary, weights: list[int]) -> bool:
    """:func:`full_sweep` for an all-hit sweep, charged in closed form.

    The clock takes the sweep's per-rule steps through
    :meth:`~repro.nvm.memory.SimulatedClock.advance_steps`: in closed
    form, apart from a step that reaches a power of two, which adds its
    record and entry hits and its CPU ops one by one as
    :func:`full_sweep` does.  Returns ``False``, having charged and
    changed nothing, when a line of the sweep is not cached.
    """
    order, distinct, lines, reads, nbytes, int_prefix, cpu_prefix = summary
    if not all(map(mem._cache._lines.__contains__, distinct)):
        return False
    clock = mem.clock
    cpu = clock.CPU_OP_NS

    def step(index: int) -> None:
        subs, _, record, span, _, _, _ = table[order[index]]
        ns = clock.ns
        ns += len(record)
        if subs:
            ns += len(span)
            for _ in subs:
                ns += cpu
        clock.ns = ns

    clock.advance_steps(int_prefix, cpu_prefix, step)
    serve_hits(mem, distinct, lines, reads, nbytes)
    for rule in order:
        weight = weights[rule]
        if weight:
            for sub, freq in table[rule][0]:
                weights[sub] += weight * freq
    return True


def warm_word_fold(
    mem, table, fill, weights: dict[int, int], cpu_ops: int, counts: dict[int, int],
    record_size: int,
) -> bool:
    """Fold each weighted rule's words into ``counts``, charged in closed form.

    The window is ``cpu_ops`` leading CPU adds (the caller's per-symbol
    segment scan), then per rule of ``weights``, in its order, the
    ``weight_and_words`` spans and one CPU add per word entry.
    ``table[rule]`` is the rule's :func:`walk_entry`, or ``None`` until
    ``fill(rule)`` makes it (``fill`` returns ``None`` when the rule
    cannot be served).  Returns ``False``, with nothing charged and
    ``counts`` untouched, when the walk cannot be served warm.
    """
    contains = mem._cache._lines.__contains__
    touched: list[int] = []
    entries = spans = 0
    for rule in weights:
        entry = table[rule] or fill(rule)
        if entry is None:
            return False
        _, words, record, _, span, _, _ = entry
        if not (all(map(contains, record)) and all(map(contains, span))):
            return False
        touched += record
        if words:
            touched += span
            spans += 1
            entries += len(words)
    if not mem.clock.advance_window(len(touched), cpu_ops + entries):
        return False
    nbytes = len(weights) * record_size + entries * 8
    serve_hits(mem, last_touch_order(touched), len(touched), len(weights) + spans, nbytes)
    get = counts.get
    for rule, weight in weights.items():
        for word, freq in table[rule][1]:
            counts[word] = get(word, 0) + weight * freq
    return True


def warm_local_weights(
    mem, table, fill, seeds: dict[int, int], cpu_ops: int, topo_position,
    record_size: int,
) -> dict[int, int] | None:
    """Segment-seeded restricted propagation, charged in closed form.

    Mirrors ``local_weights_for_segment`` after its seed scan (whose
    ``cpu_ops`` CPU adds lead the window): a depth-first discovery that
    charges each reached rule's ``weight_and_subrules`` spans in visit
    order, then propagation in ``topo_position`` order with one CPU add
    per pushed entry.  Returns the nonzero weights, or ``None`` with
    nothing charged when the walk cannot be served warm.  ``table`` and
    ``fill`` are as for :func:`warm_word_fold`; every seed is in range.
    """
    contains = mem._cache._lines.__contains__
    touched: list[int] = []
    spans = n_subs = 0
    found: dict[int, tuple] = {}
    stack = list(seeds)
    while stack:
        rule = stack.pop()
        if rule in found:
            continue
        entry = table[rule] or fill(rule)
        if entry is None:
            return None
        subs, _, record, span, _, _, _ = entry
        if not (all(map(contains, record)) and all(map(contains, span))):
            return None
        touched += record
        if subs:
            touched += span
            spans += 1
            n_subs += len(subs)
        found[rule] = subs
        stack.extend(sub for sub, _ in subs if sub not in found)
    weights = dict(seeds)
    get = weights.get
    for rule in sorted(found, key=topo_position.__getitem__):
        weight = get(rule, 0)
        if not weight:
            continue
        subs = found[rule]
        cpu_ops += len(subs)
        for sub, freq in subs:
            weights[sub] = get(sub, 0) + weight * freq
    if not mem.clock.advance_window(len(touched), cpu_ops):
        return None
    nbytes = len(found) * record_size + n_subs * 8
    serve_hits(mem, last_touch_order(touched), len(touched), len(found) + spans, nbytes)
    return {rule: w for rule, w in weights.items() if w}
