"""Unit tests for the segment layer: pool v4 extents, SegmentedCorpus,
the manifest codec, and trace parsing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.errors import OutOfMemoryError, PoolLayoutError, ReproError
from repro.ingest import SegmentedCorpus, SegmentedEngine
from repro.ingest.trace import TraceOp, format_trace, parse_trace, synthetic_trace
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.nvm.pool import NvmPool


def _mem(size=1 << 20, track_wear=False):
    return SimulatedMemory(
        DeviceProfile.nvm(), size, SimulatedClock(), track_wear=track_wear
    )


class TestSegmentedPool:
    def test_create_get_retire_roundtrip(self):
        pool = NvmPool(_mem(), segmented=True)
        off = pool.create_segment("seg0", 4096)
        assert pool.has_segment("seg0")
        assert pool.get_segment("seg0") == (off, 4096)
        assert pool.segment_names() == ["seg0"]
        pool.retire_segment("seg0")
        assert not pool.has_segment("seg0")
        assert pool.segment_names() == []

    def test_segment_extents_are_line_aligned_and_disjoint(self):
        pool = NvmPool(_mem(), segmented=True)
        line = pool.memory.profile.line_size
        extents = []
        for i in range(4):
            off = pool.create_segment(f"s{i}", 1000 + i * 64)
            assert off % line == 0
            extents.append((off, 1000 + i * 64))
        spans = sorted((off, off + size) for off, size in extents)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_duplicate_segment_name_rejected(self):
        pool = NvmPool(_mem(), segmented=True)
        pool.create_segment("seg0", 1024)
        with pytest.raises(PoolLayoutError):
            pool.create_segment("seg0", 1024)

    def test_non_segmented_pool_rejects_segments(self):
        pool = NvmPool(_mem())
        with pytest.raises(PoolLayoutError):
            pool.create_segment("seg0", 1024)

    def test_retired_extent_is_reused_and_zeroed_at_allocation(self):
        mem = _mem()
        pool = NvmPool(mem, segmented=True)
        size = 1 << 14
        off = pool.create_segment("old", size)
        mem.write(off, b"\xab" * size)
        mem.flush()
        pool.retire_segment("old")
        assert pool.create_segment("new", size) == off  # whole-extent reuse
        nested = pool.segment_pool("new")
        for i, n in enumerate((100, 300, 8, 1000)):
            region = nested.alloc_region(f"r{i}", n)
            assert mem.peek(region, n) == bytes(n)
        line = mem.profile.line_size
        zeroed_to = -(-nested.allocator.top // line) * line
        assert nested.allocator.zero_watermark == zeroed_to
        # The nested header and the untouched tail keep the old bytes.
        assert mem.peek(off, nested.allocator.base - off) == b"\xab" * (
            nested.allocator.base - off
        )
        assert mem.peek(zeroed_to, off + size - zeroed_to) == b"\xab" * (
            off + size - zeroed_to
        )

    def test_wear_aware_placement_prefers_cold_extent(self):
        mem = _mem(track_wear=True)
        pool = NvmPool(mem, segmented=True)
        hot = pool.create_segment("hot", 4096)
        cold = pool.create_segment("cold", 4096)
        for _ in range(50):  # heat the first extent
            mem.write(hot, b"x" * 256)
            mem.flush()
        pool.retire_segment("hot")
        pool.retire_segment("cold")
        chosen = pool.create_segment("fresh", 4096)
        assert chosen == cold

    def test_wear_aware_placement_reuses_worn_extent_when_frontier_is_full(self):
        mem = _mem(size=1 << 16, track_wear=True)
        pool = NvmPool(mem, segmented=True)
        size = 4096
        worn = pool.create_segment("worn", size)
        for _ in range(50):  # any wear makes the unworn frontier score colder
            mem.write(worn, b"x" * 256)
            mem.flush()
        pool.create_segment("filler", pool.allocator.remaining - size // 2)
        assert pool.allocator.remaining < size
        pool.retire_segment("worn")
        assert pool.create_segment("fresh", size) == worn
        with pytest.raises(OutOfMemoryError):
            pool.create_segment("overflow", size)

    def test_v4_directory_survives_reopen(self):
        mem = _mem()
        pool = NvmPool(mem, segmented=True, media_protect=False)
        off = pool.create_segment("seg0", 2048)
        pool.alloc_region("plain", 128)
        pool.flush()
        reopened = NvmPool(mem)
        reopened.load_directory()
        assert reopened.segmented
        assert reopened.get_segment("seg0") == (off, 2048)
        assert reopened.has_region("plain")

    def test_nested_segment_pool_is_isolated(self):
        mem = _mem()
        pool = NvmPool(mem, segmented=True)
        base = pool.create_segment("seg0", 1 << 16)
        nested = pool.segment_pool("seg0")
        r = nested.alloc_region("inner", 256)
        assert base <= r < base + (1 << 16)
        nested.save_directory()
        pool.flush()
        again = pool.segment_pool("seg0")
        again.load_directory()
        assert again.get_region("inner") == (r, 256)


_STALE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"),
            st.integers(1, 1500),
            st.sampled_from([1, 8, 64, 256, 512]),
        ),
        st.tuples(st.just("free"), st.integers(0, 63)),
        st.tuples(st.just("crash"), st.booleans()),
        st.just(("mark",)),
        st.just(("release",)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_STALE_OPS, garbage=st.binary(min_size=1, max_size=64))
# A scope that reuses a block freed before the mark, frees its own
# scratch, and is released mid-line; then both sizes are allocated again.
@example(
    ops=[("alloc", 100, 8), ("free", 0), ("mark",), ("alloc", 100, 8),
         ("alloc", 300, 64), ("free", 1), ("release",), ("alloc", 300, 8),
         ("alloc", 100, 8)],
    garbage=b"\xab",
)
def test_stale_extent_allocations_read_zero(ops, garbage):
    """Bump allocations from a stale extent read zero; nothing else moves.

    A garbage-filled extent is recycled, then a random alloc/free/align
    program runs in its nested pool, crashing (after an optional flush)
    and reopening the outer pool wherever the program says, and marking
    and releasing a query scope.  Every zeroing fill covers space past
    the allocator's top up to a line boundary: whole lines, fetching
    nothing, except that the first fill after a release starts at the
    released mark.  Free-list reuse reports ``last_alloc_reused``; a
    release returns the free lists to the mark and leaves no live block
    above the top, so every later bump allocation reads zero; and the
    extent holds exactly what a model of the owner's writes and the
    fills predicts, so the untouched tail keeps the old owner's bytes.
    """
    mem = _mem(1 << 18)
    line = mem.profile.line_size
    size = 1 << 15
    pool = NvmPool(mem, segmented=True)
    off = pool.create_segment("old", size)
    image = bytearray((garbage * (size // len(garbage) + 1))[:size])
    mem.write(off, bytes(image))
    pool.flush()
    pool.retire_segment("old")
    assert pool.create_segment("new", size) == off
    pool.flush()
    durable = bytes(image)
    fills = []

    def recording_fill(offset, n, value=0):
        before = mem.stats.device_ns
        SimulatedMemory.fill(mem, offset, n, value)
        fills.append((offset, n, mem.stats.device_ns - before))
        image[offset - off : offset - off + n] = bytes(n)

    mem.fill = recording_fill

    def open_nested():
        nested = pool.segment_pool("new")
        assert nested.allocator.zero_watermark == nested.allocator.base
        return nested.allocator, [], {}

    alloc, live, free_lists = open_nested()
    #: (mark, live blocks at the mark, the model's free lists at the mark)
    scope = None
    released_at = None
    for op in ops:
        floor = scope[1] if scope else 0  # blocks below it outlive the scope
        if op[0] == "alloc":
            _, n, align = op
            top, fills[:] = alloc.top, []
            try:
                got = alloc.alloc(n, align)
            except OutOfMemoryError:
                continue
            expected = free_lists.get(n)
            assert alloc.last_alloc_reused == bool(expected)
            if expected:
                assert got == expected.pop()
                assert not fills
            else:
                assert mem.peek(got, n) == bytes(n)
                for start, length, device_ns in fills:
                    assert start >= top and (start + length) % line == 0
                    if start != released_at:
                        assert start % line == 0 and device_ns == 0
            stamp = bytes([len(live) % 255 + 1]) * n
            mem.write(got, stamp)
            image[got - off : got - off + n] = stamp
            live.append((got, n))
        elif op[0] == "free" and len(live) > floor:
            got, n = live.pop(floor + op[1] % (len(live) - floor))
            alloc.free(got, n)
            free_lists.setdefault(n, []).append(got)
        elif op[0] == "mark" and scope is None:
            saved = {n: list(blocks) for n, blocks in free_lists.items()}
            scope = (alloc.mark(), len(live), saved)
        elif op[0] == "release" and scope is not None:
            mark, floor, free_lists = scope
            alloc.release(mark)
            del live[floor:]
            scope = None
            released_at = alloc.top
            assert alloc.mark() == mark  # top, free lists, allocated bytes
            assert alloc.zero_watermark <= alloc.top
            assert all(got + n <= alloc.top for got, n in live)
            assert all(
                got < alloc.top for blocks in free_lists.values() for got in blocks
            )
        elif op[0] == "crash":
            if op[1]:
                pool.flush()
                durable = bytes(image)
            mem.crash()
            image[:] = durable
            pool = NvmPool(mem)
            pool.load_directory()
            alloc, live, free_lists = open_nested()
            scope = released_at = None
        assert mem.peek(off, size) == bytes(image)


class TestSegmentedCorpus:
    def _corpus(self, threshold=8):
        return SegmentedCorpus(seal_threshold_tokens=threshold)

    def test_append_seal_shares_dictionary(self):
        c = self._corpus()
        c.append("a", "red green blue")
        s1 = c.seal()
        c.append("b", "green blue yellow")
        s2 = c.seal()
        # Earlier segment's vocab is a prefix of the later one's.
        assert s2.corpus.vocab[: len(s1.corpus.vocab)] == s1.corpus.vocab
        green = s1.corpus.vocab.index("green")
        assert s2.corpus.vocab[green] == "green"

    def test_duplicate_live_name_rejected(self):
        c = self._corpus()
        c.append("a", "one")
        with pytest.raises(ReproError):
            c.append("a", "two")
        c.seal()
        with pytest.raises(ReproError):
            c.append("a", "three")

    def test_name_reusable_after_delete(self):
        c = self._corpus()
        c.append("a", "one two")
        c.seal()
        c.delete("a")
        c.append("a", "three four")  # tombstoned name is free again
        assert c.live_doc_names() == ["a"]

    def test_should_seal_threshold(self):
        c = self._corpus(threshold=4)
        c.append("a", "one two")
        assert not c.should_seal
        c.append("b", "three four")
        assert c.should_seal

    def test_delete_from_buffer_removes_outright(self):
        c = self._corpus()
        c.append("a", "one two three")
        kind, _ = c.delete("a")
        assert kind == "buffer"
        assert c.buffered_tokens == 0
        assert c.seal() is None

    def test_delete_from_segment_plants_tombstone(self):
        c = self._corpus()
        c.append("a", "one")
        c.append("b", "two")
        c.seal()
        kind, seg_index = c.delete("a")
        assert (kind, seg_index) == ("segment", 0)
        assert c.segments[0].tombstones == {0}
        assert c.live_doc_names() == ["b"]
        with pytest.raises(ReproError):
            c.delete("a")  # already dead

    def test_compact_preserves_global_order(self):
        c = self._corpus()
        for i in range(6):
            c.append(f"d{i}", f"word{i} common text")
            if i % 2 == 1:
                c.seal()
        c.delete("d2")
        before = c.live_doc_names()
        retired, merged = c.compact(upto=2)
        assert [s.name for s in retired] == ["seg000000", "seg000001"]
        assert merged.corpus.file_names == ["d0", "d1", "d3"]
        assert c.live_doc_names() == before

    def test_compact_all_tombstoned_vanishes(self):
        c = self._corpus()
        c.append("a", "one")
        c.seal()
        c.append("b", "two")
        c.seal()
        c.delete("a")
        retired, merged = c.compact(upto=1)
        assert merged is None
        assert len(retired) == 1
        assert c.live_doc_names() == ["b"]

    def test_compact_bad_range(self):
        c = self._corpus()
        with pytest.raises(ValueError):
            c.compact()
        c.append("a", "one")
        c.seal()
        with pytest.raises(ValueError):
            c.compact(upto=2)

    def test_recompressed_empty_raises(self):
        c = self._corpus()
        with pytest.raises(ReproError):
            c.recompressed()

    def test_recompressed_matches_live_docs(self):
        c = self._corpus()
        c.append("a", "alpha beta")
        c.append("b", "beta gamma")
        c.seal()
        c.delete("a")
        c.append("c", "gamma delta")
        ref = c.recompressed()
        assert ref.file_names == ["b", "c"]
        assert ref.expand_text() == ["beta gamma", "gamma delta"]

    def test_from_segments_roundtrip(self):
        c = self._corpus()
        for i in range(4):
            c.append(f"d{i}", f"shared tokens w{i}")
            c.seal()
        c.delete("d1")
        rebuilt = SegmentedCorpus.from_segments(list(c.segments))
        assert rebuilt.live_doc_names() == c.live_doc_names()
        assert rebuilt.dictionary.words() == c.dictionary.words()
        rebuilt.append("d9", "shared tokens more")
        seg = rebuilt.seal()
        assert seg.name == "seg000004"  # id continues past the max seen


class TestManifest:
    def test_manifest_roundtrip_via_engine(self):
        eng = SegmentedEngine(EngineConfig(), seal_threshold_tokens=4)
        eng.append("a", "one two three four")  # auto-seals
        eng.append("b", "five six seven eight")
        eng.seal()
        eng.delete("a")
        entries = eng._read_manifest()
        assert [name for name, _, _ in entries] == ["seg000000", "seg000001"]
        assert entries[0][2] == [0]  # a's tombstone is durable
        assert entries[1][2] == []

    def test_oversized_manifest_rejected(self):
        eng = SegmentedEngine(EngineConfig())
        eng.corpus.append("a", "x " * 4)
        seg = eng.corpus.seal()
        seg.tombstones.update(range(20000))  # blows the 64 KiB region
        eng.corpus.segments = [seg]
        with pytest.raises(ReproError):
            eng._manifest_blob()


class TestTrace:
    def test_parse_format_roundtrip(self):
        ops = synthetic_trace(n_docs=5, doc_tokens=4, rounds=2, seed=11)
        assert parse_trace(format_trace(ops)) == ops

    def test_parse_skips_comments_and_blanks(self):
        ops = parse_trace("# hi\n\nappend a x y\nseal\ncheckpoint\n")
        assert ops == [
            TraceOp("append", "a", "x y"),
            TraceOp("seal"),
            TraceOp("checkpoint"),
        ]

    def test_parse_rejects_bad_ops(self):
        with pytest.raises(ReproError):
            parse_trace("frobnicate a")
        with pytest.raises(ReproError):
            parse_trace("append lonely")
        with pytest.raises(ReproError):
            parse_trace("delete")
        with pytest.raises(ReproError):
            parse_trace("seal extra")
