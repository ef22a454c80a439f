"""Property tests for the memory model and allocator invariants."""

import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, CrashPoint, OutOfMemoryError
from repro.kernels import hashops
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan, MediaFault, ReadCorruption, TornFlush
from repro.nvm.flightrec import FlightRecorder
from repro.nvm.memory import SimulatedMemory
from repro.pstruct.phashtable import PHashTable

_SIZE = 1 << 14


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "flush"]),
            st.integers(0, _SIZE - 1),
            st.integers(1, 128),
            st.binary(min_size=1, max_size=128),
        ),
        max_size=50,
    ),
    device=st.sampled_from(["dram", "nvm", "reram", "pcm", "ssd", "hdd"]),
)
def test_memory_contents_match_model(ops, device):
    """Whatever the op mix or device, contents track a plain bytearray
    and the clock never runs backwards."""
    mem = SimulatedMemory(DeviceProfile.by_name(device), _SIZE, cache_bytes=1 << 10)
    model = bytearray(_SIZE)
    last_ns = 0.0
    for op, offset, size, payload in ops:
        size = min(size, _SIZE - offset)
        if size <= 0:
            continue
        if op == "read":
            assert mem.read(offset, size) == bytes(model[offset : offset + size])
        elif op == "write":
            data = (payload * ((size // len(payload)) + 1))[:size]
            mem.write(offset, data)
            model[offset : offset + size] = data
        else:
            mem.flush()
        assert mem.clock.ns >= last_ns, "clock ran backwards"
        last_ns = mem.clock.ns
    # Full sweep at the end.
    assert mem.peek(0, _SIZE) == bytes(model)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(8, 512)),
        max_size=60,
    ),
    scatter=st.booleans(),
)
def test_allocator_never_overlaps_live_blocks(ops, scatter):
    mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 20)
    allocator = PoolAllocator(mem, base=0, capacity=1 << 20, scatter=scatter)
    live: list[tuple[int, int]] = []
    for op, size in ops:
        if op == "alloc":
            offset = allocator.alloc(size)
            for other_offset, other_size in live:
                assert (
                    offset + size <= other_offset
                    or offset >= other_offset + other_size
                ), "allocator returned overlapping live blocks"
            live.append((offset, size))
        elif live:
            offset, size = live.pop()
            allocator.free(offset, size)
    assert allocator.allocated_bytes == sum(s for _, s in live)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, _SIZE - 64), st.binary(min_size=1, max_size=64)),
        max_size=30,
    ),
    crash_after_flush=st.booleans(),
)
def test_crash_restores_exactly_the_flushed_image(writes, crash_after_flush):
    mem = SimulatedMemory(DeviceProfile.nvm(), _SIZE)
    flushed = bytearray(_SIZE)
    for i, (offset, data) in enumerate(writes):
        mem.write(offset, data)
        if i % 3 == 2:
            mem.flush()
            flushed = bytearray(mem.peek(0, _SIZE))
    if crash_after_flush:
        mem.flush()
        flushed = bytearray(mem.peek(0, _SIZE))
    mem.crash()
    assert mem.peek(0, _SIZE) == bytes(flushed)


# ---------------------------------------------------------------------------
# crash() against the whole-device rule
# ---------------------------------------------------------------------------

#: The flight-recorder window of the crash programs: line-aligned on both
#: the ``nvm`` (256 B) and ``dram`` (64 B) profiles.
_WINDOW = (_SIZE - 4096, _SIZE - 2048)
#: Hash tables live here, clear of the window.
_HEAP = (4096, 8192)


def _whole_device_image(mem: SimulatedMemory) -> bytes:
    """What ``crash()`` once restored by copying the whole device: the
    last flushed image of a persistent device, or zeros."""
    image = mem._flushed_image
    if mem.profile.persistent and image is not None:
        return bytes(image)
    return bytes(mem.size)


def _crash_and_check(mem: SimulatedMemory) -> None:
    expected = _whole_device_image(mem)
    mem.crash()
    assert mem.peek(0, mem.size) == expected
    assert mem.dirty_line_count == 0


_blob = st.binary(min_size=1, max_size=300)
_crash_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, _SIZE - 300), _blob),
        st.tuples(
            st.just("fill"), st.integers(0, _SIZE - 1024), st.integers(1, 1024),
            st.integers(0, 255),
        ),
        st.tuples(
            st.just("rmw"),
            st.lists(st.tuples(st.integers(0, 511), st.integers(1, 9)), max_size=12),
        ),
        st.tuples(st.just("poke"), st.integers(0, _SIZE - 300), _blob),
        st.tuples(st.just("poke"), st.integers(*_WINDOW).map(lambda o: o - 40), _blob),
        st.tuples(st.just("read"), st.integers(0, _SIZE - 512), st.integers(1, 512)),
        st.tuples(st.just("hash"), st.lists(st.integers(0, 1 << 40), min_size=1,
                                            max_size=24, unique=True)),
        st.just(("detach",)),
        st.just(("flush",)),
        st.just(("crash",)),
    ),
    max_size=40,
)
_fault_specs = st.one_of(
    st.none(),
    st.tuples(
        st.integers(1, 4),  # the flush that tears
        st.one_of(st.none(), st.integers(0, 99)),  # write-back order seed
        st.integers(0, 6),  # whole lines persisted
        st.integers(0, 200),  # bytes of the next line
        st.integers(0, _SIZE - 2),  # sticky read corruption
        st.integers(0, _SIZE - 1),  # media bit flip
    ),
)


_W = b"w" * 300
_P = b"p" * 40


@settings(max_examples=150, deadline=None)
@given(
    device=st.sampled_from(["nvm", "dram"]),
    cache_lines=st.sampled_from([2, None]),
    recorder=st.booleans(),
    faults=_fault_specs,
    ops=_crash_ops,
)
# A volatile flush hands its lines to the restore set.
@example("dram", None, False, None, [("write", 100, _W), ("flush",), ("crash",)])
# A never-flushed persistent device zeroes what was written.
@example("nvm", None, False, None, [("write", 100, _W), ("poke", 3000, _P)])
# A poke after the last flush reverts.
@example("nvm", None, False, None, [("write", 100, _W), ("flush",), ("poke", 100, _P)])
# Recorder pokes, flushed and not, and a detached window.
@example("nvm", None, True, None,
         [("poke", _WINDOW[0] + 64, _P), ("flush",), ("poke", _WINDOW[0] + 512, _P)])
@example("nvm", None, True, None,
         [("flush",), ("poke", _WINDOW[0] + 512, _P), ("detach",), ("crash",)])
@example("dram", None, True, None, [("poke", _WINDOW[0] + 64, _P)])
# Dirty evictions from a 2-line cache still revert.
@example("nvm", 2, False, None,
         [("write", 0, _W), ("write", 2048, _W), ("write", 5000, _W), ("crash",)])
# Hoisted rmw and hash-probe stores.
@example("nvm", None, False, None,
         [("flush",), ("rmw", [(3, 1), (3, 2), (40, 5)]), ("hash", [1, 2, 3, 99])])
# A torn flush, then sticky corruption and a media bit flip surfaced by
# a read of flushed lines.
@example("nvm", None, True, (2, 7, 1, 24, 300, 700),
         [("write", 0, _W), ("write", 600, _W), ("flush",), ("write", 0, _W[:8]),
          ("write", 2000, _W), ("flush",), ("read", 256, 512), ("crash",)])
def test_crash_matches_the_whole_device_rule(device, cache_lines, recorder, faults, ops):
    """crash() rewrites only its restore set, yet every crash leaves the
    bytes the whole-device copy left: charged writes, fills, hoisted
    rmw and hash-probe stores, pokes in and out of the recorder window,
    a detached window, torn flushes, sticky read corruption and media
    patches, on persistent and volatile devices, with a 2-line cache
    that evicts dirty lines or one that never does.  A torn flush
    raises :class:`CrashPoint`, and a crash follows, as in the sweeps."""
    profile = DeviceProfile.by_name(device)
    cache_bytes = cache_lines * profile.line_size if cache_lines else 1 << 20
    mem = SimulatedMemory(profile, _SIZE, cache_bytes=cache_bytes)
    if recorder:
        # Its snapshot slot is poked into the window at every flush.
        mem.attach_flight_recorder(
            FlightRecorder(
                mem, _WINDOW[0], _WINDOW[1] - _WINDOW[0], slot_size=128,
                snapshot_provider=lambda: {"ns": mem.clock.ns},
            )
        )
    if faults is not None:
        flush_index, seed, persisted, partial, corrupt_at, flip_at = faults
        mem.arm_faults(
            FaultPlan(
                "flush",
                flush_index,
                torn=TornFlush(seed, persisted, partial),
                corruptions=[ReadCorruption(corrupt_at, b"\x5a\xa5", sticky=True)],
                media_faults=[MediaFault("bitflip", flip_at, b"\x0f")],
            )
        )
    allocator = PoolAllocator(mem, base=_HEAP[0], capacity=_HEAP[1] - _HEAP[0])
    for op in ops:
        kind = op[0]
        if kind == "write":
            mem.write(op[1], op[2])
        elif kind == "fill":
            mem.fill(op[1], op[2], op[3])
        elif kind == "rmw":
            try:
                mem.rmw_add_each([(off * 8, delta) for off, delta in op[1]], 8, signed=True)
            except OverflowError:  # a counter that earlier writes left near its limit
                continue
        elif kind == "poke":
            mem.poke(op[1], op[2])
        elif kind == "read":
            mem.read(op[1], op[2])
        elif kind == "hash":
            # Earlier writes may have left garbage in the slots a new table
            # gets, or used up the heap.
            try:
                table = PHashTable.create(allocator, len(op[1]))
                table.insert_many([(key, key * 3) for key in op[1]])
                table.add_many([(key, 1) for key in op[1]])
            except (OutOfMemoryError, CapacityError):
                continue
        elif kind == "detach":
            mem.detach_flight_recorder()
        elif kind == "flush":
            try:
                mem.flush()
            except CrashPoint:
                _crash_and_check(mem)
        else:
            _crash_and_check(mem)
    _crash_and_check(mem)


def test_bottomup_build_crash_matches_the_whole_device_rule(monkeypatch):
    """The fused bottom-up build stores through its inline hit path;
    every crash of a segmented engine running it restores the bytes the
    whole-device copy restores."""
    from repro.core.engine import EngineConfig
    from repro.ingest import SegmentedEngine

    builds = []
    real_build = hashops.build_wordlists

    def counting_build(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(hashops, "build_wordlists", counting_build)
    config = EngineConfig(traversal="bottomup")
    eng = SegmentedEngine(config, seal_threshold_tokens=30)
    for i in range(9):
        eng.append(f"doc{i}.txt", "compressed text analytics " * 3 + f"u{i} s{i % 3}")
    eng.seal()
    for _ in range(2):
        eng.run_tasks(["word_count", "term_vector"])
        eng.append("late.txt", "never sealed")
        mem, artifacts = eng.memory, dict(eng.artifacts)
        _crash_and_check(mem)
        eng = SegmentedEngine.reopen(mem, artifacts, config)
    assert builds, "the fused bottom-up build never ran"


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_crash_of_a_large_device_touches_only_its_restore_set():
    """A 128 MiB device with a few dirty lines crashes without faulting
    in its buffer or its crash image (a whole-device copy grows RSS by
    about twice the device size)."""
    mem = SimulatedMemory(DeviceProfile.nvm(), 128 << 20)
    mem.write(0, b"flushed")
    mem.flush()
    for offset in (4096, 1 << 20, 100 << 20):
        mem.write(offset, b"dirty")
    before = _rss_bytes()
    mem.crash()
    assert _rss_bytes() - before < 8 << 20
    assert mem.peek(0, 7) == b"flushed"
    assert mem.peek(1 << 20, 5) == bytes(5)
