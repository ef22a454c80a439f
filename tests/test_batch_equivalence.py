"""Differential equivalence of the fast and per-line reference cost models.

``SimulatedMemory`` charges every access through one of two
implementations: the per-line reference loop (``reference=True``) and the
fast path (the default: single-line rules in ``read``/``write``, the
run-length span rule, the hoisted ``rmw_add_each`` loop).  The fast path
exists purely for wall-clock speed -- simulated time, statistics, cache
state, wear and buffer contents must be *identical*, or every figure
built on the simulator silently drifts.

This suite replays randomized access traces (reads, writes, fills,
flushes, crashes; aligned and unaligned spans; single-byte to multi-line)
through a reference memory and a fast memory and asserts the complete
observable state matches exactly.  All memory-op charges are
integer-valued nanoseconds, so the closed-form run sums are bitwise equal
to the per-line additions -- ``==`` on ``clock.ns``, not ``approx``.
Tiny caches (down to a single line) force heavy eviction traffic,
including the corner where an eviction victim is re-touched later inside
the same span.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import InvalidAccessError
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan
from repro.nvm.memory import SimulatedMemory

_PROFILES = ("nvm", "dram", "ssd", "hdd", "reram", "pcm")
_CACHE_LINES = (1, 2, 3, 8, 64)
_SEEDS_PER_CONFIG = 9
_DEVICE_LINES = 64  # small device -> frequent line reuse and conflicts

CASES = [
    (profile, cache_lines, seed)
    for profile in _PROFILES
    for cache_lines in _CACHE_LINES
    for seed in range(_SEEDS_PER_CONFIG)
]
assert len(CASES) >= 200


def _random_trace(rng: random.Random, size: int, line_size: int) -> list[tuple]:
    """A randomized op sequence exercising every span shape."""
    ops: list[tuple] = []
    for _ in range(rng.randrange(40, 80)):
        roll = rng.random()
        if roll < 0.90:
            offset = rng.randrange(size)
            if rng.random() < 0.3:
                offset -= offset % line_size  # line-aligned start
            max_span = line_size * rng.choice((1, 1, 1, 2, 4, 9, 40))
            length = min(rng.randrange(max_span + 1), size - offset)
            if rng.random() < 0.2:
                length -= length % line_size  # line-aligned end (maybe 0)
            kind = rng.random()
            if kind < 0.40:
                ops.append(("read", offset, length))
            elif kind < 0.85:
                ops.append(("write", offset, rng.randbytes(length)))
            else:
                ops.append(("fill", offset, length, rng.randrange(256)))
        elif roll < 0.97:
            ops.append(("flush",))
        else:
            ops.append(("crash",))
    return ops


def _replay(mem: SimulatedMemory, ops: list[tuple]) -> None:
    for op in ops:
        if op[0] == "read":
            mem.read(op[1], op[2])
        elif op[0] == "write":
            mem.write(op[1], op[2])
        elif op[0] == "fill":
            mem.fill(op[1], op[2], op[3])
        elif op[0] == "flush":
            mem.flush()
        else:
            mem.crash()


def _state(mem: SimulatedMemory) -> dict:
    """Every piece of observable simulator state."""
    return {
        "ns": mem.clock.ns,
        "stats": mem.stats.as_dict(),
        "dirty_lines": set(mem._dirty_lines),
        "media_lines": set(mem._media_lines),
        "last_media_line": mem._last_media_line,
        "evict_programmed": set(mem._evict_programmed),
        "cache": list(mem._cache._lines.items()),  # content + LRU order
        "wear": dict(mem.wear),
        "buffer": mem.peek(0, mem.size),
    }


def _make_pair(
    profile_name: str, cache_lines: int
) -> tuple[SimulatedMemory, SimulatedMemory, int]:
    profile = DeviceProfile.by_name(profile_name)
    size = profile.line_size * _DEVICE_LINES
    kwargs = dict(
        size=size,
        cache_bytes=profile.line_size * cache_lines,
        track_wear=True,
    )
    reference = SimulatedMemory(profile, reference=True, **kwargs)
    batched = SimulatedMemory(profile, **kwargs)
    return reference, batched, size


@pytest.mark.parametrize("profile_name,cache_lines,seed", CASES)
def test_randomized_trace_equivalence(profile_name, cache_lines, seed):
    reference, batched, size = _make_pair(profile_name, cache_lines)
    rng = random.Random(f"{profile_name}-{cache_lines}-{seed}")
    ops = _random_trace(rng, size, reference.profile.line_size)
    _replay(reference, ops)
    _replay(batched, ops)
    assert _state(batched) == _state(reference)


def _random_rmw_trace(
    rng: random.Random, size: int, line_size: int
) -> list[tuple]:
    """Ops mixing plain accesses with fused scalar-field accessors."""
    ops: list[tuple] = []
    for _ in range(rng.randrange(30, 60)):
        roll = rng.random()
        if roll < 0.30:
            field = rng.choice((4, 8))
            offset = rng.randrange(size - field)
            if rng.random() < 0.7:
                offset -= offset % field  # aligned (the common layout)
            ops.append(("rmw", offset, field, rng.randrange(1, 1000)))
        elif roll < 0.45:
            field = rng.choice((4, 8))
            sites = [
                (rng.randrange(size - field), rng.randrange(1, 50))
                for _ in range(rng.randrange(1, 30))
            ]
            ops.append(("rmw_each", field, sites))
        elif roll < 0.60:
            field = rng.choice((1, 2, 4, 8))
            offset = rng.randrange(size - field)
            if rng.random() < 0.7:
                offset -= offset % field
            ops.append(("ruint", offset, field))
        elif roll < 0.75:
            field = rng.choice((1, 2, 4, 8))
            offset = rng.randrange(size - field)
            if rng.random() < 0.7:
                offset -= offset % field
            ops.append(("wuint", offset, field, rng.randrange(1 << (8 * field))))
        else:
            offset = rng.randrange(size)
            length = min(rng.randrange(line_size * 3 + 1), size - offset)
            if rng.random() < 0.5:
                ops.append(("read", offset, length))
            else:
                ops.append(("write", offset, rng.randbytes(length)))
    return ops


def _replay_rmw(mem: SimulatedMemory, ops: list[tuple], fused: bool) -> None:
    for op in ops:
        if op[0] == "rmw":
            _, offset, field, delta = op
            if fused:
                mem.rmw_add(offset, field, delta)
            else:
                value = int.from_bytes(mem.read(offset, field), "little") + delta
                mem.write(offset, value.to_bytes(field, "little"))
        elif op[0] == "rmw_each":
            _, field, sites = op
            if fused:
                mem.rmw_add_each(sites, field)
            else:
                for offset, delta in sites:
                    value = (
                        int.from_bytes(mem.read(offset, field), "little") + delta
                    )
                    mem.write(offset, value.to_bytes(field, "little"))
        elif op[0] == "ruint":
            _, offset, field = op
            if fused:
                got = mem.read_uint(offset, field)
            else:
                got = int.from_bytes(mem.read(offset, field), "little")
            assert got == int.from_bytes(mem.peek(offset, field), "little")
        elif op[0] == "wuint":
            _, offset, field, value = op
            if fused:
                mem.write_uint(offset, field, value)
            else:
                mem.write(offset, value.to_bytes(field, "little"))
        else:
            _replay(mem, [op])


RMW_CASES = [
    (profile, cache_lines, seed)
    for profile in _PROFILES
    for cache_lines in (1, 2, 8)
    for seed in range(5)
]


@pytest.mark.parametrize("profile_name,cache_lines,seed", RMW_CASES)
def test_fused_rmw_equivalence(profile_name, cache_lines, seed):
    """rmw_add / rmw_add_each == the explicit read+write sequence.

    The reference memory (per-line model) replays every RMW as a literal
    read followed by a write; the fast memory uses the fused APIs.
    Unaligned sites exercise the line-straddling fallback; 1-line caches
    force the read half to evict on nearly every site.
    """
    reference, batched, size = _make_pair(profile_name, cache_lines)
    rng = random.Random(f"rmw-{profile_name}-{cache_lines}-{seed}")
    ops = _random_rmw_trace(rng, size, reference.profile.line_size)
    _replay_rmw(reference, ops, fused=False)
    _replay_rmw(batched, ops, fused=True)
    assert _state(batched) == _state(reference)


def test_fused_rmw_reference_mode_matches_too():
    """With reference=True, the fused APIs are literal read+write --
    the reference model stays the executable spec."""
    profile = DeviceProfile.nvm()
    size = profile.line_size * _DEVICE_LINES
    kwargs = dict(size=size, cache_bytes=profile.line_size * 2, track_wear=True)
    unbatched_fused = SimulatedMemory(profile, reference=True, **kwargs)
    unbatched_explicit = SimulatedMemory(profile, reference=True, **kwargs)
    ops = _random_rmw_trace(random.Random("ref-mode"), size, profile.line_size)
    _replay_rmw(unbatched_fused, ops, fused=True)
    _replay_rmw(unbatched_explicit, ops, fused=False)
    assert _state(unbatched_fused) == _state(unbatched_explicit)


class TestDirectedCorners:
    """Hand-picked span shapes the random generator hits only by luck."""

    def _both(self, ops, profile_name="nvm", cache_lines=2):
        reference, batched, _ = self._pair = _make_pair(profile_name, cache_lines)
        _replay(reference, ops)
        _replay(batched, ops)
        assert _state(batched) == _state(reference)

    def test_zero_size_ops(self):
        self._both([("read", 100, 0), ("write", 100, b""), ("fill", 100, 0, 7)])

    def test_full_line_overwrite_skips_fetch(self):
        ls = 256
        self._both(
            [
                ("write", 0, b"a" * ls),
                ("flush",),
                ("write", 0, b"b" * ls),  # covered: no fetch despite media
                ("write", ls + 1, b"c" * (ls - 2)),  # unaligned both ends
            ]
        )

    def test_span_wider_than_cache(self):
        # 10-line span through a 1-line cache: every line evicts its
        # predecessor, and the write-backs interleave with the fetches.
        self._both(
            [("write", 0, b"x" * 2560), ("read", 0, 2560), ("write", 128, b"y" * 2300)],
            cache_lines=1,
        )

    def test_victim_retouched_in_same_span(self):
        # Line 0 is dirty in a 1-line cache; a span over lines 0..3 first
        # hits line 0, evicts it at line 1, and the no-fetch decision for
        # later lines must see the eviction's media update.
        self._both(
            [
                ("write", 0, b"a" * 256),
                ("write", 0, b"b" * 1024),
                ("read", 0, 1024),
            ],
            cache_lines=1,
        )

    def test_sequential_discount_across_calls(self):
        ls = 256
        self._both(
            [
                ("read", 0, ls),       # miss line 0
                ("read", ls, ls),      # miss line 1, sequential
                ("read", 10 * ls, ls), # random jump
                ("read", 11 * ls, 3 * ls),  # sequential continuation run
            ]
        )

    def test_rmw_miss_writes_back_the_next_line_sequentially(self):
        # Line 1 is dirty in a 1-line cache; an rmw_add_each site on
        # line 0 fetches line 0 and evicts line 1 = line 0 + 1, so the
        # write-back takes the sequential price.
        ls = 256
        reference, batched, _ = _make_pair("nvm", 1)
        ops = [("write", ls, b"a" * ls), ("rmw_each", 8, [(0, 5)])]
        _replay_rmw(reference, ops, fused=False)
        _replay_rmw(batched, ops, fused=True)
        assert _state(batched) == _state(reference)
        profile = batched.profile
        assert batched.stats.writebacks == 1
        assert batched.clock.ns == (
            1.0 + profile.read_ns + profile.seq_write_ns + 2 * profile.syscall_ns + 1.0
        )

    def test_flush_then_rewrite_wears_once_per_program(self):
        self._both(
            [
                ("write", 0, b"a" * 256),
                ("flush",),
                ("write", 0, b"b" * 256),
                ("flush",),
            ]
        )


def test_cpu_interleaved_traces_stay_close():
    """Mixed cpu()/memory traces: the clock holds fractional ns, where
    float addition order can differ by ulps between the two paths.  The
    drift must stay at rounding-noise level."""
    reference, batched, size = _make_pair("nvm", 2)
    rng = random.Random(20240806)
    ops = _random_trace(rng, size, reference.profile.line_size)
    for mem in (reference, batched):
        replay_rng = random.Random(1)
        for op in ops:
            mem.clock.cpu(replay_rng.randrange(5))
            _replay(mem, [op])
    assert batched.clock.ns == pytest.approx(reference.clock.ns, rel=1e-12)
    ref_state = _state(reference)
    fast_state = _state(batched)
    for key in ("dirty_lines", "media_lines", "wear", "buffer", "cache"):
        assert fast_state[key] == ref_state[key]


#: (size, signed) -> (near-limit start value, per-site delta) pairs; each
#: width gets one batch that overflows and one that lands exactly on the
#: limit, at both ends of the signed range.
_LIMIT_CASES = [
    (size, signed, start, delta)
    for size, signed in ((4, False), (4, True), (8, False), (8, True))
    for start, delta in (
        ((1 << (8 * size - signed)) - 10, 100),  # past the top: overflows
        ((1 << (8 * size - signed)) - 101, 100),  # lands on the top: fits
        (-(1 << (8 * size - 1)) + 10 if signed else 10, -100),  # past the bottom
        (-(1 << (8 * size - 1)) + 100 if signed else 100, -100),  # lands on it
    )
]


@pytest.mark.parametrize("size,signed,start,delta", _LIMIT_CASES)
def test_rmw_add_each_overflows_like_sequential_rmw_add(size, signed, start, delta):
    """80 sites near a width's limit: the batch raises exactly when the
    one-by-one ``rmw_add`` calls raise, and otherwise stores the same
    values (no silent wrap-around)."""
    sites = [(i * 8, delta) for i in range(80)]

    def run(batch: bool):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        for offset, _ in sites:
            mem.poke(offset, start.to_bytes(size, "little", signed=signed))
        try:
            if batch:
                mem.rmw_add_each(sites, size, signed=signed)
            else:
                for offset, d in sites:
                    mem.rmw_add(offset, size, d, signed=signed)
        except OverflowError:
            return "overflow"
        return [
            int.from_bytes(mem.peek(offset, size), "little", signed=signed)
            for offset, _ in sites
        ]

    expected = run(batch=False)
    assert run(batch=True) == expected
    low = -(1 << (8 * size - 1)) if signed else 0
    high = (1 << (8 * size - signed)) - 1
    assert (expected == "overflow") == (not low <= start + delta <= high)


#: (size, signed) -> (start, first delta, second delta): a same-site pair
#: whose first step crosses a width limit and whose second comes back, so
#: the summed delta lands in range.
_CROSS_AND_BACK = [
    (size, signed, start, first, second)
    for size, signed in ((4, False), (4, True), (8, False), (8, True))
    for start, first, second in (
        ((1 << (8 * size - signed)) - 11, 100, -200),  # over the top, back
        (-(1 << (8 * size - 1)) + 10 if signed else 10, -100, 200),  # under
    )
]


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("size,signed,start,first,second", _CROSS_AND_BACK)
def test_rmw_add_each_mixed_sign_batch_overflows_like_sequential_rmw_add(
    reference, size, signed, start, first, second
):
    """A batch whose same-site deltas cross a width limit and come back
    raises where the one-by-one ``rmw_add`` calls raise, although the
    summed deltas fit."""
    low = -(1 << (8 * size - 1)) if signed else 0
    high = (1 << (8 * size - signed)) - 1
    assert low <= start + first + second <= high
    offsets = [i * 8 for i in range(40)]
    sites = [(o, first) for o in offsets] + [(o, second) for o in offsets]

    def memory() -> SimulatedMemory:
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16, reference=reference)
        for offset in offsets:
            mem.poke(offset, start.to_bytes(size, "little", signed=signed))
        return mem

    with pytest.raises(OverflowError):
        sequential = memory()
        for offset, delta in sites:
            sequential.rmw_add(offset, size, delta, signed=signed)
    with pytest.raises(OverflowError):
        memory().rmw_add_each(sites, size, signed=signed)


@pytest.mark.parametrize("reference", [False, True])
def test_out_of_range_access_fault_hooks_match_read_and_write(reference):
    """An out-of-range access raises before any read hook fires, so it
    never shifts a fault plan's read ordinals: ``read_uint`` and
    ``rmw_add`` leave the plan exactly as ``read`` does, ``write_uint``
    exactly as ``write`` does (which counts its write event first)."""

    def observe(access):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 12, reference=reference)
        plan = FaultPlan()
        seen: list = []
        plan.on_read = lambda _mem, offset, size: seen.append((offset, size))
        mem.arm_faults(plan)
        with pytest.raises(InvalidAccessError):
            access(mem, mem.size)
        return plan.reads, dict(plan.events), seen, mem.clock.ns

    as_read = observe(lambda mem, off: mem.read(off, 8))
    as_write = observe(lambda mem, off: mem.write(off, bytes(8)))
    assert as_read[0] == 0 and as_write[1]["write"] == 1
    assert observe(lambda mem, off: mem.read_uint(off, 8)) == as_read
    assert observe(lambda mem, off: mem.rmw_add(off, 8, 1)) == as_read
    assert observe(lambda mem, off: mem.write_uint(off, 8, 1)) == as_write
