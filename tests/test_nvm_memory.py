"""Unit tests for the simulated memory, cache model, and crash semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CrashPoint, InvalidAccessError
from repro.nvm.cache import LineCache
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan, TornFlush
from repro.nvm.memory import SimulatedClock, SimulatedMemory


def make_nvm(size=1 << 16, cache_bytes=1 << 12):
    return SimulatedMemory(DeviceProfile.nvm(), size, cache_bytes=cache_bytes)


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().ns == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(10.5)
        clock.advance(4.5)
        assert clock.ns == 15.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_cpu_charges_per_op(self):
        clock = SimulatedClock()
        clock.cpu(100)
        assert clock.ns == pytest.approx(100 * SimulatedClock.CPU_OP_NS)


def _sequential(ns: float, adds) -> float:
    """``adds`` one at a time: ``None`` is a ``cpu(1)``, an int an integer charge."""
    clock = SimulatedClock()
    clock.ns = ns
    for add in adds:
        if add is None:
            clock.cpu(1)
        else:
            clock.ns += float(add)
    return clock.ns


def _window(ns: float, adds) -> tuple[bool, float]:
    clock = SimulatedClock()
    clock.ns = ns
    accepted = clock.advance_window(
        sum(add for add in adds if add is not None),
        sum(add is None for add in adds),
    )
    return accepted, clock.ns


#: Start times across the binades, with many just below a power of two.
_STARTS = st.one_of(
    st.floats(min_value=0.0, max_value=2.0**53, allow_nan=False),
    st.builds(
        lambda k, back: 2.0**k - back,
        st.integers(min_value=1, max_value=53),
        st.floats(min_value=0.0, max_value=64.0),
    ),
    st.builds(
        lambda whole, frac: whole + frac * 1.2,
        st.integers(min_value=4, max_value=1 << 40),
        st.integers(min_value=0, max_value=9),
    ),
)
_ADDS = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=600)), max_size=60
)


class TestClockWindow:
    """``advance_window`` equals every sequential order of its adds, or declines."""

    @settings(max_examples=400, deadline=None)
    @given(_STARTS, _ADDS, st.randoms(use_true_random=False))
    def test_accepted_window_equals_every_order(self, ns, adds, rng):
        accepted, got = _window(ns, adds)
        if not accepted:
            assert got == ns
            return
        orders = [list(adds), sorted(adds, key=lambda add: add is None)]
        for _ in range(3):
            order = list(adds)
            rng.shuffle(order)
            orders.append(order)
        for order in orders:
            assert got == _sequential(ns, order)

    def test_typical_window_is_accepted(self):
        adds = [None, 3, None, None, 1, 2, None] * 20
        accepted, got = _window(123456.7, adds)
        assert accepted
        assert got == _sequential(123456.7, adds)

    @pytest.mark.parametrize("k", [3, 10, 20, 40, 52])
    def test_window_reaching_the_next_power_of_two_declines(self, k):
        ns = 2.0**k - 2.0
        accepted, got = _window(ns, [None, None])
        assert not accepted and got == ns
        accepted, got = _window(ns, [None])
        assert accepted and got == _sequential(ns, [None]) < 2.0**k
        assert _window(ns, [2]) == (False, ns)
        assert _window(ns, [1]) == (True, ns + 1.0)

    @pytest.mark.parametrize("ns", [0.0, 1.0, 2.0, 3.5, 3.999])
    def test_below_four_declines(self, ns):
        assert _window(ns, [None, 5]) == (False, ns)
        assert _window(ns, []) == (False, ns)

    def test_tie_binade_rounds_by_parity(self):
        # In [2, 4) a CPU_OP_NS add is a rounding tie, so its step
        # depends on where it starts: no closed form exists there.
        ulp = 2.0**-51
        steps = {(x + 1.2) - x for x in (2.0, 2.0 + ulp)}
        assert len(steps) == 2

    @pytest.mark.parametrize("ns", [2.0**52, 2.0**52 + 2.0, 2.0**60])
    def test_at_or_above_two_to_the_52_declines(self, ns):
        assert _window(ns, [None]) == (False, ns)
        assert _window(ns, [7]) == (False, ns)

    def test_empty_window_is_accepted_unchanged(self):
        assert _window(4.0, []) == (True, 4.0)
        assert _window(2.0**52 - 1.0, []) == (True, 2.0**52 - 1.0)

    def test_matches_a_long_shuffled_run(self):
        rng = random.Random(7)
        adds = [None if rng.random() < 0.6 else rng.randrange(4) for _ in range(5000)]
        accepted, got = _window(98765.4321, adds)
        assert accepted
        rng.shuffle(adds)
        assert got == _sequential(98765.4321, adds)


class TestLineCache:
    def test_miss_then_hit(self):
        cache = LineCache(capacity_bytes=1024, line_size=64)
        assert cache.access_many(5, 5, dirty=False) == (0, [(5, 1)], [])
        assert cache.access_many(5, 5, dirty=False) == (1, [], [])

    def test_lru_eviction_order(self):
        cache = LineCache(capacity_bytes=128, line_size=64)  # 2 lines
        cache.access_many(1, 2, False)
        cache.access_many(1, 1, False)  # refresh line 1
        cache.access_many(3, 3, False)  # evicts line 2 (LRU)
        assert list(cache._lines) == [1, 3]

    def test_dirty_eviction_reported(self):
        cache = LineCache(capacity_bytes=64, line_size=64)  # 1 line
        cache.access_many(1, 1, dirty=True)
        _, _, evictions = cache.access_many(2, 2, dirty=False)
        assert evictions == [(2, 1)]

    def test_clean_eviction_not_reported(self):
        cache = LineCache(capacity_bytes=64, line_size=64)
        cache.access_many(1, 1, dirty=False)
        _, _, evictions = cache.access_many(2, 2, dirty=False)
        assert evictions == []

    def test_dirty_flag_sticks(self):
        cache = LineCache(capacity_bytes=128, line_size=64)
        cache.access_many(1, 1, dirty=True)
        cache.access_many(1, 1, dirty=False)  # clean re-access must not launder
        assert dict(cache._lines) == {1: True}

    def test_memory_miss_rule_keeps_lru_order(self):
        # The single-line read/write paths drive the same LRU dict.
        mem = make_nvm(cache_bytes=2 * 256)
        mem.write(256, b"x")  # line 1, dirty
        mem.read(512, 1)  # line 2
        mem.read(256, 1)  # refresh line 1
        mem.read(768, 1)  # evicts line 2 (LRU, clean)
        assert list(mem._cache._lines.items()) == [(1, True), (3, False)]
        assert mem.stats.writebacks == 0
        mem.read(0, 1)  # evicts dirty line 1: a write-back
        assert list(mem._cache._lines) == [3, 0]
        assert mem.stats.writebacks == 1

    def test_invalidate_all(self):
        cache = LineCache(capacity_bytes=1024, line_size=64)
        cache.access_many(1, 1, True)
        cache.invalidate_all()
        assert len(cache) == 0


class TestReadWrite:
    def test_roundtrip(self):
        mem = make_nvm()
        mem.write(100, b"abcdef")
        assert mem.read(100, 6) == b"abcdef"

    def test_zero_initialized(self):
        mem = make_nvm()
        assert mem.read(0, 16) == bytes(16)

    def test_out_of_bounds_read(self):
        mem = make_nvm(size=1024)
        with pytest.raises(InvalidAccessError):
            mem.read(1020, 8)

    def test_out_of_bounds_write(self):
        mem = make_nvm(size=1024)
        with pytest.raises(InvalidAccessError):
            mem.write(1024, b"x")

    def test_negative_offset(self):
        mem = make_nvm()
        with pytest.raises(InvalidAccessError):
            mem.read(-1, 4)

    def test_fill(self):
        mem = make_nvm()
        mem.fill(10, 5, 0xAB)
        assert mem.read(10, 5) == b"\xab" * 5

    def test_stats_counters(self):
        mem = make_nvm()
        mem.write(0, b"x" * 100)
        mem.read(0, 100)
        assert mem.stats.write_ops == 1
        assert mem.stats.read_ops == 1
        assert mem.stats.bytes_written == 100
        assert mem.stats.bytes_read == 100


class TestCostModel:
    def test_first_touch_misses_second_hits(self):
        mem = make_nvm()
        mem.read(0, 8)
        misses_after_first = mem.stats.cache_misses
        mem.read(8, 8)  # same 256-byte line
        assert mem.stats.cache_misses == misses_after_first
        assert mem.stats.cache_hits >= 1

    def test_miss_costs_more_than_hit(self):
        mem = make_nvm()
        mem.read(0, 8)
        miss_cost = mem.clock.ns
        before = mem.clock.ns
        mem.read(16, 8)
        hit_cost = mem.clock.ns - before
        assert miss_cost > hit_cost

    def test_sequential_discount_applies(self):
        clock_seq = SimulatedClock()
        seq = SimulatedMemory(DeviceProfile.nvm(), 1 << 16, clock_seq,
                              cache_bytes=256)  # 1-line cache: every line misses
        seq.read(0, 4096)  # 16 consecutive lines

        clock_rand = SimulatedClock()
        rand = SimulatedMemory(DeviceProfile.nvm(), 1 << 16, clock_rand,
                               cache_bytes=256)
        for i in range(16):  # same line count, strided (never sequential)
            rand.read(((i * 7) % 16) * 512, 1)
        assert clock_seq.ns < clock_rand.ns

    def test_access_amplification_scattered_vs_packed(self):
        """Core paper effect: scattered 8-byte objects cost far more than
        the same objects packed on consecutive 256-byte lines."""
        packed = make_nvm(cache_bytes=1 << 10)
        for i in range(64):
            packed.read(i * 8, 8)  # 64 objects on 2 lines
        scattered = make_nvm(cache_bytes=1 << 10)
        for i in range(64):
            scattered.read((i * 997) % ((1 << 16) - 8), 8)  # one line each
        assert scattered.clock.ns > 3 * packed.clock.ns

    def test_shared_clock_accumulates_across_memories(self):
        clock = SimulatedClock()
        a = SimulatedMemory(DeviceProfile.dram(), 1024, clock)
        b = SimulatedMemory(DeviceProfile.nvm(), 1024, clock)
        a.read(0, 8)
        after_a = clock.ns
        b.read(0, 8)
        assert clock.ns > after_a

    def test_writeback_charged_on_dirty_eviction(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16, cache_bytes=256)
        mem.write(0, b"x")      # dirty line 0
        mem.read(512, 1)        # evicts dirty line 0 -> write-back
        assert mem.stats.writebacks == 1


class TestFlushAndCrash:
    def test_flush_counts_dirty_lines(self):
        mem = make_nvm()
        mem.write(0, b"a" * 600)  # 3 lines of 256 B
        assert mem.flush() == 3
        assert mem.dirty_line_count == 0

    def test_double_flush_is_cheap(self):
        mem = make_nvm()
        mem.write(0, b"a")
        mem.flush()
        assert mem.flush() == 0

    def test_crash_without_flush_loses_data(self):
        mem = make_nvm()
        mem.write(0, b"precious")
        mem.crash()
        assert mem.read(0, 8) == bytes(8)

    def test_crash_after_flush_keeps_data(self):
        mem = make_nvm()
        mem.write(0, b"precious")
        mem.flush()
        mem.write(8, b"volatile")
        mem.crash()
        assert mem.read(0, 8) == b"precious"
        assert mem.read(8, 8) == bytes(8)

    def test_volatile_device_loses_everything_on_crash(self):
        mem = SimulatedMemory(DeviceProfile.dram(), 1024)
        mem.write(0, b"gone")
        mem.flush()
        mem.crash()
        assert mem.read(0, 4) == bytes(4)

    def test_flush_cost_proportional_to_dirty_lines(self):
        mem = make_nvm()
        mem.write(0, b"x" * 256 * 4)
        before = mem.clock.ns
        mem.flush()
        cost4 = mem.clock.ns - before
        mem.write(0, b"y" * 256)
        before = mem.clock.ns
        mem.flush()
        cost1 = mem.clock.ns - before
        assert cost4 == pytest.approx(4 * cost1)

    def test_flushed_lines_count_as_device_time(self):
        mem = make_nvm()
        mem.write(0, b"x" * 256)  # a whole fresh line: allocate, no fetch
        assert (mem.clock.ns, mem.stats.device_ns) == (1.0, 0.0)
        mem.flush()
        assert mem.stats.flushed_lines == 1
        assert mem.clock.ns == 111.0
        assert mem.stats.device_ns == 110.0


class TestBackingFile:
    def test_persist_and_reload(self, tmp_path):
        path = tmp_path / "pool.img"
        mem = make_nvm(size=4096)
        mem.attach_file(path)
        mem.write(0, b"durable")
        mem.flush()

        fresh = make_nvm(size=4096)
        fresh.attach_file(path, load=True)
        assert fresh.read(0, 7) == b"durable"

    def test_reload_survives_crash_of_fresh_memory(self, tmp_path):
        path = tmp_path / "pool.img"
        mem = make_nvm(size=4096)
        mem.attach_file(path)
        mem.write(0, b"durable")
        mem.flush()

        fresh = make_nvm(size=4096)
        fresh.attach_file(path, load=True)
        fresh.write(0, b"scratch")
        fresh.crash()
        assert fresh.read(0, 7) == b"durable"

    def test_oversized_image_rejected(self, tmp_path):
        path = tmp_path / "pool.img"
        path.write_bytes(b"z" * 8192)
        mem = make_nvm(size=4096)
        with pytest.raises(InvalidAccessError):
            mem.attach_file(path, load=True)

    def test_smaller_image_loads_prefix_and_zero_fills_rest(self, tmp_path):
        # Reopening a pool on a larger device: the image covers a prefix,
        # the tail stays zeroed, and the whole state counts as flushed.
        path = tmp_path / "pool.img"
        path.write_bytes(b"head" + bytes(252))  # 256 B image, 4 KiB device
        mem = make_nvm(size=4096)
        mem.attach_file(path, load=True)
        assert mem.read(0, 4) == b"head"
        assert mem.read(256, 16) == bytes(16)
        assert mem.read(4080, 16) == bytes(16)
        mem.write(0, b"scratch")
        mem.crash()  # loaded image must survive as the recovery point
        assert mem.read(0, 4) == b"head"

    def test_file_holds_the_image_after_every_flush(self, tmp_path):
        # The file is sized once at attach and then receives only the
        # runs each flush persists, yet it always equals the image.
        path = tmp_path / "pool.img"
        mem = make_nvm(size=4096)
        mem.write(0, b"before attach")
        mem.flush()
        mem.attach_file(path)
        assert path.stat().st_size == 4096
        for i in range(4):
            mem.write(300 * i + 17, bytes([i + 1]) * 200)
            mem.flush()
            assert path.read_bytes() == mem.peek(0, 4096)
        # A torn flush's persisted prefix reaches the file too.
        mem.arm_faults(FaultPlan("flush", 1, torn=TornFlush(persisted_lines=1)))
        mem.write(0, b"a" * 600)
        with pytest.raises(CrashPoint):
            mem.flush()
        mem.crash()
        mem.disarm_faults()
        assert path.read_bytes() == mem.peek(0, 4096)
        assert mem.peek(0, 256) == b"a" * 256
        fresh = make_nvm(size=4096)
        fresh.attach_file(path, load=True)
        fresh.write(3000, b"reloaded")
        fresh.flush()
        assert path.read_bytes() == fresh.peek(0, 4096)

    def test_missing_image_load_is_noop(self, tmp_path):
        mem = make_nvm(size=4096)
        mem.attach_file(tmp_path / "absent.img", load=True)
        assert mem.read(0, 8) == bytes(8)


class TestPeekPoke:
    def test_peek_free_of_charge(self):
        mem = make_nvm()
        mem.write(0, b"data")
        cost = mem.clock.ns
        mem.peek(0, 4)
        assert mem.clock.ns == cost

    def test_poke_roundtrip(self):
        mem = make_nvm()
        mem.poke(0, b"raw")
        assert mem.peek(0, 3) == b"raw"
