"""Unit tests for the pool allocator and named-region pool."""

import pytest

from repro.errors import OutOfMemoryError, PoolLayoutError
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory
from repro.nvm.pool import NvmPool


def make_mem(size=1 << 16):
    return SimulatedMemory(DeviceProfile.nvm(), size)


class TestPoolAllocator:
    def test_sequential_allocations_are_adjacent(self):
        mem = make_mem()
        alloc = PoolAllocator(mem, base=0, capacity=4096)
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        assert b == a + 64

    def test_alignment(self):
        mem = make_mem()
        alloc = PoolAllocator(mem, base=0, capacity=4096)
        alloc.alloc(3)
        b = alloc.alloc(8, align=8)
        assert b % 8 == 0

    def test_exhaustion_raises(self):
        mem = make_mem()
        alloc = PoolAllocator(mem, base=0, capacity=128)
        alloc.alloc(100)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(100)

    def test_zero_size_rejected(self):
        alloc = PoolAllocator(make_mem(), base=0, capacity=128)
        with pytest.raises(ValueError):
            alloc.alloc(0)

    def test_free_then_realloc_reuses_block(self):
        mem = make_mem()
        alloc = PoolAllocator(mem, base=0, capacity=4096)
        a = alloc.alloc(64)
        alloc.free(a, 64)
        b = alloc.alloc(64)
        assert b == a

    def test_free_outside_region_rejected(self):
        alloc = PoolAllocator(make_mem(), base=0, capacity=128)
        with pytest.raises(ValueError):
            alloc.free(1000, 64)

    def test_accounting(self):
        alloc = PoolAllocator(make_mem(), base=0, capacity=4096)
        a = alloc.alloc(100)
        alloc.alloc(50)
        assert alloc.allocated_bytes == 150
        assert alloc.peak_bytes == 150
        alloc.free(a, 100)
        assert alloc.allocated_bytes == 50
        assert alloc.peak_bytes == 150

    def test_scattered_allocations_not_adjacent(self):
        mem = make_mem(1 << 20)
        alloc = PoolAllocator(mem, base=0, capacity=1 << 20, scatter=True)
        offsets = [alloc.alloc(16) for _ in range(8)]
        line = mem.profile.line_size
        lines = {off // line for off in offsets}
        assert len(lines) == 8  # every object on its own device line

    def test_scatter_is_deterministic(self):
        mem1 = make_mem(1 << 20)
        mem2 = make_mem(1 << 20)
        a1 = PoolAllocator(mem1, 0, 1 << 20, scatter=True, seed=7)
        a2 = PoolAllocator(mem2, 0, 1 << 20, scatter=True, seed=7)
        assert [a1.alloc(16) for _ in range(10)] == [a2.alloc(16) for _ in range(10)]

    def test_region_bounds_validated(self):
        with pytest.raises(ValueError):
            PoolAllocator(make_mem(size=1024), base=0, capacity=2048)

    def test_release_returns_to_the_mark(self):
        alloc = PoolAllocator(make_mem(), base=0, capacity=4096)
        alloc.alloc(100)
        spare = alloc.alloc(48)
        alloc.free(spare, 48)
        mark = alloc.mark()
        assert alloc.alloc(48) == spare  # a pre-mark free block, reused
        scratch = alloc.alloc(500)
        alloc.free(scratch, 500)
        alloc.alloc(200)
        alloc.release(mark)
        assert alloc.top == mark.top == spare + 48
        assert alloc.allocated_bytes == 100
        assert alloc.peak_bytes == 100 + 48 + 500
        assert alloc.alloc(48) == spare  # the free lists are the mark's
        assert alloc.alloc(500) == mark.top  # scratch's free block is gone

    def test_release_lowers_the_zero_watermark(self):
        mem = make_mem()
        alloc = PoolAllocator(mem, base=0, capacity=4096)
        alloc.alloc(40)
        mark = alloc.mark()
        scratch = alloc.alloc(1000)
        mem.write(scratch, b"\xff" * 1000)
        alloc.release(mark)
        assert alloc.zero_watermark == mark.top
        again = alloc.alloc(1000)
        assert again == scratch and mem.peek(again, 1000) == bytes(1000)
        assert mem.peek(0, 40) == bytes(40)


class TestNvmPool:
    def test_alloc_and_get_region(self):
        pool = NvmPool(make_mem())
        off = pool.alloc_region("dag", 512)
        assert pool.get_region("dag") == (off, 512)
        assert pool.has_region("dag")

    def test_duplicate_region_rejected(self):
        pool = NvmPool(make_mem())
        pool.alloc_region("dag", 512)
        with pytest.raises(PoolLayoutError):
            pool.alloc_region("dag", 512)

    def test_missing_region_raises(self):
        pool = NvmPool(make_mem())
        with pytest.raises(PoolLayoutError):
            pool.get_region("nope")

    def test_scope_drops_what_it_allocated(self):
        pool = NvmPool(make_mem())
        kept = pool.alloc_region("kept", 64)
        top = pool.allocator.top
        with pool.scope():
            pool.alloc_region("results_1", 256)
            pool.allocator.alloc(512)
        assert pool.region_names() == ["kept"]
        assert pool.allocator.top == top
        assert pool.allocator.allocated_bytes == 64
        assert pool.alloc_region("results_1", 256) == top  # name and space free
        assert pool.get_region("kept") == (kept, 64)

    def test_scope_releases_when_the_block_raises(self):
        pool = NvmPool(make_mem())
        top = pool.allocator.top
        with pytest.raises(OutOfMemoryError):
            with pool.scope():
                pool.alloc_region("scratch", 1024)
                pool.allocator.alloc(1 << 20)
        assert not pool.has_region("scratch")
        assert pool.allocator.top == top

    def test_free_region(self):
        pool = NvmPool(make_mem())
        pool.alloc_region("tmp", 512)
        pool.free_region("tmp")
        assert not pool.has_region("tmp")

    def test_regions_start_after_header(self):
        pool = NvmPool(make_mem(), header_bytes=4096)
        off = pool.alloc_region("dag", 16)
        assert off >= 4096

    def test_directory_roundtrip(self):
        mem = make_mem()
        pool = NvmPool(mem)
        off = pool.alloc_region("dag", 512)
        pool.alloc_region("meta", 128)
        pool.save_directory()

        reopened = NvmPool(mem)
        reopened.load_directory()
        assert reopened.get_region("dag") == (off, 512)
        assert reopened.region_names() == ["dag", "meta"]

    def test_directory_restores_allocator_top(self):
        mem = make_mem()
        pool = NvmPool(mem)
        pool.alloc_region("dag", 512)
        pool.save_directory()

        reopened = NvmPool(mem)
        reopened.load_directory()
        new_off = reopened.allocator.alloc(64)
        dag_off, _ = reopened.get_region("dag")
        assert new_off >= dag_off + 512  # must not clobber existing region

    def test_load_bad_magic_raises(self):
        mem = make_mem()
        mem.write(0, b"\x00" * 64)
        pool = NvmPool(mem)
        with pytest.raises(PoolLayoutError):
            pool.load_directory()

    def test_directory_survives_crash_after_flush(self):
        mem = make_mem()
        pool = NvmPool(mem)
        pool.alloc_region("dag", 512)
        pool.flush()
        mem.crash()
        reopened = NvmPool(mem)
        reopened.load_directory()
        assert reopened.has_region("dag")

    def test_directory_lost_on_crash_without_flush(self):
        mem = make_mem()
        pool = NvmPool(mem)
        pool.alloc_region("dag", 512)
        pool.save_directory()  # written but never flushed
        mem.crash()
        with pytest.raises(PoolLayoutError):
            NvmPool(mem).load_directory()
