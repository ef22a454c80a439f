"""Tests for chunk-granular CRC sealing and the media scrub
(`repro.nvm.scrub`), plus the raw UBER fault model underneath it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CrashPoint, MediaError
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan, MediaFault
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.nvm.persist import TransactionLog
from repro.nvm.pool import NvmPool
from repro.nvm.scrub import REMAP_REGION, SEAL_REGION, MediaGuard
from repro.obs.recorder import Recorder, attached
from repro.obs.tracer import Tracer

LINE = DeviceProfile.nvm().line_size


def protected_pool(size=1 << 18):
    clock = SimulatedClock()
    mem = SimulatedMemory(DeviceProfile.nvm(), size, clock, name="pool")
    pool = NvmPool(mem, media_protect=True)
    guard = MediaGuard(pool)
    return mem, pool, guard


def data_region(pool, mem, size=4 * LINE):
    """A flushed (sealed) region with a known fill pattern."""
    off = pool.alloc_region("data", size, align=LINE)
    mem.write(off, bytes(i & 0xFF for i in range(size)))
    pool.flush()
    return off, size


class TestMediaFaultModel:
    """Raw-memory semantics of the three UBER fault kinds."""

    def fresh(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        mem.write(0, bytes(range(256)))
        mem.flush()  # damage is exempt on dirty lines; make them media
        return mem

    def test_bitflip_is_persistent_and_one_time(self):
        mem = self.fresh()
        fault = MediaFault("bitflip", 10, b"\x0f")
        mem.arm_faults(FaultPlan(media_faults=[fault]))
        assert mem.read(10, 1) == bytes([10 ^ 0x0F])
        assert fault.applied
        # Damage is in the image now: later reads see it without the
        # fault re-firing, and disarming changes nothing.
        assert mem.read(10, 1) == bytes([10 ^ 0x0F])
        mem.disarm_faults()
        assert mem.read(10, 1) == bytes([10 ^ 0x0F])

    def test_bitflip_clears_on_rewrite(self):
        mem = self.fresh()
        mem.arm_faults(FaultPlan(media_faults=[MediaFault("bitflip", 10, b"\xff")]))
        mem.read(10, 1)
        mem.write(10, b"\x55")
        mem.flush()
        assert mem.read(10, 1) == b"\x55"

    def test_stuck_line_reimposes_after_rewrite(self):
        mem = self.fresh()
        fault = MediaFault("stuck_line", 32, b"\xff\xff")
        mem.arm_faults(FaultPlan(media_faults=[fault]))
        first = mem.read(32, 2)
        assert first == bytes([32 ^ 0xFF, 33 ^ 0xFF])
        # The cells latched that value: a rewrite does not stick.
        mem.write(32, b"\x00\x00")
        mem.flush()
        assert mem.read(32, 2) == first

    def test_transient_heals_after_fails(self):
        mem = self.fresh()
        fault = MediaFault("transient", 64, b"\xaa", fails=2)
        mem.arm_faults(FaultPlan(media_faults=[fault]))
        assert mem.read(64, 1) == bytes([64 ^ 0xAA])
        assert mem.read(64, 1) == bytes([64 ^ 0xAA])
        assert mem.read(64, 1) == bytes([64])  # healed
        assert fault.healed

    def test_arm_read_defers_firing(self):
        mem = self.fresh()
        fault = MediaFault("bitflip", 5, b"\xff", arm_read=2)
        mem.arm_faults(FaultPlan(media_faults=[fault]))
        assert mem.read(5, 1) == bytes([5])  # read 1: unharmed
        assert mem.read(5, 1) == bytes([5])  # read 2: unharmed
        assert mem.read(5, 1) == bytes([5 ^ 0xFF])  # read 3: fires

    def test_dirty_lines_are_exempt_until_flush(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        mem.write(0, bytes(range(64)))  # line 0 dirty: freshest copy is
        mem.arm_faults(FaultPlan(media_faults=[MediaFault("bitflip", 3, b"\xff")]))
        assert mem.read(3, 1) == bytes([3])  # volatile, not on media
        mem.flush()
        assert mem.read(3, 1) == bytes([3 ^ 0xFF])

    def test_wear_death_arms_seeded_stuck_lines(self):
        mem = SimulatedMemory(
            DeviceProfile.nvm(), 1 << 16, track_wear=True
        )
        plan = FaultPlan(wear_death=True, wear_limit=2, wear_seed=7)
        mem.arm_faults(plan)
        mem.write(0, b"\x11" * LINE)
        mem.flush()  # program 1: below the limit
        assert not plan.dead_lines
        mem.write(0, b"\x22" * LINE)
        mem.flush()  # program 2 reaches the limit...
        mem.write(0, b"\x33" * LINE)
        mem.flush()  # ...and the next flush's wear check kills line 0
        assert plan.dead_lines == [0]
        damaged = mem.read(0, LINE)
        assert damaged != b"\x33" * LINE
        # Deterministic: the same seed kills with the same mask.
        other = FaultPlan(wear_death=True, wear_limit=2, wear_seed=7)
        assert other is not plan


class TestDetection:
    def test_sealed_read_surfaces_typed_media_error(self):
        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        mem.arm_faults(
            FaultPlan(media_faults=[MediaFault("bitflip", off + 3, b"\xff")])
        )
        with pytest.raises(MediaError) as exc_info:
            mem.read(off, 16)
        err = exc_info.value
        assert err.kind == "checksum"
        assert err.line == (off + 3) // LINE
        assert err.offset is not None

    def test_no_faults_reads_clean(self):
        mem, pool, guard = protected_pool()
        off, size = data_region(pool, mem)
        assert mem.read(off, size) == bytes(i & 0xFF for i in range(size))

    def test_eviction_writeback_is_sealed(self):
        """A line programmed by cache eviction (not flush) still gets a
        current seal -- the program-time resealing model."""
        mem, pool, guard = protected_pool()
        off, size = data_region(pool, mem)
        # Rewrite and flush: program-time reseal tracks the new bytes.
        mem.write(off, b"\x7e" * 16)
        pool.flush()
        assert mem.read(off, 16) == b"\x7e" * 16

    def test_reopen_reloads_seals_from_media(self):
        mem, pool, guard = protected_pool()
        off, size = data_region(pool, mem)
        sealed_before = guard.sealed_lines()
        assert sealed_before
        guard.detach()
        # Reopen: a fresh pool object over the same device.
        pool2 = NvmPool(mem)
        pool2.load_directory()
        assert pool2.media_protect
        guard2 = MediaGuard(pool2)
        assert guard2.sealed_lines() == sealed_before
        # And the reloaded seals still verify reads.
        mem.arm_faults(
            FaultPlan(media_faults=[MediaFault("bitflip", off, b"\xff")])
        )
        with pytest.raises(MediaError):
            mem.read(off, 8)


class TestScrub:
    def test_transient_mismatch_heals_with_charged_backoff(self):
        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        mem.arm_faults(
            FaultPlan(
                media_faults=[MediaFault("transient", off, b"\xff", fails=2)]
            )
        )
        before = mem.clock.ns
        report = guard.scrub()
        assert report.mismatches == 1
        assert report.corrected == 1
        assert report.quarantined == 0
        # Two backoff retries: base + 2*base simulated ns at minimum.
        assert report.scrub_ns > 0
        assert mem.clock.ns - before >= 3 * guard.retry_base_ns

    def test_bitflip_damage_is_lost_and_quarantined(self):
        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        line = off // LINE
        mem.arm_faults(
            FaultPlan(media_faults=[MediaFault("bitflip", off + 1, b"\xff")])
        )
        report = guard.scrub()
        assert report.quarantined == 1
        assert (line, "lost") in report.damaged_lines
        assert report.bad_lines_remapped == 0
        assert line not in guard.remap

    def test_stuck_line_is_remapped(self):
        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        line = off // LINE
        mem.arm_faults(
            FaultPlan(
                media_faults=[MediaFault("stuck_line", off, b"\xff\xff")]
            )
        )
        report = guard.scrub()
        assert report.bad_lines_remapped == 1
        assert (line, "stuck") in report.damaged_lines
        assert line in guard.remap
        # translate() redirects any offset on the bad line.
        repl = guard.remap[line]
        assert guard.translate(off + 5) == repl + (off + 5) % LINE
        assert guard.translate(0) == 0  # healthy lines pass through

    def test_scrub_is_idempotent(self):
        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        mem.arm_faults(
            FaultPlan(
                media_faults=[
                    MediaFault("bitflip", off, b"\xff"),
                    MediaFault("stuck_line", off + LINE, b"\xaa"),
                ]
            )
        )
        first = guard.scrub()
        assert first.quarantined == 2
        second = guard.scrub()
        assert second.mismatches == 0
        assert second.quarantined == 0

    def test_scrub_emits_obs_spans(self):
        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        mem.arm_faults(
            FaultPlan(
                media_faults=[MediaFault("transient", off, b"\xff", fails=1)]
            )
        )
        tracer = Tracer()
        with attached(Recorder(tracer)):
            guard.scrub()
        names = [span.name for span in tracer.spans()]
        assert "scrub:pass" in names
        assert "scrub:retry" in names
        scrub_span = next(s for s in tracer.spans() if s.name == "scrub:pass")
        assert scrub_span.attrs["mismatches"] == 1

    def test_seal_table_damage_self_heals_from_mirror(self):
        """The seal table is the one structure seals cannot cover; the
        mirror is its authority and repairs it."""
        mem, pool, guard = protected_pool()
        data_region(pool, mem)
        table_off, _ = pool.get_region(SEAL_REGION)
        mem.arm_faults(
            FaultPlan(
                media_faults=[MediaFault("bitflip", table_off + 8, b"\xff")]
            )
        )
        report = guard.scrub()
        assert report.table_repaired >= 1
        clean = guard.scrub()
        assert clean.mismatches == 0


class TestRemapCrashConsistency:
    def _scrub_with_crash(self, crash_at_write):
        """Run a stuck-line scrub with a txlog, crashing at the k-th
        write; returns the post-recovery remap state."""
        from repro.core.recovery import recover_pool

        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        txlog = TransactionLog(pool, capacity=4096)
        pool.flush()
        plan = FaultPlan(
            "write",
            crash_at_write,
            media_faults=[MediaFault("stuck_line", off, b"\xff")],
        )
        mem.arm_faults(plan)
        crashed = False
        try:
            guard.scrub(txlog=txlog)
        except CrashPoint:
            crashed = True
        mem.disarm_faults()
        if not crashed:
            return None
        mem.crash()
        recover_pool(mem)
        # Reopen the pool and reload the remap table from media.
        pool2 = NvmPool(mem)
        pool2.load_directory()
        guard2 = MediaGuard(pool2)
        return guard2.remap

    def test_crash_anywhere_in_remap_keeps_table_consistent(self):
        """Entry-then-count under the undo log: after a crash at any
        write of the scrub, the reloaded table is either empty or holds
        exactly the completed remap -- never a count without its entry."""
        saw_empty = saw_complete = False
        for k in range(1, 30):
            remap = self._scrub_with_crash(k)
            if remap is None:
                break  # scrub finished before write k; later ks too
            if remap:
                assert len(remap) == 1
                (line,) = remap
                assert remap[line] > 0
                saw_complete = True
            else:
                saw_empty = True
        assert saw_empty  # early crashes must roll the remap back


class TestScrubCrashProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        crash_write=st.integers(min_value=1, max_value=40),
        kind=st.sampled_from(["bitflip", "stuck_line"]),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_crash_during_scrub_recovers_to_legal_state(
        self, crash_write, kind, mask
    ):
        """Scrub x crash: power loss at any write during a scrub leaves
        an image the PR-3 recovery accepts, with a consistent remap
        table and a scrubbable pool."""
        from repro.core.recovery import recover_pool

        mem, pool, guard = protected_pool()
        off, _ = data_region(pool, mem)
        txlog = TransactionLog(pool, capacity=4096)
        pool.flush()
        plan = FaultPlan(
            "write",
            crash_write,
            media_faults=[MediaFault(kind, off, bytes([mask]))],
        )
        mem.arm_faults(plan)
        try:
            guard.scrub(txlog=txlog)
        except CrashPoint:
            pass
        mem.disarm_faults()
        mem.crash()
        recover_pool(mem)  # must accept the image (legal checkpoint)
        pool2 = NvmPool(mem)
        pool2.load_directory()
        guard2 = MediaGuard(pool2)
        # Remap invariant: every counted entry is complete and points at
        # an in-bounds replacement line.
        for bad, repl in guard2.remap.items():
            assert 0 <= bad * LINE < mem.size
            assert 0 < repl < mem.size
        # The reloaded guard can always scrub to a clean steady state.
        guard2.scrub()
        final = guard2.scrub()
        assert final.quarantined == 0


class TestGuardLayout:
    def test_requires_protected_pool(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 18)
        pool = NvmPool(mem)  # media_protect=False
        from repro.errors import PoolLayoutError

        with pytest.raises(PoolLayoutError):
            MediaGuard(pool)

    def test_guard_regions_are_line_aligned(self):
        mem, pool, guard = protected_pool()
        for region in (SEAL_REGION, REMAP_REGION):
            off, size = pool.get_region(region)
            assert off % LINE == 0
            assert size % LINE == 0
