"""Coverage for remaining small surfaces: streaming I/O charge, pool
region registration, timer wall clock, CLI reproduce, sequitur API edges."""

import pytest

from repro.cli import main
from repro.errors import PoolLayoutError
from repro.metrics.timer import PhaseTimeline
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory, charge_sequential_io
from repro.nvm.pool import NvmPool
from repro.sequitur.sequitur import Sequitur


class TestChargeSequentialIO:
    def test_zero_bytes_free(self):
        clock = SimulatedClock()
        assert charge_sequential_io(clock, DeviceProfile.ssd(), 0) == 0.0
        assert clock.ns == 0.0

    def test_first_line_random_rest_sequential(self):
        clock = SimulatedClock()
        ssd = DeviceProfile.ssd()
        cost = charge_sequential_io(clock, ssd, ssd.line_size * 3)
        assert cost == pytest.approx(ssd.read_ns + 2 * ssd.seq_read_ns)
        assert clock.ns == pytest.approx(cost)

    def test_write_uses_write_rates(self):
        clock = SimulatedClock()
        ssd = DeviceProfile.ssd()
        cost = charge_sequential_io(clock, ssd, ssd.line_size, write=True)
        assert cost == pytest.approx(ssd.write_ns)

    def test_partial_line_rounds_up(self):
        clock = SimulatedClock()
        nvm = DeviceProfile.nvm()
        cost = charge_sequential_io(clock, nvm, 1)
        assert cost == pytest.approx(nvm.read_ns)

    def test_exact_line_multiple_adds_no_padding_line(self):
        nvm = DeviceProfile.nvm()
        exact = charge_sequential_io(SimulatedClock(), nvm, nvm.line_size * 4)
        assert exact == pytest.approx(nvm.read_ns + 3 * nvm.seq_read_ns)
        one_over = charge_sequential_io(
            SimulatedClock(), nvm, nvm.line_size * 4 + 1
        )
        assert one_over == pytest.approx(nvm.read_ns + 4 * nvm.seq_read_ns)

    def test_single_full_line_charges_base_rate_only(self):
        nvm = DeviceProfile.nvm()
        for write in (False, True):
            cost = charge_sequential_io(
                SimulatedClock(), nvm, nvm.line_size, write=write
            )
            assert cost == pytest.approx(nvm.write_ns if write else nvm.read_ns)


class TestPoolRegionRegistration:
    def test_register_and_reload(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        pool = NvmPool(mem)
        offset = pool.allocator.alloc(128)
        pool.register_region("manual", offset, 128)
        assert pool.get_region("manual") == (offset, 128)
        pool.flush()
        reopened = NvmPool(mem)
        reopened.load_directory()
        assert reopened.get_region("manual") == (offset, 128)

    def test_duplicate_registration_rejected(self):
        pool = NvmPool(SimulatedMemory(DeviceProfile.nvm(), 1 << 16))
        pool.alloc_region("x", 64)
        with pytest.raises(PoolLayoutError):
            pool.register_region("x", 0, 64)


class TestTimerWallClock:
    def test_wall_time_recorded(self):
        clock = SimulatedClock()
        timeline = PhaseTimeline(clock)
        with timeline.phase("p"):
            clock.advance(1)
        record = timeline.records[0]
        assert record.wall_ns >= 0.0
        assert record.name == "phase:p"


class TestSequiturApiEdges:
    def test_push_all_equals_pushes(self):
        a = Sequitur()
        a.push_all([1, 2, 1, 2])
        b = Sequitur()
        for token in [1, 2, 1, 2]:
            b.push(token)
        assert a.freeze() == b.freeze()

    def test_rule_count_property(self):
        seq = Sequitur()
        assert seq.rule_count == 1
        seq.push_all(list("xyxy"))
        assert seq.rule_count == 2

    def test_freeze_is_repeatable(self):
        seq = Sequitur()
        seq.push_all(list("abcabc"))
        assert seq.freeze() == seq.freeze()


class TestCliReproduce:
    def test_reproduce_pruning_small_scale(self, capsys):
        assert main(["reproduce", "pruning", "--scale", "0.06"]) == 0
        captured = capsys.readouterr().out
        assert "Section IV-B" in captured
        assert "Best single rule" in captured

    def test_reproduce_table1_small_scale(self, capsys):
        assert main(["reproduce", "table1", "--scale", "0.06"]) == 0
        assert "TABLE I" in capsys.readouterr().out
