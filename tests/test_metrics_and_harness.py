"""Tests for the ledger, phase timer, harness registry, and tables."""

import pytest

from repro.analytics.word_count import WordCount
from repro.core.engine import EngineConfig
from repro.harness.comparisons import geometric_mean, phase_speedup, speedup
from repro.harness.runner import SYSTEMS, build_engine, run_system
from repro.harness.tables import format_table
from repro.metrics.ledger import MemoryLedger
from repro.metrics.timer import PhaseTimeline
from repro.nvm.memory import SimulatedClock
from repro.sequitur.compressor import compress_files


class TestLedger:
    def test_charge_and_peak(self):
        ledger = MemoryLedger()
        ledger.charge("dram", "dict", 100)
        ledger.charge("dram", "buffer", 50)
        assert ledger.current("dram") == 150
        assert ledger.peak("dram") == 150
        ledger.release("dram", "buffer", 50)
        assert ledger.current("dram") == 100
        assert ledger.peak("dram") == 150

    def test_devices_independent(self):
        ledger = MemoryLedger()
        ledger.charge("dram", "x", 10)
        ledger.charge("nvm", "y", 99)
        assert ledger.peak("dram") == 10
        assert ledger.peak("nvm") == 99

    def test_breakdown(self):
        ledger = MemoryLedger()
        ledger.charge("dram", "dict", 100)
        ledger.charge("dram", "dict", 20)
        assert ledger.breakdown("dram") == {"dict": 120}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger().charge("dram", "x", -1)

    def test_dram_saving(self):
        assert MemoryLedger.dram_saving(100, 30) == pytest.approx(0.7)
        assert MemoryLedger.dram_saving(0, 30) == 0.0

    def test_over_release_rejected(self):
        ledger = MemoryLedger()
        ledger.charge("dram", "buffer", 100)
        with pytest.raises(ValueError, match="'dram'.*'buffer'"):
            ledger.release("dram", "buffer", 101)
        # The failed release must not have moved the counters.
        assert ledger.current("dram") == 100
        assert ledger.breakdown("dram") == {"buffer": 100}

    def test_release_of_unknown_label_rejected(self):
        ledger = MemoryLedger()
        ledger.charge("dram", "held", 50)
        with pytest.raises(ValueError, match="'never_charged'"):
            ledger.release("dram", "never_charged", 1)

    def test_negative_release_rejected(self):
        ledger = MemoryLedger()
        ledger.charge("dram", "x", 10)
        with pytest.raises(ValueError):
            ledger.release("dram", "x", -1)

    def test_exact_release_allowed(self):
        ledger = MemoryLedger()
        ledger.charge("pool", "tables", 64)
        ledger.release("pool", "tables", 64)
        assert ledger.current("pool") == 0

    def test_currents_snapshot(self):
        ledger = MemoryLedger()
        assert ledger.currents() == {}
        ledger.charge("dram", "a", 30)
        ledger.charge("pool", "b", 70)
        assert ledger.currents() == {"dram": 30, "pool": 70}
        ledger.release("pool", "b", 70)
        # Zero entries are omitted, and the snapshot is independent.
        snap = ledger.currents()
        assert snap == {"dram": 30}
        ledger.charge("dram", "a", 5)
        assert snap == {"dram": 30}


class TestTimeline:
    def test_phase_records_sim_time(self):
        clock = SimulatedClock()
        timeline = PhaseTimeline(clock)
        with timeline.phase("initialization"):
            clock.advance(500)
        with timeline.phase("traversal"):
            clock.advance(300)
        assert timeline.sim_ns("initialization") == 500
        assert timeline.sim_ns("traversal") == 300
        assert timeline.total_sim_ns() == 800
        assert timeline.as_dict() == {"initialization": 500, "traversal": 300}

    def test_repeated_phases_accumulate(self):
        clock = SimulatedClock()
        timeline = PhaseTimeline(clock)
        for _ in range(3):
            with timeline.phase("step"):
                clock.advance(10)
        assert timeline.sim_ns("step") == 30

    def test_nested_phases_both_record_full_interval(self):
        clock = SimulatedClock()
        timeline = PhaseTimeline(clock)
        with timeline.phase("outer"):
            clock.advance(100)
            with timeline.phase("inner"):
                clock.advance(40)
            clock.advance(10)
        # Records land innermost-first; the outer interval includes the
        # inner one (nesting does not subtract).
        assert [name for name, _ in timeline.items()] == ["inner", "outer"]
        assert timeline.sim_ns("inner") == 40
        assert timeline.sim_ns("outer") == 150

    def test_reentrant_same_name_phases(self):
        clock = SimulatedClock()
        timeline = PhaseTimeline(clock)
        with timeline.phase("work"):
            clock.advance(5)
            with timeline.phase("work"):
                clock.advance(3)
        # Same-name re-entry sums both records under one key, and the
        # outer record includes the inner interval (5 + 3 outer, 3
        # inner): nested phases overlap rather than partition, which is
        # why the engine only ever nests *distinct* phase names.
        assert [r.sim_ns for r in timeline.records] == [3.0, 8.0]
        assert timeline.sim_ns("work") == 11
        assert timeline.as_dict() == {"work": 11.0}

    @pytest.mark.parametrize("traced", [False, True])
    def test_interrupted_phase_recorded_like_its_span(self, traced):
        from repro.obs.recorder import Recorder, attached
        from repro.obs.tracer import Tracer

        clock = SimulatedClock()
        tracer = Tracer()
        tracer.bind(clock=clock)
        timeline = PhaseTimeline(clock)
        with attached(Recorder(tracer) if traced else None):
            with pytest.raises(RuntimeError):
                with timeline.phase("doomed"):
                    clock.advance(9)
                    raise RuntimeError("crash mid-phase")
            with timeline.phase("retry"):
                clock.advance(4)
        # The unwound phase keeps the time it charged: a recovered run
        # reports every attempt, not just the one that finished.
        assert timeline.as_dict() == {"doomed": 9.0, "retry": 4.0}
        assert timeline.total_sim_ns() == clock.ns
        if traced:
            assert tracer.roots == timeline.records
            assert tracer.roots[0] is timeline.records[0]

    def test_traced_timeline_shares_clock_readings(self):
        from repro.obs.recorder import Recorder, attached
        from repro.obs.tracer import Tracer

        clock = SimulatedClock()
        tracer = Tracer()
        tracer.bind(clock=clock)
        timeline = PhaseTimeline(clock)
        with attached(Recorder(tracer)):
            with timeline.phase("initialization"):
                clock.advance(123.456)
            with timeline.phase("traversal"):
                clock.advance(77.5)
        # Bit-exact (no approx): the phase records ARE the root spans.
        assert tracer.total_sim_ns() == timeline.total_sim_ns()
        assert [s.name for s in tracer.roots] == [
            "phase:initialization",
            "phase:traversal",
        ]
        assert tracer.roots[0] is timeline.records[0]

    def test_tracer_on_another_clock_is_not_the_record(self):
        from repro.obs.recorder import Recorder, attached
        from repro.obs.tracer import Tracer

        clock = SimulatedClock()
        timeline = PhaseTimeline(clock)
        tracer = Tracer()  # unbound: it reads no clock
        with attached(Recorder(tracer)):
            with timeline.phase("p"):
                clock.advance(6)
        assert timeline.total_sim_ns() == 6.0
        assert tracer.roots == []


class TestComparisons:
    def test_speedup(self):
        from repro.core.engine import RunResult

        def result(ns, phases=None):
            return RunResult(
                task="t", system="s", result=None,
                phase_ns=phases or {}, total_ns=ns,
                dram_peak=1, pool_peak=1, pool_device="nvm", strategy="x",
            )

        assert speedup(result(200), result(100)) == 2.0
        with pytest.raises(ValueError):
            speedup(result(200), result(0))
        fast = result(100, {"traversal": 20})
        slow = result(300, {"traversal": 80})
        assert phase_speedup(slow, fast, "traversal") == 4.0

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([3]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1, -1])


class TestHarness:
    def corpus(self):
        return compress_files([("f", "a b c a b c a b c d e " * 3)])

    def test_all_systems_instantiable(self):
        corpus = self.corpus()
        for name in SYSTEMS:
            engine = build_engine(name, corpus)
            assert hasattr(engine, "run")

    def test_unknown_system_raises(self):
        with pytest.raises(KeyError):
            build_engine("vaporware", self.corpus())

    def test_run_system_produces_results(self):
        corpus = self.corpus()
        run = run_system("ntadoc", corpus, WordCount())
        assert run.system == "ntadoc"
        assert run.total_ns > 0

    def test_systems_have_expected_devices(self):
        corpus = self.corpus()
        assert run_system("tadoc_dram", corpus, WordCount()).pool_device == "dram"
        assert run_system("ntadoc_ssd", corpus, WordCount()).pool_device == "ssd"
        assert run_system("ntadoc_hdd", corpus, WordCount()).pool_device == "hdd"

    def test_base_config_knobs_propagate(self):
        corpus = self.corpus()
        run = run_system(
            "ntadoc", corpus, WordCount(),
            EngineConfig(traversal="bottomup"),
        )
        assert run.strategy == "bottomup"

    def test_all_systems_same_answers(self):
        corpus = self.corpus()
        expected = None
        for name in SYSTEMS:
            run = run_system(name, corpus, WordCount())
            if expected is None:
                expected = run.result
            assert run.result == expected, f"{name} diverged"


class TestTables:
    def test_basic_render(self):
        table = format_table(
            ["name", "value"], [["a", 1.234], ["bb", 1234.5]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.23" in table
        assert "1234" in table  # wait, 1234.5 -> "1235" after rounding

    def test_alignment(self):
        table = format_table(["x"], [["longcell"], ["s"]])
        lines = table.splitlines()
        assert len(lines[1]) == len("longcell")


class TestMemoryStats:
    def test_snapshot_delta(self):
        from repro.nvm.device import DeviceProfile
        from repro.nvm.memory import SimulatedMemory

        mem = SimulatedMemory(DeviceProfile.nvm(), 4096)
        mem.write(0, b"x" * 100)
        snapshot = mem.stats.snapshot()
        mem.read(0, 100)
        delta = mem.stats.delta(snapshot)
        assert delta.read_ops == 1
        assert delta.write_ops == 0
        assert delta.bytes_read == 100

    def test_merge(self):
        from repro.nvm.stats import MemoryStats

        a = MemoryStats(read_ops=2, bytes_read=10)
        b = MemoryStats(read_ops=3, bytes_written=7)
        merged = a.merge(b)
        assert merged.read_ops == 5
        assert merged.bytes_read == 10
        assert merged.bytes_written == 7

    def test_hit_rate(self):
        from repro.nvm.stats import MemoryStats

        assert MemoryStats().cache_hit_rate == 0.0
        assert MemoryStats(cache_hits=3, cache_misses=1).cache_hit_rate == 0.75

    def test_as_dict_round(self):
        from repro.nvm.stats import MemoryStats

        stats = MemoryStats(read_ops=1)
        assert stats.as_dict()["read_ops"] == 1

    def test_delta_merge_roundtrip(self):
        """snapshot + delta and merge are inverses: for any split point,
        earlier.merge(later.delta(earlier)) == later, on every counter."""
        from repro.nvm.device import DeviceProfile
        from repro.nvm.memory import SimulatedMemory

        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 14)
        mem.write(0, b"a" * 300)
        earlier = mem.stats.snapshot()
        mem.read(0, 300)
        mem.write(512, b"b" * 64)
        mem.flush()
        later = mem.stats.snapshot()
        delta = later.delta(earlier)
        assert earlier.merge(delta) == later
        # delta of a stats object against itself is all-zero.
        assert later.delta(later) == type(later)()

    def test_merge_commutes_and_zero_is_identity(self):
        from repro.nvm.stats import MemoryStats

        a = MemoryStats(read_ops=2, bytes_read=10, device_ns=1.5)
        b = MemoryStats(write_ops=4, bytes_written=9, device_ns=0.25)
        assert a.merge(b) == b.merge(a)
        assert a.merge(MemoryStats()) == a


class TestDeviceInvariance:
    def test_results_identical_on_every_device(self):
        """The device profile changes cost, never answers."""
        from repro.analytics.word_count import WordCount
        from repro.core.engine import EngineConfig, NTadocEngine
        from repro.sequitur.compressor import compress_files

        corpus = compress_files(
            [("f1", "p q r p q r s t"), ("f2", "s t p q r")]
        )
        results = set()
        for device in ("dram", "reram", "nvm", "pcm", "ssd", "hdd"):
            persistence = "none" if device == "dram" else "phase"
            run = NTadocEngine(
                corpus, EngineConfig(device=device, persistence=persistence)
            ).run(WordCount())
            results.add(tuple(sorted(run.result.items())))
        assert len(results) == 1
