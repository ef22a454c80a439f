"""Tests for access-trace recording and cross-device replay."""

import pytest

from repro.errors import CorruptDataError
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory
from repro.nvm.trace import AccessTrace, record_trace, replay_trace


def run_workload(memory):
    memory.write(0, b"header!!")
    for i in range(32):
        memory.write(256 + i * 64, bytes([i]) * 64)
    for i in range(32):
        memory.read(256 + i * 64, 64)
    memory.flush()


class TestRecording:
    def test_events_captured(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            run_workload(mem)
        assert len(trace) == 1 + 32 + 32 + 1
        assert trace.bytes_written == 8 + 32 * 64
        assert trace.bytes_read == 32 * 64

    def test_memory_still_functions_while_recording(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem):
            mem.write(0, b"payload")
        assert mem.read(0, 7) == b"payload"

    def test_recording_stops_at_context_exit(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            mem.write(0, b"x")
        mem.write(8, b"y")  # after the context: not recorded
        assert len(trace) == 1

    def test_costs_unchanged_by_recording(self):
        plain = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        run_workload(plain)

        recorded = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(recorded):
            run_workload(recorded)
        assert recorded.clock.ns == plain.clock.ns


class TestFillRecording:
    def test_fill_recorded_as_write(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            mem.fill(128, 4096)
        assert trace.events == [("w", 128, 4096)]
        assert trace.bytes_written == 4096

    def test_zero_size_fill_records_one_event(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            mem.fill(64, 0)
        assert trace.events == [("w", 64, 0)]

    def test_fill_cost_matches_replay(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            mem.fill(0, 8192, value=7)
            mem.flush()
        replayed = replay_trace(trace, DeviceProfile.nvm(), cache_bytes=1 << 20)
        assert replayed.ns == pytest.approx(trace.charged_ns)

    def test_fill_restored_after_recording(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            mem.fill(0, 64)
        mem.fill(64, 64)  # after the context: not recorded
        assert len(trace) == 1


class TestChargedNs:
    def test_charged_ns_accumulates_device_cost(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            start = mem.clock.ns
            run_workload(mem)
            elapsed = mem.clock.ns - start
        assert trace.charged_ns == pytest.approx(elapsed)

    def test_charged_ns_excludes_untraced_charges(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            mem.write(0, b"x" * 64)
            mem.clock.cpu(1000)  # CPU work is not device traffic
        assert trace.charged_ns < mem.clock.ns

    def test_charged_ns_not_persisted(self, tmp_path):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            run_workload(mem)
        path = tmp_path / "t.trace"
        trace.save(path)
        assert AccessTrace.load(path).charged_ns == 0.0


class TestEngineRunManyTrace:
    def test_fused_plan_trace_replays_to_charged_cost(self):
        """Recording a fused run_many's pool and replaying on the same
        profile reproduces exactly the simulated ns the pool charged."""
        from repro.analytics import InvertedIndex, TermVector, WordCount
        from repro.core.engine import EngineConfig, NTadocEngine
        from repro.datasets.generator import CorpusSpec, generate_corpus_files
        from repro.sequitur.compressor import compress_files

        spec = CorpusSpec(
            n_files=12, tokens_per_file=150, vocab_size=60, seed=417
        )
        corpus = compress_files(generate_corpus_files(spec))
        config = EngineConfig(traversal="bottomup")
        engine = NTadocEngine(corpus, config)

        captured = {}
        original_new_state = engine._new_state

        def recording_new_state(*args, **kwargs):
            state = original_new_state(*args, **kwargs)
            recorder = record_trace(state.pool_mem)
            captured["trace"] = recorder.__enter__()
            captured["recorder"] = recorder
            return state

        engine._new_state = recording_new_state
        try:
            plan = engine.run_many([WordCount(), InvertedIndex(), TermVector()])
        finally:
            captured["recorder"].__exit__(None, None, None)

        trace = captured["trace"]
        assert len(trace) > 100
        assert plan.total_ns > 0
        # Same profile + same cache capacity as the engine's pool device.
        replayed = replay_trace(
            trace, DeviceProfile.nvm(), cache_bytes=config.cache_bytes
        )
        assert replayed.ns == pytest.approx(trace.charged_ns)
        # The pool's device traffic is a strict subset of the plan total
        # (which also includes CPU, DRAM scratch, and disk charges).
        assert 0 < trace.charged_ns < plan.total_ns


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            run_workload(mem)
        path = tmp_path / "workload.trace"
        trace.save(path)
        restored = AccessTrace.load(path)
        assert restored.events == trace.events
        assert restored.device_size == trace.device_size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(CorruptDataError):
            AccessTrace.load(path)

    def test_truncated(self, tmp_path):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            run_workload(mem)
        path = tmp_path / "cut.trace"
        trace.save(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptDataError):
            AccessTrace.load(path)


class TestReplay:
    def record(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16)
        with record_trace(mem) as trace:
            run_workload(mem)
        return trace, mem.clock.ns

    def test_replay_same_profile_reproduces_cost(self):
        trace, original_ns = self.record()
        replayed = replay_trace(
            trace, DeviceProfile.nvm(), cache_bytes=1 << 20
        )
        assert replayed.ns == pytest.approx(original_ns)

    def test_replay_orders_devices_sensibly(self):
        trace, _ = self.record()
        times = {
            name: replay_trace(trace, DeviceProfile.by_name(name)).ns
            for name in ("dram", "nvm", "pcm", "hdd")
        }
        assert times["dram"] < times["nvm"] < times["pcm"]
        assert times["nvm"] < times["hdd"]

    def test_replay_from_disk(self, tmp_path):
        trace, original_ns = self.record()
        path = tmp_path / "t.trace"
        trace.save(path)
        replayed = replay_trace(
            AccessTrace.load(path), DeviceProfile.nvm(), cache_bytes=1 << 20
        )
        assert replayed.ns == pytest.approx(original_ns)

    def test_replay_engine_workload_on_future_devices(self):
        """The §VI-F methodology: trace a real engine pool once, replay on
        candidate architectures."""
        from repro.core.dag import Dag
        from repro.core.pruning import PrunedDag
        from repro.core.summation import summate_all
        from repro.core.traversal import propagate_weights_topdown
        from repro.nvm.pool import NvmPool
        from repro.sequitur.compressor import compress_files

        corpus = compress_files([("f", "m n o p m n o p q r m n q r " * 20)])
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 20)
        with record_trace(mem) as trace:
            pool = NvmPool(mem)
            dag = Dag(corpus)
            pruned = PrunedDag.build(pool, corpus, dag, bounds=summate_all(dag))
            propagate_weights_topdown(pruned, pool.allocator)
            pool.flush()
        assert len(trace) > 100
        reram_ns = replay_trace(trace, DeviceProfile.reram()).ns
        pcm_ns = replay_trace(trace, DeviceProfile.pcm()).ns
        assert pcm_ns > reram_ns  # PCM's slow writes dominate pool builds
