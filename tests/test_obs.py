"""Span tracer, exporters, and perf snapshots (docs/observability.md).

The load-bearing guarantees pinned here:

* **Partition exactness** -- a traced run's root spans sum bit-exactly to
  ``RunResult.total_ns`` (solo and fused), because the phase timeline and
  the phase spans share the same clock readings.
* **Zero charged overhead** -- tracing on vs off produces bit-identical
  simulated totals and results; the tracer only *reads* the clock.
* **Device attribution** -- the root spans' pool traffic sums to the
  run's final pool stats.
* **Exporter shape** -- Chrome trace JSON is well-formed (complete
  events nested consistently, counter tracks present); snapshots are
  canonical (same run -> same bytes) and the diff gate fires on
  regressions and missing span paths only.
"""

import json

import pytest

from repro.analytics import InvertedIndex, TermVector, WordCount
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.metrics.report import hot_spans_report, ops_report, trace_report
from repro.nvm.memory import SimulatedClock
from repro.obs import snapshot as snapshot_mod
from repro.obs.export import aggregate_spans, chrome_trace, write_chrome_trace
from repro.obs.metrics import Histogram
from repro.obs.recorder import Recorder, attached, current
from repro.obs.tracer import Tracer
from repro.obs import tracer as obs
from repro.sequitur.compressor import compress_files


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(n_files=16, tokens_per_file=180, vocab_size=70, seed=902)
    return compress_files(generate_corpus_files(spec))


def traced_run(corpus, task=None, max_depth=None, **config_kwargs):
    tracer = Tracer(max_depth=max_depth)
    engine = NTadocEngine(
        corpus, EngineConfig(tracer=tracer, **config_kwargs)
    )
    run = engine.run(task if task is not None else WordCount())
    return tracer, run


def traced_plan(corpus, max_depth=None, **config_kwargs):
    tracer = Tracer(max_depth=max_depth)
    engine = NTadocEngine(
        corpus, EngineConfig(tracer=tracer, **config_kwargs)
    )
    plan = engine.run_many([WordCount(), InvertedIndex(), TermVector()])
    return tracer, plan


class TestTracerCore:
    def test_nesting_and_self_time(self):
        clock = SimulatedClock()
        tracer = Tracer()
        tracer.bind(clock=clock)
        with tracer.span("outer"):
            clock.advance(100.0)
            with tracer.span("inner"):
                clock.advance(40.0)
            clock.advance(10.0)
        (outer,) = tracer.roots
        assert outer.sim_ns == pytest.approx(150.0)
        assert outer.self_sim_ns == pytest.approx(110.0)
        (inner,) = outer.children
        assert inner.depth == 1
        assert inner.sim_ns == pytest.approx(40.0)
        assert tracer.total_sim_ns() == pytest.approx(150.0)

    def test_max_depth_skips_deep_spans(self):
        clock = SimulatedClock()
        tracer = Tracer(max_depth=1)
        tracer.bind(clock=clock)
        with tracer.span("outer") as outer:
            assert outer is not None
            with tracer.span("inner") as inner:
                assert inner is None
                clock.advance(5.0)
        (root,) = tracer.roots
        assert root.children == []
        assert root.self_sim_ns == pytest.approx(5.0)

    def test_span_closes_on_exception(self):
        clock = SimulatedClock()
        tracer = Tracer()
        tracer.bind(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                clock.advance(7.0)
                raise RuntimeError("boom")
        (span,) = tracer.roots
        assert span.sim_ns == pytest.approx(7.0)
        assert tracer._stack == []
        # The tracer remains usable after the unwind.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["doomed", "after"]

    def test_op_stats_aggregation(self):
        tracer = Tracer()
        for ns in (0.5, 1.0, 3.0, 1000.0):
            tracer.op("x", ns)
        stats = tracer.ops["x"]
        assert isinstance(stats, Histogram)  # the one histogram type
        assert stats.count == 4
        assert stats.max == 1000.0
        assert stats.mean == pytest.approx(1004.5 / 4)
        # Buckets: 0.5 -> 0, 1.0 -> 1, 3.0 -> 2, 1000.0 -> 10.
        assert stats.buckets == {0: 1, 1: 1, 2: 1, 10: 1}

    def test_module_helpers_are_noops_without_tracer(self):
        assert current() is None
        with obs.span("nobody-listening") as span:
            assert span is None
        obs.op("nobody-listening", 5.0)  # must not raise
        with attached(Recorder()):  # a recorder without a tracer
            with obs.span("nobody-listening") as span:
                assert span is None
            obs.op("nobody-listening", 5.0)

    def test_attached_restores_previous(self):
        outer, inner = Recorder(Tracer()), Recorder(Tracer())
        with attached(outer):
            assert current() is outer
            with obs.span("a"):
                pass
            with attached(inner):
                assert current() is inner
                with obs.span("b"):
                    pass
            assert current() is outer
            with attached(None):  # None passes straight through
                assert current() is outer
        assert current() is None
        assert [s.name for s in outer.tracer.roots] == ["a"]
        assert [s.name for s in inner.tracer.roots] == ["b"]

    @pytest.mark.parametrize("depth", [0, -1])
    def test_max_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError):
            Tracer(max_depth=depth)

    def test_reset_keeps_bindings(self):
        clock = SimulatedClock()
        tracer = Tracer()
        tracer.bind(clock=clock)
        with tracer.span("x"):
            clock.advance(1.0)
        tracer.reset()
        assert tracer.roots == [] and tracer.ops == {}
        with tracer.span("y"):
            clock.advance(2.0)
        assert tracer.total_sim_ns() == pytest.approx(2.0)


class TestEngineIntegration:
    @pytest.mark.parametrize("traversal", ["topdown", "bottomup"])
    def test_solo_partition_is_exact(self, corpus, traversal):
        tracer, run = traced_run(corpus, traversal=traversal)
        # Bit-exact, not approx: phase spans reuse the timeline's clock
        # readings, so the root spans partition the run total.
        assert tracer.total_sim_ns() == run.total_ns
        assert all(root.category == "phase" for root in tracer.roots)

    def test_fused_partition_is_exact(self, corpus):
        tracer, plan = traced_plan(corpus)
        assert tracer.total_sim_ns() == plan.total_ns

    def test_tracing_changes_nothing_charged(self, corpus):
        baseline = NTadocEngine(corpus, EngineConfig()).run(WordCount())
        tracer, traced = traced_run(corpus)
        assert traced.total_ns == baseline.total_ns  # bit-identical
        assert traced.result == baseline.result
        assert traced.phase_ns == baseline.phase_ns

    def test_tracing_changes_nothing_charged_fused(self, corpus):
        engine = NTadocEngine(corpus, EngineConfig())
        baseline = engine.run_many([WordCount(), InvertedIndex(), TermVector()])
        tracer, traced = traced_plan(corpus)
        assert traced.total_ns == baseline.total_ns
        for solo, fused in zip(baseline.results, traced.results):
            assert fused.result == solo.result

    def test_tracer_detaches_after_run(self, corpus):
        traced_run(corpus)
        assert current() is None

    def test_device_attribution_sums_to_pool_stats(self, corpus):
        tracer, run = traced_run(corpus)
        # Root spans tile the measured run: their summed deltas must
        # equal the pool's final cumulative counters minus whatever state
        # setup wrote before the first phase opened (the phase-marker
        # region, outside the measurement window by design).
        first = tracer.roots[0]
        for key in ("bytes_read", "bytes_written", "flush_ops"):
            setup = first.device_cum["pool"][key] - first.device["pool"][key]
            spans_sum = sum(root.device["pool"][key] for root in tracer.roots)
            final = getattr(run.pool_stats, key)
            assert spans_sum == final - setup, key

    def test_expected_span_names_present(self, corpus):
        tracer, _ = traced_plan(corpus, traversal="bottomup")
        names = {span.name for span in tracer.spans()}
        assert "phase:initialization" in names
        assert "phase:traversal" in names
        assert "init:pool_build" in names
        assert "plan:bottomup_pass" in names
        assert "plan:segment_sweep" in names
        assert "pool:flush" in names
        assert "traversal:wordlists_bottomup" in names
        assert "task:word_count:fuse" in names
        assert "task:word_count:write_back" in names

    def test_op_counters_recorded(self, corpus):
        tracer, _ = traced_plan(corpus, traversal="bottomup")
        assert "phashtable:add_many" in tracer.ops
        add_many = tracer.ops["phashtable:add_many"]
        assert add_many.count > 0
        assert add_many.sum > 0
        assert "pool:alloc_region" in tracer.ops

    def test_resident_delta_captured(self, corpus):
        tracer, _ = traced_run(corpus)
        (stream_span,) = tracer.find("init:stream")
        # Streaming the corpus in charges DRAM residency to the ledger.
        assert stream_span.resident.get("dram", 0) > 0

    def test_max_depth_limits_recording(self, corpus):
        tracer, run = traced_run(corpus, max_depth=1)
        assert all(not root.children for root in tracer.roots)
        assert tracer.total_sim_ns() == run.total_ns

    def test_rebinding_for_second_run(self, corpus):
        tracer = Tracer()
        engine = NTadocEngine(corpus, EngineConfig(tracer=tracer))
        first = engine.run(WordCount())
        second = engine.run(WordCount())
        assert tracer.total_sim_ns() == first.total_ns + second.total_ns


class TestReports:
    def test_trace_report_renders(self, corpus):
        tracer, _ = traced_plan(corpus)
        text = trace_report(tracer)
        assert "phase:traversal" in text
        assert "simulated total" in text
        shallow = trace_report(tracer, max_depth=1)
        assert "pool:flush" not in shallow

    def test_hot_spans_report_ranked_by_self_time(self, corpus):
        tracer, _ = traced_plan(corpus)
        text = hot_spans_report(tracer, top=5)
        assert "hot spans" in text
        aggregated = aggregate_spans(tracer)
        hottest = max(aggregated, key=lambda p: aggregated[p]["self_sim_ns"])
        assert hottest in text

    def test_hot_spans_report_throughput_columns(self, corpus):
        tracer, _ = traced_plan(corpus)
        text = hot_spans_report(tracer)
        assert "moved" in text
        assert "MB/s" in text
        # At least one span moved pool bytes, so a throughput figure
        # (not the "-" placeholder) must appear somewhere in the table.
        aggregated = aggregate_spans(tracer)
        assert any(
            agg["bytes_read"] + agg["bytes_written"] > 0
            for agg in aggregated.values()
        )

    def test_ops_report_renders(self, corpus):
        tracer, _ = traced_plan(corpus, traversal="bottomup")
        text = ops_report(tracer)
        assert "phashtable:add_many" in text


class TestChromeTrace:
    def test_structure(self, corpus):
        tracer, plan = traced_plan(corpus)
        doc = chrome_trace(tracer)
        json.dumps(doc)  # must be serializable
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "C"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == sum(1 for _ in tracer.spans())
        # Complete events carry sim-us timestamps and device args.
        root_events = [
            e for e in complete if e["name"].startswith("phase:")
        ]
        assert sum(e["dur"] for e in root_events) == pytest.approx(
            plan.total_ns / 1e3
        )
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "pool traffic" for e in counters)
        # The final pool counter sample equals the plan's cumulative stats.
        last_pool = [e for e in counters if e["name"] == "pool traffic"][-1]
        pool_stats = plan.results[0].pool_stats
        assert last_pool["args"]["bytes_read"] == pool_stats.bytes_read

    def test_write_chrome_trace(self, corpus, tmp_path):
        tracer, _ = traced_run(corpus)
        path = tmp_path / "trace.json"
        size = write_chrome_trace(tracer, path)
        assert size == path.stat().st_size
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]


class TestSnapshots:
    def test_snapshot_is_canonical(self, corpus):
        tracer_a, _ = traced_run(corpus)
        tracer_b, _ = traced_run(corpus)
        snap_a = snapshot_mod.build_snapshot(tracer_a, workload="wc")
        snap_b = snapshot_mod.build_snapshot(tracer_b, workload="wc")
        # Same workload -> byte-identical canonical text (no wall times).
        assert snapshot_mod.dumps(snap_a) == snapshot_mod.dumps(snap_b)

    def test_save_load_roundtrip(self, corpus, tmp_path):
        tracer, _ = traced_run(corpus)
        snap = snapshot_mod.build_snapshot(tracer, workload="wc")
        path = tmp_path / "snap.json"
        snapshot_mod.save(snap, path)
        assert snapshot_mod.load(path) == snap

    def test_identical_snapshots_pass_gate(self, corpus):
        tracer, _ = traced_run(corpus)
        snap = snapshot_mod.build_snapshot(tracer, workload="wc")
        diff = snapshot_mod.diff_snapshots(snap, snap)
        assert diff.ok
        assert not diff.regressions and not diff.missing
        assert "within tolerance" in snapshot_mod.format_diff(diff)

    def test_regression_fails_gate(self, corpus):
        tracer, _ = traced_run(corpus)
        base = snapshot_mod.build_snapshot(tracer, workload="wc")
        worse = json.loads(snapshot_mod.dumps(base))
        worse["total_sim_ns"] = base["total_sim_ns"] * 1.5
        path = next(iter(worse["spans"]))
        worse["spans"][path]["sim_ns"] = (
            base["spans"][path]["sim_ns"] * 2 + 1e6
        )
        diff = snapshot_mod.diff_snapshots(base, worse)
        assert not diff.ok
        keys = {entry.key for entry in diff.regressions}
        assert "total_sim_ns" in keys
        assert f"span:{path}:sim_ns" in keys
        assert "REGRESSED" in snapshot_mod.format_diff(diff)

    def test_improvement_reported_not_failed(self, corpus):
        tracer, _ = traced_run(corpus)
        base = snapshot_mod.build_snapshot(tracer, workload="wc")
        better = json.loads(snapshot_mod.dumps(base))
        better["total_sim_ns"] = base["total_sim_ns"] * 0.5
        diff = snapshot_mod.diff_snapshots(base, better)
        assert diff.ok
        assert any(e.key == "total_sim_ns" for e in diff.improvements)

    def test_missing_span_path_fails_gate(self, corpus):
        tracer, _ = traced_run(corpus)
        base = snapshot_mod.build_snapshot(tracer, workload="wc")
        shrunk = json.loads(snapshot_mod.dumps(base))
        dropped = next(iter(shrunk["spans"]))
        del shrunk["spans"][dropped]
        diff = snapshot_mod.diff_snapshots(base, shrunk)
        assert not diff.ok
        assert dropped in diff.missing

    def test_tiny_drift_within_absolute_floor_passes(self, corpus):
        tracer, _ = traced_run(corpus)
        base = snapshot_mod.build_snapshot(tracer, workload="wc")
        jittered = json.loads(snapshot_mod.dumps(base))
        jittered["total_sim_ns"] = base["total_sim_ns"] + 100.0
        assert snapshot_mod.diff_snapshots(base, jittered).ok

    def test_workload_mismatch_noted(self, corpus):
        tracer, _ = traced_run(corpus)
        base = snapshot_mod.build_snapshot(tracer, workload="wc")
        other = snapshot_mod.build_snapshot(tracer, workload="different")
        diff = snapshot_mod.diff_snapshots(base, other)
        assert any("workloads differ" in note for note in diff.notes)
