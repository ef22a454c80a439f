"""A traced segmented engine partitions its time exactly, like the core one.

``SegmentedEngine`` binds ``EngineConfig.tracer`` to its one device, so
every root span reads the engine's clock: a query's root spans (each
segment's phases, a post-reopen rebuild, the merge) sum ``==`` to its
``query_ns``, a compaction's to its clock delta, and every root carries
per-device traffic deltas.
"""

import pytest

from repro.core.engine import EngineConfig
from repro.ingest import SegmentedEngine
from repro.obs.tracer import Tracer

TRIO = ["word_count", "inverted_index", "term_vector"]
WORDS = "alpha beta gamma delta epsilon zeta eta theta".split()


def _engine(**config):
    engine = SegmentedEngine(EngineConfig(**config), seal_threshold_tokens=64)
    for i in range(12):
        words = [WORDS[(i * 3 + j) % len(WORDS)] for j in range(20)]
        engine.append(f"doc{i:02d}", " ".join(words))
    engine.seal()
    return engine


def _traced():
    tracer = Tracer()
    return tracer, _engine(tracer=tracer)


def test_query_roots_sum_to_query_ns():
    tracer, engine = _traced()
    first = len(tracer.roots)
    result = engine.run_tasks(TRIO)
    roots = tracer.roots[first:]
    assert result.n_segments > 1
    assert sum(root.sim_ns for root in roots) == result.query_ns
    assert result.query_ns > 0
    assert {root.name for root in roots} == {
        "phase:initialization",
        "phase:traversal",
        "ingest:merge",
    }


def test_compact_roots_sum_to_clock_delta():
    tracer, engine = _traced()
    engine.run_tasks(TRIO)
    first = len(tracer.roots)
    start = engine.clock.ns
    engine.compact()
    roots = tracer.roots[first:]
    assert [root.name for root in roots] == ["ingest:compact"]
    assert sum(root.sim_ns for root in roots) == engine.clock.ns - start
    assert engine.clock.ns > start


def test_roots_carry_device_deltas():
    tracer, engine = _traced()
    engine.run_tasks(TRIO)
    assert tracer.roots
    for root in tracer.roots:
        assert set(root.device) == {"pool", "dram"}
    traffic = sum(
        root.device["pool"]["bytes_read"] + root.device["pool"]["bytes_written"]
        for root in tracer.roots
    )
    assert traffic > 0


def test_query_after_reopen_partitions_with_rebuild():
    tracer, engine = _traced()
    engine.run_tasks(TRIO)
    memory, artifacts, config = engine.memory, dict(engine.artifacts), engine.config
    memory.crash()
    reopened = SegmentedEngine.reopen(memory, artifacts, config)
    first = len(tracer.roots)
    result = reopened.run_tasks(TRIO)
    roots = tracer.roots[first:]
    assert "ingest:rebuild" in {root.name for root in roots}
    assert sum(root.sim_ns for root in roots) == result.query_ns


@pytest.mark.parametrize("metrics", [True, False])
def test_tracing_changes_nothing_charged(metrics):
    plain = _engine(metrics=metrics)
    _, traced = _traced()
    assert plain.run_tasks(TRIO).rendered == traced.run_tasks(TRIO).rendered
    assert plain.clock.ns == traced.clock.ns


def test_shared_tracer_reads_the_running_engine():
    """``recompress_baseline`` runs a plain engine on its own clock; the
    segmented engine's next spans must read the segmented clock."""
    tracer, engine = _traced()
    engine.recompress_baseline(TRIO)
    first = len(tracer.roots)
    start = engine.clock.ns
    engine.compact()
    (root,) = tracer.roots[first:]
    assert root.sim_ns == engine.clock.ns - start > 0


def test_baseline_adds_nothing_to_the_engine_trace():
    """The recompress baseline runs on clocks of its own, so none of its
    spans may land among the engine's roots or in ``total_sim_ns``."""
    tracer, engine = _traced()
    engine.run_tasks(TRIO)
    roots, total = len(tracer.roots), tracer.total_sim_ns()
    engine.recompress_baseline(TRIO)
    assert len(tracer.roots) == roots
    assert tracer.total_sim_ns() == total
