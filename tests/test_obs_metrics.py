"""Metrics registry: instruments, determinism, and the zero-cost contract.

The load-bearing guarantees pinned here:

* **Histogram algebra** -- power-of-two bucketing is merge-associative
  (counts and buckets exactly, sums to float tolerance), and the
  rank-based percentile readout brackets the true sample: the returned
  edge is a strict upper bound and (above bucket 0) at most 2x the
  rank-selected observation.  Checked property-based.
* **Byte-determinism** -- ``expose()`` and ``to_json()`` are insertion-
  order independent and identical across repeated identical engine runs.
* **Zero charged cost** -- metrics on vs off produces bit-identical
  simulated totals, results, and pool images outside the top-pinned
  ``__flightrec__`` window (the one region the recorder owns).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.obs.metrics import (
    OVERFLOW_BUCKET,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_edge,
    inc,
    observe,
    set_gauge,
)
from repro.obs.recorder import Recorder, attached, current
from repro.sequitur.compressor import compress_files


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(n_files=12, tokens_per_file=150, vocab_size=60, seed=771)
    return compress_files(generate_corpus_files(spec))


observations = st.lists(
    st.floats(min_value=0.0, max_value=2.0**70, allow_nan=False),
    min_size=0,
    max_size=60,
)


def _hist(values) -> Histogram:
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    return hist


class TestHistogramProperties:
    @given(a=observations, b=observations, c=observations)
    @settings(max_examples=150, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = _hist(a).merge(_hist(b)).merge(_hist(c))
        right = _hist(a).merge(_hist(b).merge(_hist(c)))
        assert left.count == right.count == len(a) + len(b) + len(c)
        assert left.buckets == right.buckets
        assert left.sum == pytest.approx(right.sum, rel=1e-12, abs=1e-9)

    @given(a=observations, b=observations)
    @settings(max_examples=100, deadline=None)
    def test_merge_matches_observing_everything(self, a, b):
        merged = _hist(a).merge(_hist(b))
        combined = _hist(a + b)
        assert merged.count == combined.count
        assert merged.buckets == combined.buckets

    @given(
        values=observations.filter(len),
        q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_percentile_brackets_the_rank_sample(self, values, q):
        hist = _hist(values)
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        true = sorted(values)[rank - 1]
        edge = hist.percentile(q)
        if edge == math.inf:
            # Overflow bucket: the sample is at least 2^63.
            assert true >= 2.0**63
        else:
            assert true < edge
            if edge > 1.0:
                # Power-of-two buckets: the edge overshoots by < 2x.
                assert true >= edge / 2

    @given(values=observations)
    @settings(max_examples=100, deadline=None)
    def test_buckets_partition_the_observations(self, values):
        hist = _hist(values)
        assert sum(hist.buckets.values()) == hist.count == len(values)
        for bucket, n in hist.buckets.items():
            assert 0 <= bucket <= OVERFLOW_BUCKET
            assert n > 0


class TestHistogramEdges:
    def test_empty_percentiles_are_zero(self):
        hist = Histogram("h")
        for q in (0.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == 0.0
        assert hist.count == 0 and hist.buckets == {}

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101.0)
        with pytest.raises(ValueError):
            Histogram("h").percentile(-0.1)

    def test_subunit_values_fill_bucket_zero(self):
        hist = _hist([0.0, 0.25, 0.999])
        assert hist.buckets == {0: 3}
        assert hist.percentile(100.0) == 1.0

    def test_overflow_bucket_reads_as_inf(self):
        hist = _hist([2.0**63, 2.0**64, 2.0**70])
        assert hist.buckets == {OVERFLOW_BUCKET: 3}
        assert hist.percentile(50.0) == math.inf
        assert bucket_upper_edge(OVERFLOW_BUCKET) == math.inf

    def test_bucket_rule_matches_docstring(self):
        # bucket k holds [2^(k-1), 2^k); bucket 0 holds [0, 1).
        assert bucket_index(0.0) == 0
        assert bucket_index(1.0) == 1
        assert bucket_index(1.999) == 1
        assert bucket_index(2.0) == 2
        assert bucket_index(2.0**62) == 63
        assert bucket_index(2.0**63) == OVERFLOW_BUCKET

    def test_merge_of_empties_is_empty(self):
        merged = Histogram("h").merge(Histogram("h"))
        assert merged.count == 0 and merged.buckets == {} and merged.sum == 0.0


class TestRegistryReadout:
    def _populate(self, registry: MetricsRegistry, order: int) -> None:
        ops = [
            lambda: registry.inc("ntadoc_runs_total", 2.0),
            lambda: registry.set_gauge("ntadoc_pool_resident", 4096.0),
            lambda: registry.observe("ntadoc_task_ns", 1500.0, task="wc"),
            lambda: registry.observe("ntadoc_task_ns", 0.5, task="wc"),
            lambda: registry.inc("ntadoc_events_total", 3.0, type="reopen"),
        ]
        if order:
            ops.reverse()
        for op in ops:
            op()

    def test_exposition_is_insertion_order_independent(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        self._populate(first, order=0)
        self._populate(second, order=1)
        assert first.expose() == second.expose()
        assert first.to_json() == second.to_json()

    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.inc("ntadoc_runs_total", help="runs")
        registry.observe("ntadoc_task_ns", 3.0, task="wc")
        text = registry.expose()
        assert "# HELP ntadoc_runs_total runs\n" in text
        assert "# TYPE ntadoc_runs_total counter\n" in text
        assert "# TYPE ntadoc_task_ns histogram\n" in text
        assert 'ntadoc_task_ns_bucket{task="wc",le="+Inf"} 1' in text
        assert 'ntadoc_task_ns_count{task="wc"} 1' in text
        assert text.endswith("\n")

    def test_snapshot_percentiles_present(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 300.0):
            registry.observe("ntadoc_task_ns", value, task="wc")
        series = registry.snapshot()["histograms"]['ntadoc_task_ns{task="wc"}']
        assert series["count"] == 3
        assert series["p50"] == 4.0  # rank-2 sample 2.0 -> bucket edge 4
        assert series["p99"] == 512.0

    def test_counters_only_move_forward(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("ntadoc_runs_total", -1.0)

    def test_module_helpers_noop_when_detached(self):
        assert current() is None
        inc("x")
        set_gauge("y", 1.0)
        observe("z", 2.0)  # must not raise, must not create state

    def test_attached_nests_and_restores(self):
        outer, inner = Recorder(metrics=True), Recorder(metrics=True)
        with attached(outer):
            inc("depth")
            with attached(inner):
                inc("depth")
            with attached(None):  # None is accepted and does nothing
                inc("depth")
        assert outer.registry.counter("depth").value == 2.0
        assert inner.registry.counter("depth").value == 1.0
        assert current() is None


class TestEngineDeterminism:
    def test_identical_runs_expose_identical_bytes(self, corpus):
        readouts = []
        for _ in range(2):
            engine = NTadocEngine(corpus, EngineConfig())
            engine.run(task_by_name("word_count"))
            readouts.append((engine.metrics.expose(), engine.metrics.to_json()))
        assert readouts[0] == readouts[1]
        assert "ntadoc_task_ns" in readouts[0][0]

    def test_metrics_on_off_bit_identical(self, corpus):
        """Metrics on vs off: same charged ns, same results, and pool
        images equal outside the ``__flightrec__`` window (which only
        exists to differ)."""
        from repro.nvm.flightrec import FLIGHTREC_REGION, device_image

        images, totals, results = [], [], []
        for metrics in (True, False):
            engine = NTadocEngine(corpus, EngineConfig(metrics=metrics))
            run = engine.run(task_by_name("word_count"))
            state = engine.last_state
            offset, size = state.pool.get_region(FLIGHTREC_REGION)
            image = bytearray(device_image(state.pool_mem))
            image[offset : offset + size] = bytes(size)
            images.append(bytes(image))
            totals.append(run.total_ns)
            results.append(run.result)
        assert totals[0] == totals[1]
        assert results[0] == results[1]
        assert images[0] == images[1]

    def test_journal_feeds_registry(self, corpus):
        engine = NTadocEngine(corpus, EngineConfig())
        engine.run(task_by_name("word_count"))
        snapshot = engine.metrics.snapshot()
        fanout = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("ntadoc_events_total")
        }
        assert fanout, "journal emission must increment ntadoc_events_total"
        assert sum(fanout.values()) == len(engine.journal.events)

    def test_metrics_off_leaves_no_registry(self, corpus):
        engine = NTadocEngine(corpus, EngineConfig(metrics=False))
        run = engine.run(task_by_name("word_count"))
        assert engine.metrics is None and engine.journal is None
        assert run.total_ns > 0
