"""Benchmarks for the beyond-the-paper extensions.

* write-endurance comparison (Section VII: N-TADOC "reduces the write
  operations on NVM ... to improve write endurance");
* random access into compressed data (the TADOC line's ICDE'20 work).
"""

from conftest import CACHE_DIR, once

from repro.analytics import task_by_name
from repro.core.dag import Dag
from repro.core.pruning import PrunedDag
from repro.core.random_access import RandomAccessor
from repro.core.summation import summate_all
from repro.datasets import corpus_for
from repro.harness.tables import format_table
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory
from repro.nvm.pool import NvmPool
from repro.nvm.wear import wear_report


def _pruned_pool(corpus, track_wear=False, scatter=False, growable=False):
    dag = Dag(corpus)
    mem = SimulatedMemory(
        DeviceProfile.nvm(), 1 << 24, cache_bytes=1 << 21, track_wear=track_wear
    )
    pool = NvmPool(mem, scatter=scatter)
    pruned = PrunedDag.build(
        pool, corpus, dag,
        bounds=None if growable else summate_all(dag),
        per_rule=scatter,
    )
    return dag, pruned, pool


def test_endurance_footprint(benchmark):
    """Media program events: N-TADOC layout vs the naive port's churn."""

    def measure():
        corpus = corpus_for("A", cache_dir=CACHE_DIR)
        out = {}
        for label, kwargs in (
            ("ntadoc", {}),
            ("naive", {"scatter": True, "growable": True}),
        ):
            _, pruned, pool = _pruned_pool(corpus, track_wear=True, **kwargs)
            pool.flush()
            out[label] = wear_report(pool.memory)
        return out

    reports = once(benchmark, measure)
    print()
    for label, report in reports.items():
        print(
            f"  {label:8s} programs={report.total_programs:7d} "
            f"cells={report.lines_touched:6d} hottest={report.max_line_programs}"
        )
    # The naive port programs more cells for the same logical content
    # (scatter gaps + per-rule indirection records), consuming more
    # endurance budget.
    assert reports["naive"].lines_touched > reports["ntadoc"].lines_touched


def test_random_access_scaling(benchmark):
    """Point access cost vs full expansion, per document (dataset C)."""

    def measure():
        corpus = corpus_for("C", cache_dir=CACHE_DIR)
        dag, pruned, pool = _pruned_pool(corpus)
        accessor = RandomAccessor(pruned, dag.expansion_lengths())
        clock = pool.memory.clock
        rows = []
        for file_index in range(min(accessor.n_files, 4)):
            length = accessor.file_length(file_index)
            start = clock.ns
            accessor.word_at(file_index, length // 2)
            point_ns = clock.ns - start
            start = clock.ns
            accessor.extract_file(file_index)
            full_ns = clock.ns - start
            rows.append((file_index, length, point_ns, full_ns))
        return rows

    rows = once(benchmark, measure)
    print()
    print(
        format_table(
            ["File", "Words", "Point access (ns)", "Full expansion (ns)"],
            [[f, n, f"{p:.0f}", f"{e:.0f}"] for f, n, p, e in rows],
            title="Extension: random access into compressed documents",
        )
    )
    for _file, _length, point_ns, full_ns in rows:
        assert point_ns < full_ns / 3


def test_streaming_ingestion_overhead(benchmark):
    """Streaming (segment-per-batch) ingestion vs monolithic compression.

    Segments cannot reference earlier segments' rules, so the streamed
    grammar is larger; merged analytics remain exact and the segmented
    query (per-segment plans plus the merge) costs a modest overhead over
    the monolithic run.
    """
    from repro.analytics.word_count import WordCount, render_word_counts
    from repro.core.engine import EngineConfig, NTadocEngine
    from repro.datasets import dataset_files
    from repro.ingest import SegmentedEngine
    from repro.sequitur.compressor import compress_files

    def measure():
        files = dataset_files("B", scale=0.2)
        monolithic = compress_files(files)
        # One seal per batch: no threshold-triggered seal in between.
        stream = SegmentedEngine(EngineConfig(), seal_threshold_tokens=1 << 30)
        batch_size = max(1, len(files) // 4)
        for start in range(0, len(files), batch_size):
            for name, text in files[start : start + batch_size]:
                stream.append(name, text)
            stream.seal()
        mono_run = NTadocEngine(monolithic).run(WordCount())
        merged = stream.run_tasks(["word_count"])
        rendered_mono = render_word_counts(mono_run.result, monolithic.vocab)
        assert rendered_mono == merged.rendered["word_count"]
        return (
            monolithic.grammar_length(),
            sum(s.corpus.grammar_length() for s in stream.corpus.segments),
            mono_run.total_ns,
            merged.query_ns,
        )

    mono_glen, stream_glen, mono_ns, stream_ns = once(benchmark, measure)
    print()
    print(
        f"streaming overhead (dataset B @0.2, 4 batches): grammar "
        f"{stream_glen / mono_glen:.2f}x larger ({stream_glen} vs "
        f"{mono_glen} symbols), word_count query {stream_ns:.0f} ns = "
        f"{stream_ns / mono_ns:.2f}x monolithic ({mono_ns:.0f} ns)"
    )
    # Exactness is asserted above; the overheads must stay bounded.
    assert stream_glen >= mono_glen
    assert stream_ns < 5 * mono_ns
