"""Streaming ingestion: batches sealed as segments, analytics merged.

Each batch of files is appended to a :class:`SegmentedEngine` and sealed
into its own segment against the stream-wide dictionary; queries merge
the per-segment results exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.errors import ReproError
from repro.ingest import SegmentedEngine, canonical_json, reference_rendered
from repro.ingest.merge import MERGEABLE_TASKS
from repro.sequitur.compressor import compress_files

BATCH_1 = [
    ("mon.log", "status ok status ok error retry status ok"),
    ("tue.log", "error retry error retry status ok"),
]
BATCH_2 = [
    ("wed.log", "status ok maintenance window status ok"),
]
BATCH_3 = [
    ("thu.log", "maintenance window error retry error retry"),
    ("fri.log", "status ok status ok status ok"),
]

ALL_FILES = BATCH_1 + BATCH_2 + BATCH_3


def ingest(engine: SegmentedEngine, batch) -> None:
    """Append one batch and seal it into its own segment."""
    for name, text in batch:
        engine.append(name, text)
    engine.seal()


def batched(*batches) -> SegmentedEngine:
    # Seals only where a batch ends: no threshold-triggered seal.
    engine = SegmentedEngine(EngineConfig(), seal_threshold_tokens=1 << 30)
    for batch in batches:
        ingest(engine, batch)
    return engine


def query(engine: SegmentedEngine, task: str):
    return engine.run_tasks([task]).rendered[task]


@pytest.fixture
def stream():
    return batched(BATCH_1, BATCH_2, BATCH_3)


@pytest.fixture(scope="module")
def monolithic():
    return compress_files(ALL_FILES)


def word_totals(files) -> dict[str, int]:
    totals: dict[str, int] = {}
    for _, text in files:
        for token in text.split():
            totals[token] = totals.get(token, 0) + 1
    return totals


class TestIngestion:
    def test_chunk_count(self, stream):
        assert len(stream.corpus.segments) == 3
        assert stream.corpus.n_live == 5

    def test_file_names_in_order(self, stream):
        assert stream.corpus.live_doc_names() == [name for name, _ in ALL_FILES]

    def test_shared_dictionary_keeps_ids_stable(self, stream, monolithic):
        # Same file order -> same first-seen order -> identical ids.
        assert stream.corpus.dictionary.words() == monolithic.vocab

    def test_chunking_costs_compression(self, stream, monolithic):
        """Cross-segment redundancy is not captured: the segmented grammar
        is at least as large as the monolithic one."""
        segmented = sum(
            segment.corpus.grammar_length() for segment in stream.corpus.segments
        )
        assert segmented >= monolithic.grammar_length()


class TestMergedResults:
    @pytest.mark.parametrize("task_name", MERGEABLE_TASKS)
    def test_merged_equals_monolithic(self, stream, monolithic, task_name):
        """Streaming ingestion must not change any analytics answer."""
        assert canonical_json(query(stream, task_name)) == canonical_json(
            reference_rendered(task_name, monolithic)
        )

    def test_timings_accumulate(self, stream):
        result = stream.run_tasks(["word_count"])
        assert len(result.segment_ns) == 3
        # The query charges every segment's plan plus the merge.
        assert result.query_ns >= sum(result.segment_ns.values())

    def test_ngram_names_cover_result(self, stream):
        vocab = set(stream.corpus.dictionary.words())
        for gram in query(stream, "sequence_count"):
            words = gram.split(" ")
            assert len(words) == 2
            assert set(words) <= vocab

    def test_incremental_word_counts_grow(self):
        engine = batched(BATCH_1)
        first = query(engine, "word_count")
        ingest(engine, BATCH_3)
        second = query(engine, "word_count")
        for word, count in first.items():
            assert second.get(word, 0) >= count

    def test_word_search_merge(self, stream):
        # Which files hold "error": postings merge across segments.
        index = query(stream, "inverted_index")
        assert index["error"] == ["mon.log", "tue.log", "thu.log"]


@settings(max_examples=12, deadline=None)
@given(
    split_points=st.lists(st.integers(1, 4), min_size=0, max_size=3),
    task_index=st.integers(0, len(MERGEABLE_TASKS) - 1),
)
def test_property_any_batch_split_equals_monolithic(split_points, task_index):
    """However the stream is batched, merged analytics equal the
    monolithic answer."""
    batches = []
    start = 0
    for boundary in sorted(set(split_points)):
        batches.append(ALL_FILES[start:boundary])
        start = boundary
    batches.append(ALL_FILES[start:])
    engine = batched(*(batch for batch in batches if batch))
    task_name = MERGEABLE_TASKS[task_index]
    assert canonical_json(query(engine, task_name)) == canonical_json(
        reference_rendered(task_name, compress_files(ALL_FILES))
    )


class TestDeletion:
    """Logical deletion (tombstones) filters merged analytics exactly."""

    def test_word_count_excludes_deleted_content(self, stream):
        stream.delete("mon.log")
        expected = word_totals(f for f in ALL_FILES if f[0] != "mon.log")
        assert query(stream, "word_count") == expected

    def test_inverted_index_drops_deleted_file(self, stream):
        index_before = query(stream, "inverted_index")
        stream.delete("wed.log")
        index_after = query(stream, "inverted_index")
        for posting in index_after.values():
            assert "wed.log" not in posting
        # Other files' postings are untouched.
        for word, posting in index_after.items():
            assert posting == [f for f in index_before[word] if f != "wed.log"]

    def test_term_vector_blanks_deleted_file(self, stream):
        stream.delete("thu.log")
        vectors = query(stream, "term_vector")
        assert "thu.log" not in vectors
        assert len(vectors) == stream.corpus.n_live

    def test_ranked_index_filters_postings(self, stream):
        stream.delete("fri.log")
        ranked = query(stream, "ranked_inverted_index")
        for posting in ranked.values():
            assert all(doc != "fri.log" for doc, _ in posting)

    def test_sequence_count_subtracts_deleted(self, stream):
        before = query(stream, "sequence_count")
        stream.delete("mon.log")
        after = query(stream, "sequence_count")
        assert sum(after.values()) < sum(before.values())
        assert all(v > 0 for v in after.values())

    def test_delete_unknown_file(self, stream):
        with pytest.raises(ReproError):
            stream.delete("nonexistent.log")

    def test_live_files_tracking(self, stream):
        assert stream.corpus.n_live == 5
        stream.delete("mon.log")
        assert stream.corpus.n_live == 4
        assert "mon.log" not in stream.corpus.live_doc_names()
