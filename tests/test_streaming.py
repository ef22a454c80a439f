"""Tests for streaming (chunked) ingestion and merged analytics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import task_by_name
from repro.core.engine import NTadocEngine
from repro.core.streaming import StreamingCorpus
from repro.errors import ReproError
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

MERGEABLE_TASKS = (
    "word_count",
    "sort",
    "term_vector",
    "inverted_index",
    "sequence_count",
    "ranked_inverted_index",
)


@pytest.fixture
def stream():
    s = StreamingCorpus()
    s.ingest(BATCH_1)
    s.ingest(BATCH_2)
    s.ingest(BATCH_3)
    return s


@pytest.fixture(scope="module")
def monolithic():
    return compress_files(ALL_FILES)


class TestIngestion:
    def test_chunk_count(self, stream):
        assert len(stream.chunks) == 3
        assert stream.n_files == 5

    def test_file_names_in_order(self, stream):
        assert stream.file_names == [name for name, _ in ALL_FILES]

    def test_shared_dictionary_keeps_ids_stable(self, stream, monolithic):
        # Same file order -> same first-seen order -> identical ids.
        assert stream.vocab == monolithic.vocab

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            StreamingCorpus().ingest([])

    def test_run_before_ingest_rejected(self):
        with pytest.raises(ReproError):
            StreamingCorpus().run(task_by_name("word_count"))

    def test_chunking_costs_compression(self, stream, monolithic):
        """Cross-chunk redundancy is not captured: the chunked grammar is
        at least as large as the monolithic one."""
        assert stream.grammar_length() >= monolithic.grammar_length()


class TestMergedResults:
    @pytest.mark.parametrize("task_name", MERGEABLE_TASKS)
    def test_merged_equals_monolithic(self, stream, monolithic, task_name):
        """Streaming ingestion must not change any analytics answer."""
        merged = stream.run(task_by_name(task_name))
        reference = NTadocEngine(monolithic).run(task_by_name(task_name))
        assert merged.result == reference.result

    def test_timings_accumulate(self, stream):
        merged = stream.run(task_by_name("word_count"))
        assert len(merged.chunk_ns) == 3
        assert merged.total_ns == pytest.approx(sum(merged.chunk_ns))

    def test_ngram_names_cover_result(self, stream):
        merged = stream.run(task_by_name("sequence_count"))
        assert set(merged.result) <= set(merged.ngram_names)

    def test_incremental_word_counts_grow(self):
        s = StreamingCorpus()
        s.ingest(BATCH_1)
        first = s.run(task_by_name("word_count")).result
        s.ingest(BATCH_3)
        second = s.run(task_by_name("word_count")).result
        for word, count in first.items():
            assert second.get(word, 0) >= count

    def test_word_search_merge(self, stream, monolithic):
        from repro.analytics.search import WordSearch

        error_id = monolithic.vocab.index("error")
        merged = stream.run(WordSearch([error_id]))
        # "error" appears in mon, tue (chunk 1) and thu (chunk 3).
        assert merged.result[error_id] == [0, 1, 3]

    def test_unmergeable_task_rejected(self, stream):
        class Opaque:
            name = "opaque"

            def fuse(self, ctx):
                return object()

        with pytest.raises(ReproError):
            stream._merge("opaque", [])


@settings(max_examples=12, deadline=None)
@given(
    split_points=st.lists(st.integers(1, 4), min_size=0, max_size=3),
    task_index=st.integers(0, len(MERGEABLE_TASKS) - 1),
)
def test_property_any_batch_split_equals_monolithic(split_points, task_index):
    """However the stream is batched, merged analytics equal the
    monolithic answer."""
    boundaries = sorted(set(split_points))
    batches = []
    start = 0
    for boundary in boundaries:
        if boundary > start:
            batches.append(ALL_FILES[start:boundary])
            start = boundary
    if start < len(ALL_FILES):
        batches.append(ALL_FILES[start:])

    stream = StreamingCorpus()
    for batch in batches:
        stream.ingest(batch)
    task_name = MERGEABLE_TASKS[task_index]
    merged = stream.run(task_by_name(task_name))
    reference = NTadocEngine(compress_files(ALL_FILES)).run(
        task_by_name(task_name)
    )
    assert merged.result == reference.result





class TestDeletion:
    """Logical deletion (tombstones) filters merged analytics exactly."""

    def build(self):
        s = StreamingCorpus()
        s.ingest(BATCH_1)
        s.ingest(BATCH_2)
        s.ingest(BATCH_3)
        return s

    def reference_without(self, dropped: set[str], task_name: str):
        kept = [(n, t) for n, t in ALL_FILES if n not in dropped]
        # Build a reference stream over only the kept files, but patch the
        # expected file indices back to the original global numbering.
        mapping = [
            i for i, (n, _) in enumerate(ALL_FILES) if n not in dropped
        ]
        stream = StreamingCorpus()
        stream.ingest(kept)
        result = stream.run(task_by_name(task_name)).result
        if task_name in ("word_count", "sequence_count"):
            # Word ids may differ if a word only occurred in dropped
            # files; compare via rendered words instead.
            return {
                stream.vocab[k]: v for k, v in result.items()
            } if task_name == "word_count" else result
        if task_name == "inverted_index":
            return {
                k: [mapping[f] for f in files] for k, files in result.items()
            }
        return result

    def test_word_count_excludes_deleted_content(self):
        stream = self.build()
        stream.delete_file("mon.log")
        result = stream.run(task_by_name("word_count")).result
        rendered = {stream.vocab[k]: v for k, v in result.items()}
        expected_tokens = [
            t for n, text in ALL_FILES if n != "mon.log"
            for t in text.split()
        ]
        expected = {}
        for token in expected_tokens:
            expected[token] = expected.get(token, 0) + 1
        assert rendered == expected

    def test_inverted_index_drops_deleted_file(self):
        stream = self.build()
        index_before = stream.run(task_by_name("inverted_index")).result
        deleted_index = stream.delete_file("wed.log")
        index_after = stream.run(task_by_name("inverted_index")).result
        for posting in index_after.values():
            assert deleted_index not in posting
        # Other files' postings are untouched.
        for word, posting in index_after.items():
            assert posting == [
                f for f in index_before.get(word, []) if f != deleted_index
            ]

    def test_term_vector_blanks_deleted_file(self):
        stream = self.build()
        deleted_index = stream.delete_file("thu.log")
        vectors = stream.run(task_by_name("term_vector")).result
        assert vectors[deleted_index] == []
        assert len(vectors) == stream.n_files

    def test_ranked_index_filters_postings(self):
        stream = self.build()
        deleted_index = stream.delete_file("fri.log")
        ranked = stream.run(task_by_name("ranked_inverted_index")).result
        for posting in ranked.values():
            assert all(f != deleted_index for f, _ in posting)

    def test_sequence_count_subtracts_deleted(self):
        stream = self.build()
        before = stream.run(task_by_name("sequence_count")).result
        stream.delete_file("mon.log")
        after = stream.run(task_by_name("sequence_count")).result
        assert sum(after.values()) < sum(before.values())
        assert all(v > 0 for v in after.values())

    def test_delete_unknown_file(self):
        stream = self.build()
        with pytest.raises(KeyError):
            stream.delete_file("nonexistent.log")

    def test_live_files_tracking(self):
        stream = self.build()
        assert len(stream.live_files) == 5
        stream.delete_file("mon.log")
        assert len(stream.live_files) == 4
        assert 0 not in stream.live_files
