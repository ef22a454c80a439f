"""Inverted index (Section VI-A): word -> documents containing it."""

from __future__ import annotations

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    TraversalNeeds,
    UncompressedTaskContext,
)
from repro.analytics.perfile import per_file_word_counts_scan


def _extend_postings(
    postings: dict[int, list[int]], file_index: int, file_counts: dict, ctx
) -> int:
    """Append one file's words to the posting lists; returns entries added."""
    added = 0
    for word in file_counts:
        postings.setdefault(word, []).append(file_index)
        added += 1
        ctx.clock.cpu(1)
    return added


def _charge_postings(postings: dict[int, list[int]], entries: int, ctx) -> None:
    """Book the assembled posting lists' transient DRAM footprint."""
    nbytes = entries * 8 + len(postings) * 16
    ctx.ledger.charge("dram", "postings", nbytes)
    ctx.ledger.release("dram", "postings", nbytes)


class InvertedIndex(AnalyticsTask):
    """Word-to-document index over the corpus."""

    name = "inverted_index"

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        postings: dict[int, list[int]] = {}
        entries = [0]

        def visit(file_index: int, segment: list[int], counts: dict) -> None:
            entries[0] += _extend_postings(postings, file_index, counts, ctx)

        def finish() -> dict[int, list[int]]:
            _charge_postings(postings, entries[0], ctx)
            return postings

        return FusedTask(
            self,
            TraversalNeeds(direction="bottomup", segments=True, file_counts=True),
            visit_segment=visit,
            finish=finish,
        )

    def run_uncompressed(
        self, ctx: UncompressedTaskContext
    ) -> dict[int, list[int]]:
        postings: dict[int, list[int]] = {}
        entries = 0
        for file_index, counts in enumerate(per_file_word_counts_scan(ctx)):
            entries += _extend_postings(postings, file_index, counts, ctx)
        _charge_postings(postings, entries, ctx)
        return postings

    @staticmethod
    def reference(files: list[list[int]]) -> dict[int, list[int]]:
        postings: dict[int, list[int]] = {}
        for file_index, tokens in enumerate(files):
            for word in sorted(set(tokens)):
                postings.setdefault(word, []).append(file_index)
        return postings


def render_inverted_index(
    result: dict[int, list[int]],
    vocab: list[str],
    file_names: list[str],
) -> dict[str, list[str]]:
    """Convert a word-id keyed index into readable words and file names."""
    return {
        vocab[word]: [file_names[f] for f in files]
        for word, files in result.items()
    }
