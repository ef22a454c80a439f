"""Term vector (Section VI-A): each document's most frequent words."""

from __future__ import annotations

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    TraversalNeeds,
    UncompressedTaskContext,
    charge_sort,
)
from repro.analytics.perfile import per_file_word_counts_scan


def _top_k(counts: dict[int, int], k: int, ctx) -> list[tuple[int, int]]:
    """Top-k (word, count), ordered by count desc then word *string* asc.

    The word string (not the id) breaks count ties, so the selected
    members are independent of dictionary assignment order: a segmented
    corpus compressed against a stream-wide shared dictionary and a
    recompression of the same documents must pick the same top-k.
    """
    vocab = ctx.vocab
    items = list(counts.items())
    charge_sort(ctx.clock, len(items))
    items.sort(key=lambda pair: (-pair[1], vocab[pair[0]]))
    return items[:k]


class TermVector(AnalyticsTask):
    """Per-file top-k most frequent words."""

    name = "term_vector"

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        # The planner holds every file's shared counts until its segment
        # sweep ends; ranking them afterwards keeps the sweep itself to
        # device work.
        file_counts: list[dict[int, int]] = []

        def visit(file_index: int, segment: list[int], counts: dict) -> None:
            file_counts.append(counts)

        def finish() -> list[list[tuple[int, int]]]:
            return [_top_k(c, ctx.term_vector_k, ctx) for c in file_counts]

        return FusedTask(
            self,
            TraversalNeeds(direction="bottomup", segments=True, file_counts=True),
            visit_segment=visit,
            finish=finish,
        )

    def run_uncompressed(
        self, ctx: UncompressedTaskContext
    ) -> list[list[tuple[int, int]]]:
        counts = per_file_word_counts_scan(ctx)
        return [_top_k(c, ctx.term_vector_k, ctx) for c in counts]

    @staticmethod
    def reference(
        files: list[list[int]], k: int = 10, vocab: list[str] | None = None
    ) -> list[list[tuple[int, int]]]:
        if vocab is not None:
            key = lambda pair: (-pair[1], vocab[pair[0]])  # noqa: E731
        else:
            key = lambda pair: (-pair[1], pair[0])  # noqa: E731
        vectors: list[list[tuple[int, int]]] = []
        for tokens in files:
            counts: dict[int, int] = {}
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            vectors.append(sorted(counts.items(), key=key)[:k])
        return vectors


def render_term_vectors(
    result: list[list[tuple[int, int]]],
    vocab: list[str],
    file_names: list[str],
) -> dict[str, list[tuple[str, int]]]:
    """Convert per-file top-k lists into readable words."""
    return {
        file_names[i]: [(vocab[w], c) for w, c in vector]
        for i, vector in enumerate(result)
    }
