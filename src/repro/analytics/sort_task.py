"""Sort (Section VI-A): words of the corpus in alphabetical order.

Built on word count, followed by a dictionary-order sort of the result
-- the "sorting the results by dictionary introduces additional
overhead" that makes Sort's traversal phase longer than word count's in
Table II.
"""

from __future__ import annotations

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    UncompressedTaskContext,
    charge_sort,
)
from repro.analytics.word_count import WordCount


class Sort(AnalyticsTask):
    """Alphabetically sorted (word id, count) pairs for the corpus."""

    name = "sort"

    def __init__(self) -> None:
        self._word_count = WordCount()

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        # Sort is word count plus a dictionary-order sort: ride the same
        # fused sweep as word count (including its word-list alternate,
        # when the planner takes it) and sort in finish().
        return self._wrap(ctx, self._word_count.fuse(ctx))

    def _wrap(self, ctx: CompressedTaskContext, inner: FusedTask) -> FusedTask:
        def finish() -> list[tuple[int, int]]:
            return self._sort(inner.finish(), ctx.vocab, ctx)

        alternate = None
        if inner.wordlist_alternate is not None:
            alternate = lambda: self._wrap(ctx, inner.wordlist_alternate())  # noqa: E731

        return FusedTask(
            self,
            inner.needs,
            visit_rule=inner.visit_rule,
            visit_rule_bottomup=inner.visit_rule_bottomup,
            finish=finish,
            wordlist_alternate=alternate,
        )

    def run_uncompressed(
        self, ctx: UncompressedTaskContext
    ) -> list[tuple[int, int]]:
        counts = self._word_count.run_uncompressed(ctx)
        return self._sort(counts, ctx.vocab, ctx)

    @staticmethod
    def reference(files: list[list[int]]) -> list[tuple[int, int]]:
        counts = WordCount.reference(files)
        # The oracle has no vocabulary; tests sort by id-mapped words
        # themselves, so here ids stand in (ids are assigned in first-seen
        # order, tests render before comparing).
        return sorted(counts.items())

    @staticmethod
    def _sort(counts: dict[int, int], vocab: list[str], ctx) -> list[tuple[int, int]]:
        items = list(counts.items())
        ctx.ledger.charge("dram", "sort_buffer", len(items) * 16)
        charge_sort(ctx.clock, len(items))
        items.sort(key=lambda pair: vocab[pair[0]])
        ctx.ledger.release("dram", "sort_buffer", len(items) * 16)
        return items


def render_sorted_counts(
    result: list[tuple[int, int]], vocab: list[str]
) -> list[tuple[str, int]]:
    """Convert a sorted (word id, count) list into words."""
    return [(vocab[word], count) for word, count in result]
