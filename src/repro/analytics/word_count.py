"""Word count (Section VI-A): total occurrences of each word.

The canonical TADOC example (Fig. 1e): propagate rule weights top-down,
then accumulate ``weight(rule) * freq(word in rule)`` into a counter.
Under the bottom-up strategy the root rule's word list *is* the answer.
"""

from __future__ import annotations

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    TraversalNeeds,
    UncompressedTaskContext,
)
from repro.pstruct.pcounter import FrequencyCounter


class WordCount(AnalyticsTask):
    """Count every word's total occurrences across the corpus."""

    name = "word_count"

    @staticmethod
    def _use_root_wordlist(ctx: CompressedTaskContext) -> bool:
        # Corpus-global counting is naturally top-down; the bottom-up path
        # (read the root's word list) is taken only when explicitly pinned
        # -- the auto heuristic exists for *per-file* tasks (Section VI-E).
        return ctx.strategy == "bottomup" and ctx.strategy_forced

    @staticmethod
    def _accumulate(ctx, counter, weight, words) -> None:
        """One rule's contribution: ``weight x freq`` per pruned word."""
        if weight == 0:
            return
        if words:
            if weight == 1:
                counter.add_many(words)
            else:
                counter.add_many((word, weight * freq) for word, freq in words)
            ctx.clock.cpu(len(words))
        ctx.op_commit()

    def _fuse_root_wordlist(self, ctx: CompressedTaskContext) -> FusedTask:
        return FusedTask(
            self,
            TraversalNeeds(direction="bottomup", wordlists=True),
            finish=lambda: dict(ctx.wordlists()[0].items()),
        )

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        if self._use_root_wordlist(ctx):
            return self._fuse_root_wordlist(ctx)
        # Allocate the counter lazily: if the planner swaps this bundle
        # for its word-list alternate, no counter is ever needed.
        counter: FrequencyCounter | None = None

        def visit(rule: int, weight: int, words: list) -> None:
            nonlocal counter
            if counter is None:
                counter = self._make_counter(ctx)
            self._accumulate(ctx, counter, weight, words)

        def finish() -> dict[int, int]:
            nonlocal counter
            if counter is None:
                counter = self._make_counter(ctx)
            return counter.to_dict()

        return FusedTask(
            self,
            TraversalNeeds(direction="topdown", weights=True),
            visit_rule=visit,
            finish=finish,
            wordlist_alternate=lambda: self._fuse_root_wordlist(ctx),
        )

    def run_uncompressed(self, ctx: UncompressedTaskContext) -> dict[int, int]:
        counter = FrequencyCounter.dense(ctx.allocator, ctx.vocab_size)
        cpu = ctx.clock.cpu
        for file_index in range(ctx.n_files):
            for chunk in ctx.read_file(file_index):
                # The baseline stays a faithful per-token scan -- every
                # token pays its own counter read-modify-write, in order,
                # and that cost is the figure.  add_each batches only the
                # Python call overhead, as does the per-chunk CPU charge.
                counter.add_each(chunk)
                cpu(4 * len(chunk))
                ctx.op_commit()  # operation = one ingested batch
        return counter.to_dict()

    @staticmethod
    def reference(files: list[list[int]]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for tokens in files:
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
        return counts

    @staticmethod
    def _make_counter(ctx: CompressedTaskContext) -> FrequencyCounter:
        if ctx.growable:
            return FrequencyCounter.sparse(
                ctx.allocator, expected_distinct=4, growable=True
            )
        return FrequencyCounter.dense(ctx.allocator, ctx.vocab_size)


def render_word_counts(result: dict[int, int], vocab: list[str]) -> dict[str, int]:
    """Convert a word-id keyed result into human-readable words."""
    return {vocab[word]: count for word, count in result.items()}
