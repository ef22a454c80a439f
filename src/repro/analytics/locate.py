"""Word locate: every occurrence position of a word, under compression.

The classic grammar-compressed pattern-matching primitive (grep with
byte offsets): report each occurrence of a query word as a
``(file, position)`` pair -- without expanding the documents.

Algorithm on the compressed DAG:

1. bottom-up, mark which rules contain the word at all (a
   :class:`~repro.pstruct.pbitmap.PBitmap`, as in word search);
2. walk each document's root segment keeping a running expansion offset:
   a subrule whose bit is clear is *skipped in O(1)* by adding its
   expansion length; a subrule whose bit is set is descended into.

Cost is proportional to the number of matches plus the DAG paths leading
to them -- not to document size.  This is the access pattern that makes
"fast searches ... directly on compressed text stored in NVM"
(Section III-C) concrete.
"""

from __future__ import annotations

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    TraversalNeeds,
    UncompressedTaskContext,
)
from repro.core.grammar import is_rule_ref, is_word, rule_index
from repro.pstruct.pbitmap import PBitmap


class WordLocate(AnalyticsTask):
    """Report every ``(file, position)`` occurrence of one word.

    Args:
        word: The query word id.
        expansion_lengths: Per-rule expanded word counts (the engine's
            DAG metadata); required for O(1) skipping of non-matching
            subrules.
    """

    name = "word_locate"

    def __init__(self, word: int, expansion_lengths: list[int]) -> None:
        self.word = word
        self._explen = expansion_lengths

    # ------------------------------------------------------------------
    # Compressed path
    # ------------------------------------------------------------------

    def _mark_rule(self, ctx, contains, rule, words, subrules) -> None:
        found = any(word == self.word for word, _ in words) or any(
            contains.get(sub) for sub, _ in subrules
        )
        if found:
            contains.set(rule)
        ctx.clock.cpu(1)

    def _walk(self, ctx, contains, symbols: list[int], hits: list[int]) -> None:
        """Collect matches in ``symbols`` (iterative: depth-proof)."""
        pruned = ctx.pruned
        offset = 0
        # Each frame: (symbol list, cursor).
        stack: list[list] = [[symbols, 0]]
        while stack:
            frame = stack[-1]
            body, cursor = frame
            if cursor >= len(body):
                stack.pop()
                continue
            symbol = body[cursor]
            frame[1] = cursor + 1
            ctx.clock.cpu(1)
            if is_word(symbol):
                if symbol == self.word:
                    hits.append(offset)
                offset += 1
            elif is_rule_ref(symbol):
                sub = rule_index(symbol)
                if contains.get(sub):
                    stack.append([pruned.raw_body(sub), 0])
                else:
                    offset += self._explen[sub]  # skipped in O(1)

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        # The contains-bitmap pass rides the shared bottom-up rule sweep
        # and the document walk rides the shared segment sweep.
        contains = PBitmap.create(ctx.allocator, ctx.pruned.n_rules)
        positions: dict[int, list[int]] = {}

        def visit_rule(rule: int, words, subrules) -> None:
            self._mark_rule(ctx, contains, rule, words, subrules)

        def visit_segment(file_index: int, segment: list[int], counts) -> None:
            hits: list[int] = []
            self._walk(ctx, contains, segment, hits)
            if hits:
                positions[file_index] = hits

        return FusedTask(
            self,
            TraversalNeeds(direction="bottomup", segments=True),
            visit_rule_bottomup=visit_rule,
            visit_segment=visit_segment,
            finish=lambda: positions,
        )

    # ------------------------------------------------------------------
    # Baseline + oracle
    # ------------------------------------------------------------------

    def run_uncompressed(
        self, ctx: UncompressedTaskContext
    ) -> dict[int, list[int]]:
        positions: dict[int, list[int]] = {}
        for file_index in range(ctx.n_files):
            hits: list[int] = []
            offset = 0
            for chunk in ctx.read_file(file_index):
                for token in chunk:
                    ctx.clock.cpu(1)
                    if token == self.word:
                        hits.append(offset)
                    offset += 1
            if hits:
                positions[file_index] = hits
            ctx.op_commit()
        return positions

    @staticmethod
    def reference(
        files: list[list[int]], word: int | None = None
    ) -> dict[int, list[int]]:
        positions: dict[int, list[int]] = {}
        for file_index, tokens in enumerate(files):
            hits = [i for i, token in enumerate(tokens) if token == word]
            if hits:
                positions[file_index] = hits
        return positions
