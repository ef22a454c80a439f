"""Word search: which documents contain a word, without a full index.

A document-indexing workload the paper calls out in its application
scope ("document indexing and query processing").  Unlike the inverted
index task -- which materializes postings for *every* word -- the search
task answers for a handful of query words, exploiting the grammar: a
rule either contains the word somewhere in its expansion or it does not,
and that bit is computable bottom-up once per rule, then each document
checks only the symbols of its root segment.

Cost: O(|grammar| + |root|) per query batch, independent of corpus
expansion size -- the "fast searches directly on compressed text stored
in NVM" scenario from Section III-C.
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


class WordSearch(AnalyticsTask):
    """Find the documents containing each of a set of query words.

    Args:
        query_words: Word ids to search for.  The result maps each query
            word to the sorted list of file indices containing it.
    """

    name = "word_search"

    def __init__(self, query_words: list[int]) -> None:
        if not query_words:
            raise ValueError("need at least one query word")
        self.query_words = list(query_words)

    def _make_bitmaps(self, ctx) -> dict[int, PBitmap]:
        # One pool-resident bitmap per query word, a bit per rule meaning
        # "this rule's expansion contains the word".
        return {
            word: PBitmap.create(ctx.allocator, ctx.pruned.n_rules)
            for word in self.query_words
        }

    def _mark_rule(self, ctx, bitmaps, queries, rule, words, subrules) -> None:
        present: set[int] = set()
        for word, _freq in words:
            if word in queries:
                present.add(word)
            ctx.clock.cpu(1)
        for query in self.query_words:
            bitmap = bitmaps[query]
            if query in present or any(
                bitmap.get(sub) for sub, _ in subrules
            ):
                bitmap.set(rule)
            ctx.clock.cpu(1)

    def _scan_segment(
        self, ctx, bitmaps, queries, postings, file_index, segment
    ) -> None:
        found: set[int] = set()
        for symbol in segment:
            ctx.clock.cpu(1)
            if is_word(symbol):
                if symbol in queries:
                    found.add(symbol)
            elif is_rule_ref(symbol):
                rule = rule_index(symbol)
                for query in queries - found:
                    if bitmaps[query].get(rule):
                        found.add(query)
            if len(found) == len(queries):
                break  # early exit: every query already matched
        for word in sorted(found):
            postings[word].append(file_index)

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        # Rides the shared bottom-up rule sweep (per-rule words/subrules
        # records are read once for every fused consumer) and the shared
        # segment sweep.
        queries = set(self.query_words)
        bitmaps = self._make_bitmaps(ctx)
        postings: dict[int, list[int]] = {w: [] for w in self.query_words}

        def visit_rule(rule: int, words, subrules) -> None:
            self._mark_rule(ctx, bitmaps, queries, rule, words, subrules)

        def visit_segment(file_index: int, segment: list[int], counts) -> None:
            self._scan_segment(ctx, bitmaps, queries, postings, file_index, segment)

        return FusedTask(
            self,
            TraversalNeeds(direction="bottomup", segments=True),
            visit_rule_bottomup=visit_rule,
            visit_segment=visit_segment,
            finish=lambda: postings,
        )

    def run_uncompressed(
        self, ctx: UncompressedTaskContext
    ) -> dict[int, list[int]]:
        queries = set(self.query_words)
        postings: dict[int, list[int]] = {w: [] for w in self.query_words}
        for file_index in range(ctx.n_files):
            found: set[int] = set()
            for chunk in ctx.read_file(file_index):
                for token in chunk:
                    ctx.clock.cpu(1)
                    if token in queries:
                        found.add(token)
                if len(found) == len(queries):
                    break
            for word in sorted(found):
                postings[word].append(file_index)
            ctx.op_commit()
        return postings

    @staticmethod
    def reference(
        files: list[list[int]], query_words: list[int] | None = None
    ) -> dict[int, list[int]]:
        query_words = query_words or []
        postings: dict[int, list[int]] = {w: [] for w in query_words}
        for file_index, tokens in enumerate(files):
            present = set(tokens)
            for word in query_words:
                if word in present:
                    postings[word].append(file_index)
        return postings
