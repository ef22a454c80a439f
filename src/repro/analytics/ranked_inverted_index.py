"""Ranked inverted index (Section VI-A): per word-sequence, the documents
containing it in decreasing order of occurrence.

This is the paper's heaviest benchmark: it needs *per-document* sequence
counts, i.e. per-file rule weights on top of the sequence-count
machinery.  Per-file weights are obtained by segment-seeded propagation
restricted to the file's reachable sub-DAG (our optimization over the
naive full sweep; the task remains the slowest of the six, matching
Table II).
"""

from __future__ import annotations

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    TraversalNeeds,
    UncompressedTaskContext,
    charge_sort,
)
from repro.analytics.sequence_count import (
    SequenceCount,
    compute_rule_profiles,
    release_rule_profiles,
)
from repro.core.ngrams import NgramWalker, combine_profiles, pack_ngram
from repro.core.traversal import local_weights_for_segment


def _rank(postings: dict[int, list[tuple[int, int]]], ctx) -> None:
    """Sort each posting list by count desc, then file asc (in place)."""
    for posting in postings.values():
        charge_sort(ctx.clock, len(posting))
        posting.sort(key=lambda pair: (-pair[1], pair[0]))


class RankedInvertedIndex(AnalyticsTask):
    """Sequence -> [(file, count)] ranked by per-file occurrence."""

    name = "ranked_inverted_index"

    def _visit_segment(
        self, ctx, walker, profiles, postings, file_index, segment
    ) -> None:
        """One file's sequence counts, appended to the posting lists."""
        weights = local_weights_for_segment(
            ctx.pruned, segment, ctx.topo_position
        )
        file_counts = walker.walk_symbols(segment)
        for key, count in combine_profiles(profiles, weights).items():
            file_counts[key] = file_counts.get(key, 0) + count
        ctx.clock.cpu(len(file_counts))
        for key, count in file_counts.items():
            postings.setdefault(key, []).append((file_index, count))
        ctx.ledger.charge("dram", "rii_file_counts", len(file_counts) * 24)
        ctx.ledger.release("dram", "rii_file_counts", len(file_counts) * 24)

    def fuse(self, ctx: CompressedTaskContext) -> FusedTask:
        # Joins the fused segment sweep with a custom per-segment visitor
        # (segment-seeded restricted propagation; it does not consume the
        # shared per-file counts).  The planner commits once per segment,
        # so the visitor does not.
        profiles = compute_rule_profiles(ctx)
        walker = NgramWalker(ctx.pruned, ctx.ngram_n, key_names=ctx.ngram_names)
        postings: dict[int, list[tuple[int, int]]] = {}

        def visit(file_index: int, segment: list[int], counts) -> None:
            self._visit_segment(
                ctx, walker, profiles, postings, file_index, segment
            )

        def finish() -> dict[int, list[tuple[int, int]]]:
            release_rule_profiles(ctx, profiles)
            _rank(postings, ctx)
            return postings

        return FusedTask(
            self,
            TraversalNeeds(direction="none", segments=True, profiles=True),
            visit_segment=visit,
            finish=finish,
        )

    def run_uncompressed(
        self, ctx: UncompressedTaskContext
    ) -> dict[int, list[tuple[int, int]]]:
        n = ctx.ngram_n
        postings: dict[int, list[tuple[int, int]]] = {}
        for file_index in range(ctx.n_files):
            counts: dict[int, int] = {}
            window: list[int] = []
            for chunk in ctx.read_file(file_index):
                for token in chunk:
                    window.append(token)
                    if len(window) >= n:
                        ngram = tuple(window[-n:])
                        key = pack_ngram(ngram)
                        counts[key] = counts.get(key, 0) + 1
                        if key not in ctx.ngram_names:
                            ctx.ngram_names[key] = ngram
                        ctx.clock.cpu(6)
                        window = window[-(n - 1):]
            for key, count in counts.items():
                postings.setdefault(key, []).append((file_index, count))
            ctx.ledger.charge("dram", "rii_file_counts", len(counts) * 24)
            ctx.ledger.release("dram", "rii_file_counts", len(counts) * 24)
            ctx.op_commit()
        _rank(postings, ctx)
        return postings

    @staticmethod
    def reference(
        files: list[list[int]], n: int = 2
    ) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        postings: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for file_index, tokens in enumerate(files):
            counts = SequenceCount.reference([tokens], n)
            for ngram, count in counts.items():
                postings.setdefault(ngram, []).append((file_index, count))
        for posting in postings.values():
            posting.sort(key=lambda pair: (-pair[1], pair[0]))
        return postings


def render_ranked_index(
    result: dict[int, list[tuple[int, int]]],
    ngram_names: dict[int, tuple[int, ...]],
    vocab: list[str],
    file_names: list[str],
) -> dict[tuple[str, ...], list[tuple[str, int]]]:
    """Convert packed keys and file ids into readable output."""
    return {
        tuple(vocab[w] for w in ngram_names[key]): [
            (file_names[f], c) for f, c in posting
        ]
        for key, posting in result.items()
    }
