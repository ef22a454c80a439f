"""Shared per-file word counting used by term vector and inverted index.

Both traversal strategies of Section VI-E are implemented:

* **bottom-up**: pre-compute every rule's word list once, then each file
  merges only the lists its root segment references (cost independent of
  the file count);
* **top-down**: for each file, a full-DAG topological sweep propagates
  segment-seeded weights (the original TADOC behaviour whose cost is
  O(files x |DAG|)).

The planner's segment sweep computes each file's counts once, under the
engine's strategy rule, and hands them to every consumer in the plan.
"""

from __future__ import annotations

from repro.analytics.base import CompressedTaskContext, UncompressedTaskContext
from repro.core.grammar import is_word
from repro.core.traversal import (
    full_sweep_weights_for_segment,
    merge_segment_counts,
)


def segment_word_counts(
    ctx: CompressedTaskContext, segment: list[int]
) -> dict[int, int]:
    """Word counts for one root-body file segment under ``ctx.strategy``."""
    if ctx.strategy == "bottomup":
        return merge_segment_counts(
            ctx.pruned, segment, ctx.wordlists(), ctx.clock
        )
    weights = full_sweep_weights_for_segment(
        ctx.pruned, segment, ctx.topo_order
    )
    # One CPU op per segment symbol, then per weighted rule (id order)
    # its words read and one CPU op per word entry; charged in closed
    # form while the DAG's host cache holds every line read.
    file_counts: dict[int, int] = {}
    for symbol in segment:
        if is_word(symbol):
            file_counts[symbol] = file_counts.get(symbol, 0) + 1
    if ctx.pruned.warm_word_fold(weights, len(segment), file_counts):
        return file_counts
    clock = ctx.clock
    for _ in segment:
        clock.cpu(1)
    for rule, weight in weights.items():
        for word, freq in ctx.pruned.words(rule):
            file_counts[word] = file_counts.get(word, 0) + weight * freq
            clock.cpu(1)
    return file_counts


def per_file_word_counts_scan(
    ctx: UncompressedTaskContext,
) -> list[dict[int, int]]:
    """Word counts per file for the uncompressed baseline scan."""
    counts: list[dict[int, int]] = []
    for file_index in range(ctx.n_files):
        file_counts: dict[int, int] = {}
        for chunk in ctx.read_file(file_index):
            for token in chunk:
                file_counts[token] = file_counts.get(token, 0) + 1
                ctx.clock.cpu(4)
        ctx.ledger.charge("dram", "file_counts", len(file_counts) * 16)
        counts.append(file_counts)
        ctx.op_commit()
    for file_counts in counts:
        ctx.ledger.release("dram", "file_counts", len(file_counts) * 16)
    return counts
