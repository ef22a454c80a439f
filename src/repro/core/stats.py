"""Grammar diagnostics: structural statistics of a compressed corpus.

Used by ``python -m repro stats`` and by experiments that need to reason
about *why* a corpus behaves as it does (DAG depth drives parallelism;
rule reuse drives compression; rule-length distribution drives pool
layout efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dag import Dag
from repro.core.grammar import CompressedCorpus


@dataclass(frozen=True)
class GrammarStats:
    """Structural summary of a compressed corpus."""

    n_rules: int
    n_files: int
    vocabulary: int
    grammar_length: int      # symbols across all rule bodies
    total_tokens: int        # fully expanded word count
    compression_ratio: float  # grammar_length / total_tokens
    dag_depth: int           # longest root-to-leaf path
    max_rule_length: int
    mean_rule_length: float
    mean_rule_reuse: float   # average references per non-root rule
    max_rule_reuse: int
    root_length: int

    def describe(self) -> str:
        """Multi-line human-readable rendering."""
        return "\n".join(
            [
                f"rules            : {self.n_rules}",
                f"files            : {self.n_files}",
                f"vocabulary       : {self.vocabulary}",
                f"grammar length   : {self.grammar_length} symbols",
                f"expanded tokens  : {self.total_tokens}",
                f"compression      : {self.compression_ratio:.3f} "
                f"(grammar/expanded)",
                f"DAG depth        : {self.dag_depth}",
                f"root length      : {self.root_length}",
                f"rule length      : mean {self.mean_rule_length:.1f}, "
                f"max {self.max_rule_length}",
                f"rule reuse       : mean {self.mean_rule_reuse:.1f}x, "
                f"max {self.max_rule_reuse}x",
            ]
        )


def grammar_stats(corpus: CompressedCorpus) -> GrammarStats:
    """Compute structural statistics for a corpus."""
    dag = Dag(corpus)
    total_tokens = sum(len(f) for f in corpus.expand_files())
    lengths = [len(body) for body in corpus.rules]
    levels = dag.topological_levels()
    reuse_counts = [0] * corpus.n_rules
    for subs in dag.subrules:
        for target, freq in subs:
            reuse_counts[target] += freq
    non_root_reuse = reuse_counts[1:] or [0]
    glen = corpus.grammar_length()
    return GrammarStats(
        n_rules=corpus.n_rules,
        n_files=corpus.n_files,
        vocabulary=corpus.vocabulary_size,
        grammar_length=glen,
        total_tokens=total_tokens,
        compression_ratio=glen / total_tokens if total_tokens else 0.0,
        dag_depth=len(levels),
        max_rule_length=max(lengths),
        mean_rule_length=sum(lengths) / len(lengths),
        mean_rule_reuse=sum(non_root_reuse) / len(non_root_reuse),
        max_rule_reuse=max(non_root_reuse),
        root_length=len(corpus.rules[0]),
    )


def rule_length_histogram(
    corpus: CompressedCorpus, buckets: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
) -> dict[str, int]:
    """Histogram of rule body lengths (bucket label -> rule count)."""
    histogram: dict[str, int] = {}
    edges = list(buckets)
    labels = [f"<={edge}" for edge in edges] + [f">{edges[-1]}"]
    counts = [0] * len(labels)
    for body in corpus.rules:
        length = len(body)
        for i, edge in enumerate(edges):
            if length <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    for label, count in zip(labels, counts):
        histogram[label] = count
    return histogram
