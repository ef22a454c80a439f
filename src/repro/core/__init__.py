"""The N-TADOC core: grammar model, DAG, pruning, summation, traversal.

This is the paper's primary contribution (Section IV): given a TADOC
compressed corpus, build a locality-friendly DAG pool on NVM (pruning,
Algorithm 1), pre-size every intermediate structure from bottom-up upper
bounds (Algorithm 2), and run top-down or bottom-up weight propagation to
answer analytics queries without decompressing.
"""

from repro.core.dag import Dag
from repro.core.engine import EngineConfig, NTadocEngine, RunResult
from repro.core.grammar import (
    RULE_BASE,
    SEP_BASE,
    CompressedCorpus,
    is_rule_ref,
    is_separator,
    is_word,
    rule_index,
)
from repro.core.pruning import PrunedRule, prune_corpus
from repro.core.random_access import RandomAccessor
from repro.core.recovery import RecoveryReport, recover_pool
from repro.core.stats import GrammarStats, grammar_stats, rule_length_histogram
from repro.core.summation import bottom_up_summate, summate_all

__all__ = [
    "CompressedCorpus",
    "Dag",
    "EngineConfig",
    "GrammarStats",
    "NTadocEngine",
    "PrunedRule",
    "RULE_BASE",
    "RandomAccessor",
    "RecoveryReport",
    "RunResult",
    "SEP_BASE",
    "bottom_up_summate",
    "grammar_stats",
    "is_rule_ref",
    "is_separator",
    "is_word",
    "prune_corpus",
    "recover_pool",
    "rule_index",
    "rule_length_histogram",
    "summate_all",
]
