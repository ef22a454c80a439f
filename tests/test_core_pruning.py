"""Tests for Algorithm 1 (pruning) and the device-resident pruned DAG."""

import pytest

from repro.core.dag import Dag
from repro.core.grammar import RULE_BASE, SEP_BASE
from repro.core.pruning import (
    PrunedDag,
    prune_corpus,
    prune_rule,
    redundancy_savings,
)
from repro.core.summation import head_tail_lists, summate_all
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory
from repro.nvm.pool import NvmPool
from repro.sequitur.compressor import compress_files


def make_pool(size=1 << 21, scatter=False):
    mem = SimulatedMemory(DeviceProfile.nvm(), size)
    return NvmPool(mem, scatter=scatter)


class TestPruneRule:
    def test_paper_worked_example(self):
        """Section IV-B: "R1 -> R2 w3 R4 w4 R3 R2 R4 w4" prunes to
        "R1 -> R2x2 R3 R4x2 w3 w4x2"."""
        body = [
            RULE_BASE + 2, 3, RULE_BASE + 4, 4,
            RULE_BASE + 3, RULE_BASE + 2, RULE_BASE + 4, 4,
        ]
        pruned = prune_rule(body)
        assert pruned.subrules == [(2, 2), (3, 1), (4, 2)]
        assert pruned.words == [(3, 1), (4, 2)]
        assert pruned.raw_length == 8
        assert pruned.pruned_length == 5

    def test_savings_fraction(self):
        pruned = prune_rule([0, 0, 0, 0])
        assert pruned.savings == 0.75

    def test_no_duplicates_no_savings(self):
        pruned = prune_rule([0, 1, RULE_BASE + 1])
        assert pruned.savings == 0.0

    def test_separators_dropped(self):
        pruned = prune_rule([0, SEP_BASE, 1, SEP_BASE + 1])
        assert pruned.words == [(0, 1), (1, 1)]
        assert pruned.subrules == []

    def test_empty_body(self):
        pruned = prune_rule([])
        assert pruned.pruned_length == 0
        assert pruned.savings == 0.0

    def test_corpus_redundancy_savings(self):
        corpus = compress_files([("f", "a a a a b a a a a b " * 30)])
        savings = redundancy_savings(corpus)
        assert 0.0 < savings < 1.0


class TestPrunedDag:
    def build(self, corpus, pool=None, **kwargs):
        pool = pool or make_pool()
        dag = Dag(corpus)
        bounds = summate_all(dag)
        return PrunedDag.build(pool, corpus, dag, bounds=bounds, **kwargs)

    def corpus(self):
        return compress_files(
            [("f1", "x y z x y z q r x y z q r"), ("f2", "q r x y z")]
        )

    def test_entries_match_python_pruning(self):
        corpus = self.corpus()
        pruned = self.build(corpus)
        for rule in range(corpus.n_rules):
            expected = prune_rule(corpus.rules[rule])
            assert pruned.subrules(rule) == tuple(expected.subrules)
            assert pruned.words(rule) == tuple(expected.words)

    def test_entries_combined_read(self):
        corpus = self.corpus()
        pruned = self.build(corpus)
        for rule in range(corpus.n_rules):
            subs, words = pruned.entries(rule)
            assert subs == pruned.subrules(rule)
            assert words == pruned.words(rule)

    def test_raw_body_preserved(self):
        corpus = self.corpus()
        pruned = self.build(corpus)
        for rule in range(corpus.n_rules):
            assert pruned.raw_body(rule) == corpus.rules[rule]

    def test_metadata_degrees_and_bounds(self):
        corpus = self.corpus()
        dag = Dag(corpus)
        bounds = summate_all(dag)
        pruned = self.build(corpus)
        for rule in range(corpus.n_rules):
            meta = pruned.meta(rule)
            assert meta[5] == dag.in_degree[rule]
            assert meta[6] == dag.out_degree[rule]
            assert pruned.bound(rule) == bounds[rule]

    def test_weights_read_write(self):
        pruned = self.build(self.corpus())
        pruned.set_weight(1, 42)
        assert pruned.weight(1) == 42
        assert pruned.add_weight(1, 8) == 50
        pruned.reset_weights()
        assert pruned.weight(1) == 0

    def test_rule_bounds_checked(self):
        pruned = self.build(self.corpus())
        with pytest.raises(IndexError):
            pruned.meta(pruned.n_rules)

    def test_adjacent_layout_packs_rules(self):
        """Consecutive rules' entries must be adjacent in the DAG pool."""
        corpus = self.corpus()
        pruned = self.build(corpus)
        previous_end = None
        for rule in range(corpus.n_rules):
            entry_off, _, n_sub, n_words, _, _, _, _, _ = pruned.meta(rule)
            if previous_end is not None:
                assert entry_off == previous_end
            previous_end = entry_off + (n_sub + n_words) * 8

    def test_headtail_store_attached(self):
        corpus = self.corpus()
        dag = Dag(corpus)
        heads, tails = head_tail_lists(dag, 2)
        pool = make_pool()
        pruned = PrunedDag.build(
            pool, corpus, dag, headtail_k=2, heads=heads, tails=tails
        )
        assert pruned.headtail is not None
        for rule in range(1, corpus.n_rules):
            assert pruned.headtail.get(rule) == (heads[rule], tails[rule])

    def test_headtail_requires_lists(self):
        corpus = self.corpus()
        with pytest.raises(ValueError):
            PrunedDag.build(make_pool(), corpus, Dag(corpus), headtail_k=2)

    def test_attach_after_flush_and_crash(self):
        corpus = self.corpus()
        pool = make_pool()
        pruned = self.build(corpus, pool=pool)
        pool.flush()
        pool.memory.crash()

        reopened_pool = NvmPool(pool.memory)
        reopened_pool.load_directory()
        reopened = PrunedDag.attach(reopened_pool)
        assert reopened.n_rules == corpus.n_rules
        for rule in range(corpus.n_rules):
            assert reopened.raw_body(rule) == corpus.rules[rule]

    def test_prune_corpus_convenience(self):
        corpus = self.corpus()
        pruned = prune_corpus(make_pool(), corpus)
        assert pruned.n_rules == corpus.n_rules


class TestNaiveLayout:
    def corpus(self):
        return compress_files([("f", "a b c a b c d e a b c d e " * 4)])

    def test_indexed_layout_roundtrip(self):
        corpus = self.corpus()
        dag = Dag(corpus)
        pool = make_pool(scatter=True)
        pruned = PrunedDag.build(pool, corpus, dag, per_rule=True)
        assert pruned.indexed_layout
        for rule in range(corpus.n_rules):
            expected = prune_rule(corpus.rules[rule])
            assert pruned.subrules(rule) == tuple(expected.subrules)
            assert pruned.words(rule) == tuple(expected.words)
            assert pruned.raw_body(rule) == corpus.rules[rule]

    def test_scattered_layout_costs_more_to_traverse(self):
        """The core Section III-B effect: the naive port's pointer-chased,
        scattered layout pays far more device time for the same reads."""
        corpus = self.corpus()
        dag = Dag(corpus)

        def cold_traversal_cost(scatter: bool, per_rule: bool) -> float:
            pool = make_pool(scatter=scatter)
            pruned = PrunedDag.build(pool, corpus, dag, per_rule=per_rule)
            pool.flush()
            pool.memory.crash()  # cold cache, data intact
            start = pool.memory.clock.ns
            for rule in range(corpus.n_rules):
                pruned.meta(rule)
                pruned.entries(rule)
            return pool.memory.clock.ns - start

        packed_cost = cold_traversal_cost(scatter=False, per_rule=False)
        naive_cost = cold_traversal_cost(scatter=True, per_rule=True)
        assert naive_cost > 2 * packed_cost
