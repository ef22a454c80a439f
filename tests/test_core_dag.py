"""Tests for the DAG view, bottom-up summation, and head/tail lists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Dag
from repro.core.grammar import RULE_BASE, CompressedCorpus
from repro.core.summation import (
    UNDETERMINED,
    bottom_up_summate,
    head_tail_lists,
    summate_all,
)
from repro.errors import GrammarError
from repro.sequitur.compressor import compress_files


def paper_example_corpus():
    """The Fig. 1e grammar: R0 -> R1 R1 R2 R2, R1 -> R2 R2 w3 w4, R2 -> w1 w2.

    This reproduces both worked examples in the paper exactly: the word
    count weights (R0=1, R1=2, R2=6 -- "R2 receives weight from R1 in the
    next iteration, which makes its weight reach 6") and the Section IV-C
    bounds (R2=2, R1=2+2=4, R0=4+2=6).
    """
    r0 = [RULE_BASE + 1, RULE_BASE + 1, RULE_BASE + 2, RULE_BASE + 2]
    r1 = [RULE_BASE + 2, RULE_BASE + 2, 2, 3]
    r2 = [0, 1]
    return CompressedCorpus(
        rules=[r0, r1, r2], vocab=["w1", "w2", "w3", "w4"],
        file_names=[],
    )


class TestDag:
    def test_subrule_and_word_frequencies(self):
        dag = Dag(paper_example_corpus())
        assert dag.subrules[0] == ((1, 2), (2, 2))
        assert dag.words[0] == ()
        assert dag.words[1] == ((2, 1), (3, 1))
        assert dag.subrules[2] == ()

    def test_degrees(self):
        dag = Dag(paper_example_corpus())
        assert dag.out_degree == [2, 1, 0]
        assert dag.in_degree == [0, 1, 2]

    def test_topological_order(self):
        dag = Dag(paper_example_corpus())
        order = dag.topological_order()
        position = {rule: i for i, rule in enumerate(order)}
        assert position[0] < position[1] < position[2]

    def test_reverse_topological_order(self):
        dag = Dag(paper_example_corpus())
        assert dag.reverse_topological_order() == list(
            reversed(dag.topological_order())
        )

    def test_cycle_detection(self):
        corpus = CompressedCorpus(
            rules=[[RULE_BASE + 1], [RULE_BASE + 2, 0], [RULE_BASE + 1, 0]],
            vocab=["w"],
            file_names=[],
        )
        with pytest.raises(GrammarError):
            Dag(corpus).topological_order()

    def test_weights_match_paper_example(self):
        """Fig. 1e word-count example: "R1's weight reaches 2 and R2
        reaches 2.  Besides, R2 receives weight from R1 in the next
        iteration, which makes its weight reach 6."."""
        dag = Dag(paper_example_corpus())
        weights = dag.weights()
        assert weights == [1, 2, 6]

    def test_expansion_lengths(self):
        dag = Dag(paper_example_corpus())
        # R2 -> 2 words; R1 -> 2*2 + 2 = 6; R0 -> 2*6 + 2*2 = 16.
        assert dag.expansion_lengths() == [16, 6, 2]

    def test_weights_on_real_corpus(self):
        corpus = compress_files([("f", "a b c a b c a b c a b c")])
        dag = Dag(corpus)
        weights = dag.weights()
        lengths = dag.expansion_lengths()
        # Sum of weight*own-word-occurrences equals total token count.
        total = sum(
            weights[r] * sum(freq for _, freq in dag.words[r])
            for r in range(dag.n_rules)
        )
        assert total == 12
        assert lengths[0] == 12

    def test_reachable_from(self):
        dag = Dag(paper_example_corpus())
        assert dag.reachable_from([2]) == {2}
        assert dag.reachable_from([1]) == {1, 2}
        assert dag.reachable_from([0]) == {0, 1, 2}


class TestTopologicalLevels:
    """``topological_levels`` feeds the DAG-depth statistics in core/stats."""

    @staticmethod
    def levels_of(text="u v w x u v w x y z u v y z w x " * 30):
        dag = Dag(compress_files([("f", text)]))
        return dag, dag.topological_levels()

    def test_levels_partition_all_rules(self):
        dag, levels = self.levels_of()
        flat = [r for level in levels for r in level]
        assert sorted(flat) == list(range(dag.n_rules))

    def test_root_in_first_level(self):
        _, levels = self.levels_of()
        assert 0 in levels[0]

    def test_edges_cross_levels_forward(self):
        dag, levels = self.levels_of()
        level_of = {}
        for depth, level in enumerate(levels):
            for rule in level:
                level_of[rule] = depth
        for rule in range(dag.n_rules):
            for target, _ in dag.subrules[rule]:
                assert level_of[target] > level_of[rule]


class TestSummation:
    def test_paper_example_bounds(self):
        """Section IV-C worked example: bounds are 6, 4, 2."""
        dag = Dag(paper_example_corpus())
        assert summate_all(dag) == [6, 4, 2]

    def test_recursive_matches_iterative(self):
        corpus = compress_files(
            [("f", "x y z x y z w w x y z x y w w z " * 10)]
        )
        dag = Dag(corpus)
        iterative = summate_all(dag)
        recursive = [UNDETERMINED] * dag.n_rules
        bottom_up_summate(0, recursive, dag)
        assert recursive == iterative

    def test_bound_is_a_true_upper_bound(self):
        """The bound must dominate the rule's actual distinct-word count."""
        corpus = compress_files(
            [("f", "a b c d a b c d e f a b e f " * 20), ("g", "a b c d " * 5)]
        )
        dag = Dag(corpus)
        bounds = summate_all(dag)

        def distinct_words(rule: int) -> set[int]:
            words = {word for word, _ in dag.words[rule]}
            for sub, _ in dag.subrules[rule]:
                words |= distinct_words(sub)
            return words

        for rule in range(dag.n_rules):
            assert bounds[rule] >= len(distinct_words(rule))

    def test_leaf_bound_equals_word_count(self):
        dag = Dag(paper_example_corpus())
        assert summate_all(dag)[2] == len(dag.words[2])


class TestHeadTailLists:
    def test_leaf_rule(self):
        dag = Dag(paper_example_corpus())
        heads, tails = head_tail_lists(dag, k=2)
        assert heads[2] == [0, 1]
        assert tails[2] == [0, 1]

    def test_nested_rule_head_crosses_subrule(self):
        dag = Dag(paper_example_corpus())
        heads, tails = head_tail_lists(dag, k=3)
        # R1 = R2 R2 w3 w4 expands to w1 w2 w1 w2 w3 w4.
        assert heads[1] == [0, 1, 0]
        assert tails[1] == [1, 2, 3]

    def test_matches_brute_force_expansion(self):
        corpus = compress_files(
            [("f", "p q r s t p q r s t u v p q u v r s " * 8)]
        )
        dag = Dag(corpus)
        for k in (1, 2, 4):
            heads, tails = head_tail_lists(dag, k)
            for rule in range(1, dag.n_rules):
                expansion = [
                    s for s in corpus.expand_rule(rule)
                ]
                assert heads[rule] == expansion[:k], f"head k={k} rule={rule}"
                assert tails[rule] == expansion[-k:], f"tail k={k} rule={rule}"


@settings(max_examples=30, deadline=None)
@given(
    text=st.lists(st.sampled_from("abcde"), min_size=1, max_size=150).map(
        " ".join
    ),
    k=st.integers(1, 4),
)
def test_property_head_tail_equal_expansion_edges(text, k):
    corpus = compress_files([("f", text)])
    dag = Dag(corpus)
    heads, tails = head_tail_lists(dag, k)
    for rule in range(1, dag.n_rules):
        expansion = corpus.expand_rule(rule)
        assert heads[rule] == expansion[:k]
        assert tails[rule] == expansion[-k:]
