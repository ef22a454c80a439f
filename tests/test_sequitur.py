"""Unit and property tests for the Sequitur algorithm."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.profiles import dataset_files
from repro.sequitur import serialization
from repro.sequitur.compressor import TadocCompressor, compress_files
from repro.sequitur.dictionary import Dictionary
from repro.sequitur.sequitur import Sequitur


def build(tokens):
    seq = Sequitur()
    seq.push_all(tokens)
    return seq


class TestBasics:
    def test_empty(self):
        seq = Sequitur()
        assert seq.expand() == []
        assert seq.rule_count == 1  # just the root

    def test_single_token(self):
        assert build([7]).expand() == [7]

    def test_no_repeats_no_rules(self):
        seq = build([1, 2, 3, 4, 5])
        assert seq.rule_count == 1
        assert seq.expand() == [1, 2, 3, 4, 5]

    def test_classic_abcdbc(self):
        """'abcdbc' -> rule for 'bc'."""
        seq = build(list("abcdbc"))
        assert seq.expand() == list("abcdbc")
        assert seq.rule_count == 2
        seq.check_invariants()

    def test_classic_nested(self):
        """'abcdbcabcdbc' compresses hierarchically."""
        seq = build(list("abcdbcabcdbc"))
        assert seq.expand() == list("abcdbcabcdbc")
        assert seq.rule_count >= 3
        seq.check_invariants()

    def test_aaaa(self):
        """Overlapping digrams must not be merged."""
        for n in range(2, 12):
            seq = build(["a"] * n)
            assert seq.expand() == ["a"] * n, f"failed at n={n}"
            seq.check_invariants()

    def test_alternating(self):
        tokens = ["a", "b"] * 10
        seq = build(tokens)
        assert seq.expand() == tokens
        seq.check_invariants()

    def test_triple_repeat_reindexing(self):
        """Regression: deleting one of two overlapping digrams in a run of
        equal symbols must re-register the survivor (the reference
        implementation's triple-handling in join); without it the final
        '1 1' here escapes digram uniqueness."""
        tokens = [2, 1, 1, 1, 2, 1, 0, 1, 1]
        seq = build(tokens)
        assert seq.expand() == tokens
        seq.check_invariants()
        # The repeated '1 1' digram must have been folded into a rule.
        bodies = seq.freeze()
        assert any(body == [1, 1] for body in bodies[1:])

    def test_rule_bodies_have_at_least_two_symbols(self):
        seq = build(list("abcabcabcabc"))
        for body in seq.freeze()[1:]:
            assert len(body) >= 2

    def test_freeze_root_is_index_zero(self):
        seq = build(list("xyxy"))
        bodies = seq.freeze()
        # Root references rule 1 twice.
        assert bodies[0] == [("R", 1), ("R", 1)]
        assert bodies[1] == ["x", "y"]


class TestCompression:
    def test_repetitive_input_compresses(self):
        tokens = list("the cat sat on the mat ") * 50
        seq = build(tokens)
        grammar_size = sum(len(b) for b in seq.freeze())
        assert grammar_size < len(tokens) / 4

    def test_tokens_pushed_counter(self):
        seq = build([1, 2, 3])
        assert seq.tokens_pushed == 3

    def test_unique_separators_stay_in_root(self):
        """Unique tokens can never be folded into a rule."""
        tokens = ["a", "b", "a", "b", "<s1>", "a", "b", "a", "b", "<s2>"]
        seq = build(tokens)
        root = seq.freeze()[0]
        flat_terminals = [s for s in root if not isinstance(s, tuple)]
        assert "<s1>" in flat_terminals
        assert "<s2>" in flat_terminals


class TestInvariantsOnRandomInputs:
    def test_random_small_alphabets(self):
        rng = random.Random(42)
        for trial in range(30):
            alphabet = rng.randint(2, 5)
            length = rng.randint(0, 200)
            tokens = [rng.randrange(alphabet) for _ in range(length)]
            seq = build(tokens)
            assert seq.expand() == tokens, f"trial {trial} mismatch"
            seq.check_invariants()

    def test_random_zipf_like(self):
        rng = random.Random(7)
        population = list(range(50))
        weights = [1 / (r + 1) for r in range(50)]
        for trial in range(10):
            tokens = rng.choices(population, weights=weights, k=500)
            seq = build(tokens)
            assert seq.expand() == tokens
            seq.check_invariants()


@settings(max_examples=120, deadline=None)
@given(tokens=st.lists(st.integers(0, 3), max_size=80))
def test_property_lossless_and_invariant(tokens):
    """For any token stream: expansion is lossless and invariants hold."""
    seq = build(tokens)
    assert seq.expand() == tokens
    seq.check_invariants()


@settings(max_examples=60, deadline=None)
@given(tokens=st.lists(st.integers(0, 1), min_size=2, max_size=120))
def test_property_binary_streams(tokens):
    """Binary alphabets maximize digram churn; the hardest case."""
    seq = build(tokens)
    assert seq.expand() == tokens
    seq.check_invariants()


@settings(max_examples=120, deadline=None)
@given(tokens=st.lists(st.integers(0, 3), max_size=120), data=st.data())
def test_property_split_pushes_match_one_push(tokens, data):
    """push_all carries no state from one call to the next: any split of
    a stream, down to one push per token, builds the same grammar."""
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(tokens)), max_size=8), label="cuts")
    )
    whole = build(tokens)
    split = Sequitur()
    for start, end in zip([0, *cuts], [*cuts, len(tokens)]):
        split.push_all(tokens[start:end])
    split.check_invariants()
    single = Sequitur()
    for token in tokens:
        single.push(token)
    assert split.freeze() == single.freeze() == whole.freeze()
    assert split.tokens_pushed == single.tokens_pushed == len(tokens)


# ---------------------------------------------------------------------------
# Golden digests: Sequitur's decisions, pinned
# ---------------------------------------------------------------------------
#
# Every digest below but GOLDEN_EDGE_STREAMS was captured from the
# linked-symbol implementation that predates the cached-key representation;
# GOLDEN_EDGE_STREAMS was captured from the recursive match/substitute
# implementation that predates the tail loop.  Grammar inference is
# deterministic, so any drift means Sequitur made a different decision
# somewhere -- and a different grammar changes every downstream corpus,
# pool image and simulated nanosecond.  These digests are the oracle; no
# second implementation is kept to compare against.

GOLDEN_PROFILES = {
    "A": "ab9dd961613da31c",
    "B": "571a5cb0a308036c",
    "C": "e6741d26c620e7ed",
    "D": "0544f332c79cbd2c",
}
GOLDEN_CHARS = "451760eb3d8f4dd0"
GOLDEN_SHARED_DICTIONARY = ("ee8cc92622fc75b5", "1abfe6929f747842")
GOLDEN_TRIPLE_REPEAT = "3d2cb880e3f4de6b"
GOLDEN_RANDOM_STREAMS = "baf6f9a1862a9640"
GOLDEN_EDGE_STREAMS = "2d71a72f9fb51ac5"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _corpus_digest(corpus) -> str:
    return hashlib.sha256(serialization.serialize(corpus)).hexdigest()[:16]


def _random_streams(count=200, seed=2024):
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = rng.randint(2, 30)
        length = rng.randint(0, 400)
        yield [rng.randrange(alphabet) for _ in range(length)]


def _edge_streams():
    """Streams outside ``_random_streams``' range (alphabets 2-30, at most
    400 tokens), each driving a long chain of matches at the root's tail."""
    rng = random.Random(26)
    # One token 20,000 times: the deepest cascades of all.
    yield [0] * 20_000
    # A 40-token phrase 64 times: the last push reduces the root to two
    # references of one rule, a match that reaches the root's first symbol.
    yield list(range(100, 140)) * 64
    # Ever-longer prefixes of one phrase: each new rule starts with the
    # rule it extends, which drops to one use and is inlined at once.
    yield [t for n in range(2, 90) for t in range(n)]
    # A long binary stream and a long Zipf-like one over a wide alphabet.
    yield [rng.randrange(2) for _ in range(6_000)]
    weights = [1 / (r + 1) for r in range(2_000)]
    yield rng.choices(range(2_000), weights=weights, k=12_000)


class TestGoldenDigests:
    @pytest.mark.parametrize("profile", sorted(GOLDEN_PROFILES))
    def test_profiles(self, profile):
        corpus = compress_files(dataset_files(profile, 0.1))
        assert _corpus_digest(corpus) == GOLDEN_PROFILES[profile]

    def test_chars_mode(self):
        corpus = compress_files(dataset_files("C", 0.02), token_mode="chars")
        assert _corpus_digest(corpus) == GOLDEN_CHARS

    def test_two_chunks_share_one_dictionary(self):
        """The ingest seal shape: chunks compressed separately, word ids
        kept stable by one shared dictionary."""
        files = dataset_files("B", 0.1)
        shared = Dictionary()
        digests = []
        for chunk in (files[: len(files) // 2], files[len(files) // 2 :]):
            compressor = TadocCompressor(dictionary=shared)
            for name, text in chunk:
                compressor.add_file(name, text)
            digests.append(_corpus_digest(compressor.freeze()))
        assert tuple(digests) == GOLDEN_SHARED_DICTIONARY

    def test_triple_repeat_stream(self):
        seq = build([2, 1, 1, 1, 2, 1, 0, 1, 1])
        assert _digest(seq.freeze()) == GOLDEN_TRIPLE_REPEAT

    def test_random_streams(self):
        frozen = []
        for tokens in _random_streams():
            seq = build(tokens)
            assert seq.expand() == tokens
            frozen.append(seq.freeze())
        assert _digest(frozen) == GOLDEN_RANDOM_STREAMS

    def test_edge_streams(self):
        frozen = []
        for tokens in _edge_streams():
            seq = build(tokens)
            assert seq.expand() == tokens
            seq.check_invariants()
            frozen.append(seq.freeze())
        assert _digest(frozen) == GOLDEN_EDGE_STREAMS
