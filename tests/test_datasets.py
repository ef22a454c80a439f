"""Tests for the synthetic corpus generators and dataset profiles."""

import hashlib

import pytest

from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.datasets.profiles import PROFILES, corpus_for, dataset_files
from repro.sequitur.compressor import compress_files


def spec(**overrides):
    base = dict(
        n_files=4, tokens_per_file=400, vocab_size=300,
        phrase_pool=60, templates=4, template_len=120, window=30, seed=7,
    )
    base.update(overrides)
    return CorpusSpec(**base)


class TestGenerator:
    def test_deterministic(self):
        assert generate_corpus_files(spec()) == generate_corpus_files(spec())

    def test_seed_changes_output(self):
        assert generate_corpus_files(spec()) != generate_corpus_files(
            spec(seed=8)
        )

    def test_file_count(self):
        files = generate_corpus_files(spec(n_files=7))
        assert len(files) == 7
        assert len({name for name, _ in files}) == 7

    def test_token_lengths_near_target(self):
        files = generate_corpus_files(spec(tokens_per_file=400))
        lengths = [len(text.split()) for _, text in files]
        assert all(100 < n < 900 for n in lengths)

    def test_vocabulary_bounded(self):
        files = generate_corpus_files(spec(vocab_size=300))
        words = {w for _, text in files for w in text.split()}
        assert len(words) <= 300

    def test_repetitive_output_compresses_well(self):
        files = generate_corpus_files(spec())
        corpus = compress_files(files)
        tokens = sum(len(f) for f in corpus.expand_files())
        assert corpus.grammar_length() < tokens * 0.5

    def test_zero_templates_still_generates(self):
        files = generate_corpus_files(spec(templates=0))
        assert all(text for _, text in files)

    @pytest.mark.parametrize(
        "profile, digest",
        [
            ("A", "fb29764ea42471cbbb0c8653c3468d4a82672021574adcfafcc0ef4540657d1c"),
            ("B", "e8abab4c5d03b22529eedfcf935aca9229541152208dd64a0d300a9f25341a8a"),
            ("C", "0aa8b1fd98224b691b3d3a79cd517fb98106938aa597088aabd43c6f3d0c6520"),
            ("D", "008d7e52186446b8e5d4841a86f52bb4bddca87c317943b04201292c432ea5f8"),
        ],
    )
    def test_profile_text_is_pinned(self, profile, digest):
        """Every profile's generated names and text, byte for byte: every
        compressed corpus, figure and benchmark number starts here."""
        h = hashlib.sha256()
        for name, text in generate_corpus_files(PROFILES[profile].spec):
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        assert h.hexdigest() == digest


class TestProfiles:
    def test_four_profiles_exist(self):
        assert set(PROFILES) == {"A", "B", "C", "D"}

    def test_structural_characters(self):
        """Table I's structure: A is one file, B is many small files,
        D is the largest corpus."""
        a, b, c, d = (PROFILES[x].spec for x in "ABCD")
        assert a.n_files == 1
        assert b.n_files > 100
        assert b.tokens_per_file < 200
        assert d.total_tokens() > c.total_tokens() > 0
        assert d.vocab_size > c.vocab_size

    def test_dataset_files_generation(self):
        files = dataset_files("B", scale=0.1)
        assert len(files) > 10  # still "many files" after scaling

    def test_corpus_for_memoized(self):
        first = corpus_for("A", scale=0.05)
        second = corpus_for("A", scale=0.05)
        assert first is second

    def test_corpus_for_disk_cache(self, tmp_path):
        corpus = corpus_for("B", scale=0.07, cache_dir=tmp_path)
        cached = list(tmp_path.glob("*.ntdc"))
        assert len(cached) == 1
        # Force a reload path by clearing the in-process memo.
        from repro.datasets import profiles

        profiles._corpus_cache.pop(("B", 0.07))
        reloaded = corpus_for("B", scale=0.07, cache_dir=tmp_path)
        assert reloaded.rules == corpus.rules

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            dataset_files("Z")

    @pytest.mark.parametrize("scale", [0, -1, -1e-9, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            dataset_files("B", scale)

    def test_scaled_spec_preserves_template_structure(self):
        files_small = dataset_files("C", scale=0.1)
        corpus = compress_files(files_small)
        tokens = sum(len(f) for f in corpus.expand_files())
        assert corpus.grammar_length() < tokens * 0.6
