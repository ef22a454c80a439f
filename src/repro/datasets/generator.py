"""Deterministic synthetic text generation with tunable redundancy.

Real text compresses well under grammar compression because it repeats
*phrases*, not independent words.  The generator therefore builds a pool
of multi-word phrases over a Zipfian vocabulary and composes documents as
Zipf-weighted phrase sequences with a configurable rate of fresh "noise"
words.  High phrase reuse -> deep grammars and strong compression (like
the paper's 90.8% savings); high noise -> shallow grammars.

Everything is seeded: the same spec always yields the same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    """Cumulative unnormalized Zipf rank weights 1/r^s for ranks 1..n.

    Passed as ``random.choices(..., cum_weights=...)``: the draws are the
    ones ``weights=`` gives, which re-accumulates the list on every call.
    """
    return list(accumulate(1.0 / (rank**exponent) for rank in range(1, n + 1)))


def _make_word(index: int) -> str:
    """Deterministic pronounceable word for vocabulary index ``index``."""
    consonants = "bcdfghjklmnpqrstvwz"
    vowels = "aeiou"
    parts = []
    value = index
    while True:
        parts.append(consonants[value % len(consonants)])
        parts.append(vowels[(value // len(consonants)) % len(vowels)])
        value //= len(consonants) * len(vowels)
        if value == 0:
            break
    return "".join(parts) + str(index % 7)


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters for one synthetic corpus.

    Attributes:
        n_files: Number of documents.
        tokens_per_file: Mean document length in words.
        vocab_size: Size of the underlying word population.
        phrase_pool: Number of reusable phrases.
        phrase_len: Mean words per phrase.
        templates: Number of long template passages.  Documents copy
            aligned windows out of templates, which is what gives real
            corpora (boilerplate abstracts, wiki markup) their long-span
            redundancy; 0 disables template reuse.
        template_len: Tokens per template passage.
        window: Alignment quantum for template windows; copies of the
            same window repeat *exactly* across documents.
        reuse: Probability that the next chunk of a document is a
            template window (vs. fresh phrase material).
        noise: Fraction of tokens that are uniform-random vocabulary
            words appended between chunks.  Noise words are incompressible
            and supply the rare-word tail (Heaps' law) that dominates real
            vocabulary sizes; they never break template-window repeats.
        zipf_exponent: Skew of word/phrase/template popularity.
        seed: RNG seed.
    """

    n_files: int
    tokens_per_file: int
    vocab_size: int
    phrase_pool: int = 500
    phrase_len: int = 6
    templates: int = 40
    template_len: int = 480
    window: int = 60
    reuse: float = 0.82
    noise: float = 0.08
    zipf_exponent: float = 1.05
    seed: int = 2024

    def total_tokens(self) -> int:
        """Approximate corpus size in words."""
        return self.n_files * self.tokens_per_file


def generate_corpus_files(spec: CorpusSpec) -> list[tuple[str, str]]:
    """Generate ``(file_name, text)`` pairs for a spec."""
    rng = random.Random(spec.seed)
    vocabulary = [_make_word(i) for i in range(spec.vocab_size)]
    word_weights = _zipf_cum_weights(spec.vocab_size, spec.zipf_exponent)

    phrases: list[list[str]] = []
    for _ in range(spec.phrase_pool):
        length = max(2, int(rng.gauss(spec.phrase_len, spec.phrase_len / 3)))
        phrases.append(rng.choices(vocabulary, cum_weights=word_weights, k=length))
    phrase_weights = _zipf_cum_weights(spec.phrase_pool, spec.zipf_exponent)

    templates: list[list[str]] = []
    for _ in range(spec.templates):
        passage: list[str] = []
        while len(passage) < spec.template_len:
            passage.extend(rng.choices(phrases, cum_weights=phrase_weights, k=1)[0])
        templates.append(passage[: spec.template_len])
    template_weights = _zipf_cum_weights(max(spec.templates, 1), spec.zipf_exponent)

    files: list[tuple[str, str]] = []
    for file_index in range(spec.n_files):
        target = max(
            4, int(rng.gauss(spec.tokens_per_file, spec.tokens_per_file / 4))
        )
        words: list[str] = []
        while len(words) < target:
            before = len(words)
            if templates and rng.random() < spec.reuse:
                # Copy an aligned template window; alignment makes copies
                # of the same window byte-identical across documents.
                passage = rng.choices(templates, cum_weights=template_weights, k=1)[0]
                slots = max(1, len(passage) // spec.window)
                start = rng.randrange(slots) * spec.window
                length = spec.window * rng.randint(1, 3)
                words.extend(passage[start : start + length])
            else:
                words.extend(rng.choices(phrases, cum_weights=phrase_weights, k=1)[0])
            # Sprinkle uniform-random noise words after the chunk (they
            # supply the rare-word vocabulary tail without breaking the
            # chunk's exact repeats).
            if spec.noise > 0:
                chunk_len = len(words) - before
                expected = chunk_len * spec.noise / (1.0 - spec.noise)
                n_noise = int(expected) + (1 if rng.random() < expected % 1 else 0)
                for _ in range(n_noise):
                    words.append(rng.choice(vocabulary))
        files.append((f"doc_{file_index:05d}.txt", " ".join(words[:target])))
    return files
