"""Dataset profiles A-D mirroring Table I's structure at laptop scale.

=========  ======================  =========================================
Profile    Paper source            Structural character preserved
=========  ======================  =========================================
A          Yelp COVID-19 reviews   a single file, modest vocabulary
B          NSFRAA abstracts        a swarm of very small files (the
                                   many-file regime that breaks top-down
                                   per-file traversal, Section VI-E)
C          4 Wikipedia documents   a handful of large, redundant files
D          large Wikipedia dump    the biggest corpus: more files, more
                                   rules, larger vocabulary than C
=========  ======================  =========================================

Compressed corpora are cached in-process and (optionally) on disk under
``.cache/`` because Sequitur inference is the expensive step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.core.grammar import CompressedCorpus
from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.sequitur import serialization
from repro.sequitur.compressor import compress_files


@dataclass(frozen=True)
class DatasetProfile:
    """A named dataset configuration."""

    name: str
    description: str
    spec: CorpusSpec


PROFILES: dict[str, DatasetProfile] = {
    "A": DatasetProfile(
        name="A",
        description="Yelp COVID-19 analog: one file, modest vocabulary",
        spec=CorpusSpec(
            n_files=1,
            tokens_per_file=24_000,
            vocab_size=2_400,
            phrase_pool=700,
            templates=10,
            template_len=600,
            window=120,
            reuse=0.94,
            zipf_exponent=1.3,
            noise=0.02,
            seed=101,
        ),
    ),
    "B": DatasetProfile(
        name="B",
        description="NSFRAA analog: many small files",
        spec=CorpusSpec(
            n_files=1000,
            tokens_per_file=55,
            vocab_size=2_000,
            phrase_pool=450,
            templates=10,
            template_len=240,
            window=30,
            reuse=0.94,
            zipf_exponent=1.3,
            noise=0.02,
            seed=202,
        ),
    ),
    "C": DatasetProfile(
        name="C",
        description="Wikipedia analog: four large redundant documents",
        spec=CorpusSpec(
            n_files=4,
            tokens_per_file=14_000,
            vocab_size=6_000,
            phrase_pool=1_200,
            templates=12,
            template_len=700,
            window=100,
            reuse=0.93,
            zipf_exponent=1.3,
            noise=0.02,
            seed=303,
        ),
    ),
    "D": DatasetProfile(
        name="D",
        description="large Wikipedia analog: the biggest corpus",
        spec=CorpusSpec(
            n_files=24,
            tokens_per_file=5_200,
            vocab_size=11_000,
            phrase_pool=2_400,
            templates=20,
            template_len=700,
            window=100,
            reuse=0.93,
            zipf_exponent=1.3,
            noise=0.02,
            seed=404,
        ),
    ),
}

_corpus_cache: dict[tuple[str, float], CompressedCorpus] = {}


def _scaled_spec(spec: CorpusSpec, scale: float) -> CorpusSpec:
    """Scale a spec's volume knobs while keeping its structural character."""
    if scale == 1.0:
        return spec
    n_files = max(1, round(spec.n_files * (scale if spec.n_files > 8 else 1.0)))
    tokens = max(8, round(spec.tokens_per_file * (scale if spec.n_files <= 8 else 1.0)))
    return CorpusSpec(
        n_files=n_files,
        tokens_per_file=tokens,
        vocab_size=max(50, round(spec.vocab_size * min(1.0, scale * 1.5))),
        phrase_pool=max(20, round(spec.phrase_pool * min(1.0, scale * 1.5))),
        phrase_len=spec.phrase_len,
        templates=spec.templates,
        template_len=spec.template_len,
        window=spec.window,
        reuse=spec.reuse,
        noise=spec.noise,
        zipf_exponent=spec.zipf_exponent,
        seed=spec.seed,
    )


def dataset_files(name: str, scale: float = 1.0) -> list[tuple[str, str]]:
    """Generate the raw ``(file_name, text)`` pairs for a profile.

    Raises:
        ValueError: for a scale that is not a positive, finite number.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"dataset scale must be positive and finite, not {scale!r}")
    profile = PROFILES[name]
    return generate_corpus_files(_scaled_spec(profile.spec, scale))


def corpus_for(
    name: str,
    scale: float = 1.0,
    cache_dir: str | Path | None = None,
) -> CompressedCorpus:
    """Compressed corpus for a profile (memoized; optionally disk-cached).

    Args:
        name: Profile name "A".."D".
        scale: Volume multiplier (1.0 = the calibrated laptop scale).
        cache_dir: Directory for on-disk corpus caching; skips Sequitur
            on reload.  In-process memoization applies regardless.
    """
    key = (name, scale)
    if key in _corpus_cache:
        return _corpus_cache[key]
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"corpus_{name}_{scale:g}.ntdc"
        if path.exists():
            corpus = serialization.load(path)
            _corpus_cache[key] = corpus
            return corpus
    corpus = compress_files(dataset_files(name, scale))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        serialization.save(corpus, path)
    _corpus_cache[key] = corpus
    return corpus
