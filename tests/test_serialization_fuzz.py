"""Robustness fuzzing of the on-disk corpus format.

A corrupted or truncated artifact must always surface as
:class:`~repro.errors.CorruptDataError` (or a validation
:class:`~repro.errors.GrammarError`) -- never as an uncontrolled
exception, hang, or silently wrong corpus.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.grammar import RULE_BASE, SEP_BASE, CompressedCorpus
from repro.errors import CorruptDataError, GrammarError
from repro.sequitur import serialization
from repro.sequitur.compressor import compress_files


def reference_blob() -> bytes:
    corpus = compress_files(
        [("f1", "lorem ipsum dolor sit amet lorem ipsum dolor"),
         ("f2", "sit amet consectetur lorem ipsum")]
    )
    return serialization.serialize(corpus)


_BLOB = reference_blob()


@settings(max_examples=120, deadline=None)
@given(cut=st.integers(0, len(_BLOB) - 1))
def test_truncation_never_crashes(cut):
    truncated = _BLOB[:cut]
    try:
        corpus = serialization.deserialize(truncated)
    except (CorruptDataError, GrammarError):
        return
    # A shorter prefix that still parses must at least be structurally
    # valid (validate() ran inside deserialize).
    corpus.validate()


@settings(max_examples=150, deadline=None)
@given(
    position=st.integers(0, len(_BLOB) - 1),
    replacement=st.integers(0, 255),
)
def test_single_byte_corruption_never_crashes(position, replacement):
    mutated = bytearray(_BLOB)
    mutated[position] = replacement
    try:
        corpus = serialization.deserialize(bytes(mutated))
    except (CorruptDataError, GrammarError):
        return
    # Corruption that happens to keep the format valid must still yield
    # a structurally consistent corpus.
    corpus.validate()
    corpus.expand_files()


@settings(max_examples=60, deadline=None)
@given(garbage=st.binary(max_size=200))
def test_arbitrary_bytes_never_crash(garbage):
    try:
        serialization.deserialize(garbage)
    except (CorruptDataError, GrammarError):
        pass


@settings(max_examples=60, deadline=None)
@given(
    splice_at=st.integers(4, len(_BLOB) - 1),
    inserted=st.binary(min_size=1, max_size=16),
)
def test_insertion_corruption_never_crashes(splice_at, inserted):
    mutated = _BLOB[:splice_at] + inserted + _BLOB[splice_at:]
    try:
        corpus = serialization.deserialize(mutated)
    except (CorruptDataError, GrammarError):
        return
    corpus.validate()


def cyclic_blob(cycle_length: int) -> bytes:
    """A well-formed blob whose rules R1 -> R2 -> ... -> R1 form a cycle.

    Each rule passes the per-symbol checks (no self-reference, no
    dangling reference), so only a cycle check can reject it.
    """
    rules = [[RULE_BASE + 1, SEP_BASE]]
    for i in range(1, cycle_length + 1):
        rules.append([RULE_BASE + i % cycle_length + 1, 0])
    corpus = CompressedCorpus(rules=rules, vocab=["w"], file_names=["f"])
    return serialization.serialize(corpus)


@pytest.mark.parametrize("cycle_length", [2, 3])
def test_reference_cycles_are_rejected(cycle_length):
    with pytest.raises(GrammarError, match="cycle"):
        serialization.deserialize(cyclic_blob(cycle_length))


def test_unreachable_cycle_is_rejected():
    corpus = CompressedCorpus(
        rules=[[0, SEP_BASE], [RULE_BASE + 2, 0], [RULE_BASE + 1, 0]],
        vocab=["w"],
        file_names=["f"],
    )
    with pytest.raises(GrammarError, match="cycle"):
        corpus.validate()


def test_decompress_of_cyclic_corpus_fails_promptly(tmp_path):
    """Expansion of a cyclic grammar never terminates, so the CLI must
    refuse the file at load time rather than hang."""
    path = tmp_path / "bad.ntdc"
    path.write_bytes(cyclic_blob(2))
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "decompress", str(path),
         "-d", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode != 0
    assert "cycle" in proc.stderr
