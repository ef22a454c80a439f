"""TADOC compression pipeline: files -> dictionary -> Sequitur -> corpus."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.core.grammar import RULE_BASE, SEP_BASE, CompressedCorpus
from repro.errors import GrammarError
from repro.sequitur.dictionary import Dictionary, tokenize
from repro.sequitur.sequitur import Sequitur


class TadocCompressor:
    """Compress a multi-file text corpus into a :class:`CompressedCorpus`.

    The pipeline is the one Section II describes: dictionary-encode every
    word, stream the ids through Sequitur, and insert one *unique*
    segmentation symbol per file boundary.  Unique separators can never
    repeat, so Sequitur leaves them in the root rule -- which is what lets
    per-file analytics find document boundaries without decompression.
    """

    def __init__(
        self,
        dictionary: Dictionary | None = None,
        token_mode: str = "words",
    ) -> None:
        #: Word dictionary; pass a shared one to keep word ids stable
        #: across separately-compressed chunks (streaming ingestion).
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        #: Tokenizer granularity: "words" or "chars" (for languages
        #: without whitespace word boundaries).
        self.token_mode = token_mode
        self._sequitur = Sequitur()
        self._file_names: list[str] = []
        self._frozen = False

    def add_file(self, name: str, text: str) -> None:
        """Feed one file into the grammar.

        Raises:
            GrammarError: if called after :meth:`freeze`.
        """
        if self._frozen:
            raise GrammarError("compressor already frozen")
        file_index = len(self._file_names)
        self._file_names.append(name)
        ids = self.dictionary.encode(tokenize(text, self.token_mode))
        ids.append(SEP_BASE + file_index)
        self._sequitur.push_all(ids)

    def freeze(self) -> CompressedCorpus:
        """Finalize the grammar and return the immutable corpus."""
        self._frozen = True
        if len(self.dictionary) >= SEP_BASE:
            raise GrammarError("vocabulary exceeds the word id space")
        bodies = self._sequitur.freeze()
        rules: list[list[int]] = []
        for body in bodies:
            encoded: list[int] = []
            for symbol in body:
                if isinstance(symbol, tuple):  # ("R", index)
                    encoded.append(RULE_BASE + symbol[1])
                else:
                    encoded.append(symbol)
            rules.append(encoded)
        corpus = CompressedCorpus(
            rules=rules,
            vocab=self.dictionary.words(),
            file_names=list(self._file_names),
            token_mode=self.token_mode,
        )
        corpus.validate()
        return corpus


def compress_files(
    files: Iterable[tuple[str, str]],
    token_mode: str = "words",
) -> CompressedCorpus:
    """Compress ``(name, text)`` pairs into a corpus in one call."""
    compressor = TadocCompressor(token_mode=token_mode)
    for name, text in files:
        compressor.add_file(name, text)
    return compressor.freeze()


def compress_paths(paths: Iterable[str | Path]) -> CompressedCorpus:
    """Compress files read from disk."""
    return compress_files(
        (str(path), Path(path).read_text(encoding="utf-8")) for path in paths
    )
