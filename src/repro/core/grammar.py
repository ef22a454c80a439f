"""Frozen CFG representation of a TADOC-compressed corpus.

A :class:`CompressedCorpus` is the immutable artifact produced by the
compressor and consumed by the N-TADOC engine.  Rule bodies are flat
integer lists using a partitioned id space:

* ``0 <= v < SEP_BASE`` -- a word id (index into the dictionary),
* ``SEP_BASE <= v < RULE_BASE`` -- a file separator; ``v - SEP_BASE`` is
  the index of the file that *ends* at this position in the root rule,
* ``v >= RULE_BASE`` -- a reference to rule ``v - RULE_BASE``.

Rule 0 is always the root (the paper's R0): the concatenation of every
file's compressed form with one unique segmentation symbol per boundary,
exactly as TADOC "inserts one segmentation symbol for the file boundary"
(Section II).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import GrammarError

#: First separator id.  Word ids must stay below this.
SEP_BASE = 1 << 29
#: First rule-reference id.  Separator ids must stay below this.
RULE_BASE = 1 << 30


def is_word(symbol: int) -> bool:
    """True when ``symbol`` is a word id."""
    return 0 <= symbol < SEP_BASE


def is_separator(symbol: int) -> bool:
    """True when ``symbol`` is a file-boundary separator."""
    return SEP_BASE <= symbol < RULE_BASE


def is_rule_ref(symbol: int) -> bool:
    """True when ``symbol`` references another rule."""
    return symbol >= RULE_BASE


def rule_index(symbol: int) -> int:
    """The rule index encoded by a rule-reference symbol."""
    if not is_rule_ref(symbol):
        raise GrammarError(f"symbol {symbol} is not a rule reference")
    return symbol - RULE_BASE


@dataclass
class CompressedCorpus:
    """A TADOC-compressed multi-file corpus.

    Attributes:
        rules: Rule bodies; ``rules[0]`` is the root.
        vocab: Words in id order (``vocab[word_id]`` is the word string).
        file_names: Original file names, in root-rule order.
        token_mode: Tokenizer granularity the corpus was built with
            ("words" or "chars"); governs how expansion re-joins text.
    """

    rules: list[list[int]]
    vocab: list[str]
    file_names: list[str] = field(default_factory=list)
    token_mode: str = "words"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def n_files(self) -> int:
        return len(self.file_names)

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocab)

    def grammar_length(self) -> int:
        """Total number of symbols across all rule bodies."""
        return sum(len(body) for body in self.rules)

    def content_key(self) -> int:
        """CRC32 fingerprint of the corpus *content* (host-side, uncharged).

        Covers the rule bodies, vocabulary, file names, and token mode --
        everything that determines analytics output.  Derived caches
        (e.g. :func:`repro.core.engine.corpus_analysis`) key on this so a
        mutated or rebuilt corpus can never be served stale metadata.
        Recomputed on every call: memoizing it on the object would
        reintroduce the staleness it exists to prevent.
        """
        h = zlib.crc32(
            "\x00".join([self.token_mode, *self.file_names]).encode("utf-8")
        )
        h = zlib.crc32("\x00".join(self.vocab).encode("utf-8"), h)
        for body in self.rules:
            h = zlib.crc32(struct.pack(f"<I{len(body)}I", len(body), *body), h)
        return h

    def validate(self) -> None:
        """Check structural sanity of the grammar.

        Raises:
            GrammarError: on dangling rule references, reference cycles,
                out-of-range word ids, separators outside the root, or an
                empty grammar.
        """
        if not self.rules:
            raise GrammarError("corpus has no rules")
        n_rules = len(self.rules)
        n_words = len(self.vocab)
        indegree = [0] * n_rules  # references to each rule, for the cycle check
        for idx, body in enumerate(self.rules):
            for symbol in body:
                if symbol >= RULE_BASE:
                    target = symbol - RULE_BASE
                    if target >= n_rules:
                        raise GrammarError(
                            f"rule {idx} references missing rule {target}"
                        )
                    if target == idx:
                        raise GrammarError(f"rule {idx} references itself")
                    indegree[target] += 1
                elif symbol >= SEP_BASE:
                    if idx != 0:
                        raise GrammarError(
                            f"separator inside non-root rule {idx}"
                        )
                elif not 0 <= symbol < n_words:
                    raise GrammarError(
                        f"rule {idx} contains out-of-range word id {symbol}"
                    )
        # A reference cycle (R1 -> R2 -> R1) would make expansion loop
        # forever.  Kahn's algorithm: repeatedly retire rules nothing
        # unretired references; any rule left over sits on a cycle.
        ready = [idx for idx in range(n_rules) if not indegree[idx]]
        retired = 0
        while ready:
            retired += 1
            for symbol in self.rules[ready.pop()]:
                if symbol >= RULE_BASE:
                    target = symbol - RULE_BASE
                    indegree[target] -= 1
                    if not indegree[target]:
                        ready.append(target)
        if retired != n_rules:
            raise GrammarError(
                f"reference cycle among {n_rules - retired} rules"
            )
        n_separators = sum(1 for s in self.rules[0] if is_separator(s))
        if n_separators != len(self.file_names):
            raise GrammarError(
                f"{n_separators} separators for {len(self.file_names)} files"
            )

    # ------------------------------------------------------------------
    # Expansion (verification / baseline support)
    # ------------------------------------------------------------------

    def expand_rule(self, index: int) -> list[int]:
        """Fully expand rule ``index`` into word ids (separators included)."""
        rules = self.rules
        output: list[int] = []
        append = output.append
        # Explicit (body, position) frames beat an iterator stack here:
        # the loop is pure local-variable arithmetic with no exception
        # control flow, which matters because baselines expand the whole
        # corpus through this path.
        stack: list[tuple[list[int], int]] = []
        body = rules[index]
        pos = 0
        end = len(body)
        while True:
            while pos < end:
                symbol = body[pos]
                pos += 1
                if symbol >= RULE_BASE:
                    stack.append((body, pos))
                    body = rules[symbol - RULE_BASE]
                    pos = 0
                    end = len(body)
                else:
                    append(symbol)
            if not stack:
                return output
            body, pos = stack.pop()
            end = len(body)

    def expand_files(self) -> list[list[int]]:
        """Expand the corpus back into per-file word-id lists.

        The result is memoized on the instance: the grammar is immutable
        by contract and the expansion is requested repeatedly (baselines,
        reference checkers, token counts).  Callers must not mutate the
        returned lists.
        """
        cached = self.__dict__.get("_expanded_files")
        if cached is not None:
            return cached
        files: list[list[int]] = []
        current: list[int] = []
        for symbol in self.expand_rule(0):
            if is_separator(symbol):
                files.append(current)
                current = []
            else:
                current.append(symbol)
        if current:
            files.append(current)
        self._expanded_files = files
        return files

    def expand_text(self) -> list[str]:
        """Expand every file back to its text.

        Word-mode corpora re-join with single spaces (and are lowercased
        by tokenization); char-mode corpora concatenate directly.
        """
        glue = " " if self.token_mode == "words" else ""
        return [
            glue.join(self.vocab[word] for word in file_words)
            for file_words in self.expand_files()
        ]

    def file_segments(self) -> list[tuple[int, int]]:
        """Per-file ``(start, end)`` spans inside the root rule body.

        Separators are excluded from the spans.  Because separators are
        unique symbols, they always surface in the root rule, so every
        file is a contiguous slice of ``rules[0]``.
        """
        segments: list[tuple[int, int]] = []
        start = 0
        for pos, symbol in enumerate(self.rules[0]):
            if is_separator(symbol):
                segments.append((start, pos))
                start = pos + 1
        return segments

    # ------------------------------------------------------------------
    # Statistics (Table I columns)
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Summary statistics matching Table I's columns."""
        return {
            "files": self.n_files,
            "rules": self.n_rules,
            "vocabulary": self.vocabulary_size,
            "grammar_length": self.grammar_length(),
        }
