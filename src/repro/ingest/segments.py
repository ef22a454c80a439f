"""Host-side segmented corpus: append buffer, sealed segments, tombstones.

A :class:`SegmentedCorpus` is an ordered list of immutable
:class:`SealedSegment`\\ s plus a mutable append buffer.  Every segment
carries its own Sequitur grammar -- rules never cross a segment boundary
-- but all segments share ONE stream-wide :class:`Dictionary`, so word
ids are stable across segments and per-segment analytics results merge
in id space (:mod:`repro.ingest.merge`).

Deletes are tombstones: a sealed segment is never rewritten, the doc is
filtered out of merged results, and compaction eventually reclaims the
space by recompressing only the live docs.  Documents still in the
append buffer are removed outright (they were never compressed).

The global document order is the append order: segment docs in segment
order, then buffered docs.  Compaction preserves it by only merging a
*prefix* of adjacent segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grammar import CompressedCorpus
from repro.errors import ReproError
from repro.sequitur.compressor import TadocCompressor
from repro.sequitur.dictionary import Dictionary, tokenize


@dataclass
class SealedSegment:
    """One immutable compressed segment plus its tombstone set.

    Attributes:
        name: Segment name (``seg000042``); doubles as the pool-v4
            segment-extent name on the device side.
        corpus: The segment's own grammar (shared-dictionary word ids).
        tombstones: *Local* doc indices logically deleted.  The grammar
            is immutable; merge-time filtering realizes the delete.
    """

    name: str
    corpus: CompressedCorpus
    tombstones: set[int] = field(default_factory=set)

    @property
    def n_docs(self) -> int:
        return self.corpus.n_files

    @property
    def live_locals(self) -> list[int]:
        """Local indices of live (non-tombstoned) docs, ascending."""
        return [i for i in range(self.n_docs) if i not in self.tombstones]

    @property
    def n_live(self) -> int:
        return self.n_docs - len(self.tombstones)

    def live_docs(self) -> list[tuple[str, str]]:
        """Live ``(name, canonical_text)`` pairs in local order.

        The canonical text is the expansion of the stored tokens;
        tokenization is idempotent, so recompressing it reproduces the
        original token stream exactly.
        """
        texts = self.corpus.expand_text()
        return [
            (self.corpus.file_names[i], texts[i]) for i in self.live_locals
        ]


class SegmentedCorpus:
    """Incrementally grown corpus of sealed segments plus an append buffer.

    Args:
        token_mode: Tokenizer granularity ("words" or "chars").
        seal_threshold_tokens: Buffered token count at which
            :attr:`should_seal` turns true.  The driver (usually
            :class:`~repro.ingest.engine.SegmentedEngine`) decides when
            to actually :meth:`seal` -- sealing does device work.
    """

    def __init__(
        self, token_mode: str = "words", seal_threshold_tokens: int = 512
    ) -> None:
        if seal_threshold_tokens <= 0:
            raise ValueError("seal_threshold_tokens must be positive")
        self.token_mode = token_mode
        self.seal_threshold_tokens = seal_threshold_tokens
        #: Stream-wide shared dictionary; only ever grows, so every
        #: sealed segment's vocab is a prefix snapshot of it.
        self.dictionary = Dictionary()
        self.segments: list[SealedSegment] = []
        #: Pending ``(name, text)`` docs not yet compressed.
        self.buffer: list[tuple[str, str]] = []
        self.buffered_tokens = 0
        self._sealed_count = 0

    @classmethod
    def from_segments(
        cls,
        segments: list[SealedSegment],
        *,
        token_mode: str = "words",
        seal_threshold_tokens: int = 512,
        next_segment_id: int | None = None,
    ) -> "SegmentedCorpus":
        """Rebuild a corpus around already-sealed segments (reopen path).

        The shared dictionary is recovered from the segments' vocab
        snapshots: the dictionary only appends, so every snapshot is a
        prefix of the longest one.
        """
        corpus = cls(
            token_mode=token_mode, seal_threshold_tokens=seal_threshold_tokens
        )
        longest: list[str] = []
        for segment in segments:
            if len(segment.corpus.vocab) > len(longest):
                longest = segment.corpus.vocab
        for word in longest:
            corpus.dictionary.add(word)
        corpus.segments = list(segments)
        if next_segment_id is None:
            next_segment_id = 1 + max(
                (int(s.name.removeprefix("seg")) for s in segments), default=-1
            )
        corpus._sealed_count = next_segment_id
        return corpus

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, name: str, text: str) -> None:
        """Buffer one document for the next seal.

        Raises:
            ReproError: if a live document of this name already exists
                (names are the delete/merge key, so they must be unique
                among live docs).
        """
        if name in self.live_doc_names():
            raise ReproError(f"live document {name!r} already exists")
        self.buffer.append((name, text))
        self.buffered_tokens += len(tokenize(text, self.token_mode))

    @property
    def should_seal(self) -> bool:
        """True when the buffer has reached the seal threshold."""
        return self.buffered_tokens >= self.seal_threshold_tokens

    def seal(self) -> SealedSegment | None:
        """Compress the append buffer into a new sealed segment.

        Returns the new segment, or None when the buffer is empty.
        Word ids come from the shared dictionary, so ids already seen
        keep their meaning in every earlier segment.
        """
        if not self.buffer:
            return None
        compressor = TadocCompressor(
            dictionary=self.dictionary, token_mode=self.token_mode
        )
        for name, text in self.buffer:
            compressor.add_file(name, text)
        segment = SealedSegment(
            name=f"seg{self._sealed_count:06d}", corpus=compressor.freeze()
        )
        self._sealed_count += 1
        self.segments.append(segment)
        self.buffer = []
        self.buffered_tokens = 0
        return segment

    def delete(self, name: str) -> tuple[str, int]:
        """Logically delete the live document called ``name``.

        Returns ``("buffer", i)`` when the doc was still buffered (it is
        removed outright) or ``("segment", segment_index)`` when a
        tombstone was planted in a sealed segment.

        Raises:
            ReproError: when no live document has this name.
        """
        for i, (doc_name, text) in enumerate(self.buffer):
            if doc_name == name:
                del self.buffer[i]
                self.buffered_tokens -= len(tokenize(text, self.token_mode))
                return ("buffer", i)
        for seg_index, segment in enumerate(self.segments):
            for local, doc_name in enumerate(segment.corpus.file_names):
                if doc_name == name and local not in segment.tombstones:
                    segment.tombstones.add(local)
                    return ("segment", seg_index)
        raise ReproError(f"no live document named {name!r}")

    def compact(self, upto: int | None = None) -> tuple[
        list[SealedSegment], SealedSegment | None
    ]:
        """Merge the first ``upto`` segments into one recompressed segment.

        Only live docs survive (tombstoned space is reclaimed); their
        relative order is preserved, so the global doc order is
        unchanged.  Returns ``(retired_segments, merged_segment)``;
        ``merged_segment`` is None when the range held no live docs (the
        retired segments simply vanish).

        Raises:
            ValueError: for an ``upto`` that does not name a non-empty
                prefix of the segment list.
        """
        if upto is None:
            upto = len(self.segments)
        if not 1 <= upto <= len(self.segments):
            raise ValueError(
                f"compact range {upto} outside 1..{len(self.segments)}"
            )
        retired = self.segments[:upto]
        docs = [doc for segment in retired for doc in segment.live_docs()]
        merged: SealedSegment | None = None
        if docs:
            compressor = TadocCompressor(
                dictionary=self.dictionary, token_mode=self.token_mode
            )
            for name, text in docs:
                compressor.add_file(name, text)
            merged = SealedSegment(
                name=f"seg{self._sealed_count:06d}", corpus=compressor.freeze()
            )
            self._sealed_count += 1
        self.segments = ([merged] if merged else []) + self.segments[upto:]
        return retired, merged

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def live_doc_names(self) -> list[str]:
        """Live document names in global (append) order."""
        names = [
            segment.corpus.file_names[i]
            for segment in self.segments
            for i in segment.live_locals
        ]
        names.extend(name for name, _ in self.buffer)
        return names

    def live_docs(self) -> list[tuple[str, str]]:
        """Live ``(name, canonical_text)`` pairs in global order."""
        docs = [doc for segment in self.segments for doc in segment.live_docs()]
        docs.extend(
            (name, " ".join(tokenize(text, self.token_mode)))
            if self.token_mode == "words"
            else (name, text)
            for name, text in self.buffer
        )
        return docs

    @property
    def n_live(self) -> int:
        return sum(s.n_live for s in self.segments) + len(self.buffer)

    @property
    def n_tombstoned(self) -> int:
        return sum(len(s.tombstones) for s in self.segments)

    def total_tokens(self) -> int:
        """Token count over every live doc (compaction/recompress sizing)."""
        return sum(
            len(segment.corpus.expand_files()[i])
            for segment in self.segments
            for i in segment.live_locals
        ) + self.buffered_tokens

    def recompressed(self) -> CompressedCorpus:
        """Compress the final live corpus from scratch (fresh dictionary).

        This is the differential baseline: ``incremental(...)`` results
        must match analytics over this corpus, canonical-JSON.

        Raises:
            ReproError: when there are no live docs (an empty corpus has
                no grammar).
        """
        docs = self.live_docs()
        if not docs:
            raise ReproError("cannot recompress an empty corpus")
        compressor = TadocCompressor(token_mode=self.token_mode)
        for name, text in docs:
            compressor.add_file(name, text)
        return compressor.freeze()
