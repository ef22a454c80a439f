"""Word dictionary: the digital encoding step of TADOC.

TADOC "performs a digital encoding of the original data input employing a
dictionary conversion" (Section II) before grammar inference.  The
:class:`Dictionary` assigns dense integer ids to words in first-seen
order; ids are what flow through Sequitur, the NVM pool, and every
analytics task.  Words are only converted back to strings when results
are rendered for the user.
"""

from __future__ import annotations

from typing import Iterable


def tokenize(text: str, mode: str = "words") -> list[str]:
    """Split text into tokens.

    Args:
        text: Input text.
        mode: ``"words"`` (whitespace-delimited, lowercased -- the
            paper's word-granularity model) or ``"chars"`` (one token per
            non-space character -- the granularity used by the TADOC
            line's Chinese-dataset work [CCF THPC'23], where text has no
            whitespace word boundaries).

    Raises:
        ValueError: for an unknown mode.
    """
    if mode == "words":
        return text.lower().split()
    if mode == "chars":
        return [ch for ch in text if not ch.isspace()]
    raise ValueError(f"unknown tokenizer mode {mode!r}")


class Dictionary:
    """Bidirectional word <-> id mapping with dense ids."""

    def __init__(self) -> None:
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []

    def __len__(self) -> int:
        return len(self._id_to_word)

    def add(self, word: str) -> int:
        """Return the id for ``word``, assigning a new one if unseen."""
        return self.encode((word,))[0]

    def encode(self, words: Iterable[str]) -> list[int]:
        """Encode a word sequence, growing the dictionary as needed."""
        ids = []
        word_to_id = self._word_to_id
        for word in words:
            word_id = word_to_id.get(word)
            if word_id is None:
                word_id = word_to_id[word] = len(self._id_to_word)
                self._id_to_word.append(word)
            ids.append(word_id)
        return ids

    def id_of(self, word: str) -> int:
        """Return the id of a known word.

        Raises:
            KeyError: if the word has never been added.
        """
        return self._word_to_id[word]

    def word_of(self, word_id: int) -> str:
        """Return the word for ``word_id``.

        Raises:
            IndexError: for ids that were never assigned.
        """
        if not 0 <= word_id < len(self._id_to_word):
            raise IndexError(f"no word with id {word_id}")
        return self._id_to_word[word_id]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def words(self) -> list[str]:
        """All words in id order."""
        return list(self._id_to_word)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "Dictionary":
        """Build a dictionary whose ids follow the given word order."""
        dictionary = cls()
        dictionary.encode(words)
        return dictionary
