"""The Sequitur grammar-inference algorithm.

Sequitur consumes a token stream and incrementally maintains a context-free
grammar satisfying two invariants:

* **digram uniqueness** -- no pair of adjacent symbols appears more than
  once in the grammar; a repeated digram is replaced by a nonterminal.
* **rule utility** -- every rule (except the root) is referenced at least
  twice; a rule that drops to one reference is inlined and removed.

The implementation mirrors the classic linked-symbol design of
Nevill-Manning & Witten's reference implementation: each rule body is a
circular doubly-linked list anchored on a guard node, and a hash index
maps digrams to their (unique) location.  To keep per-symbol interpreter
work small, every symbol caches its digram key at creation -- the token
for a terminal, the :class:`_Rule` object for a nonterminal -- and a rule
is the guard node of its own body, keyed by the ``_GUARD`` sentinel, so
guard tests are identity tests.  Index upkeep lives on :class:`Sequitur`,
with the link rewrites of a substitution done straight-line, and root
appends link the new tail directly: joining onto the root's guard can
never evict or re-register a digram.  The decisions (hence the grammar)
are pinned by golden ``freeze()`` digests in ``tests/test_sequitur.py``.

Tokens are arbitrary hashable values; the TADOC pipeline feeds integer
word ids plus unique per-file separator ids (which, being unique, never
form repeated digrams and therefore stay in the root rule).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Iterator

Token = Hashable

#: Key of every guard node.  It equals no token, so no digram contains it
#: and an equal-keys test never matches a guard.
_GUARD = object()


class _Symbol:
    """A node in a rule body: a terminal or a rule reference."""

    __slots__ = ("key", "prev", "next")

    def __init__(self, key: object, prev: "_Symbol", next: "_Symbol") -> None:
        self.key = key  # the token, or the referenced _Rule
        self.prev = prev
        self.next = next


class _Rule(_Symbol):
    """A grammar rule, doubling as the guard node of its circular body."""

    __slots__ = ("rule_id", "refcount")

    def __init__(self, rule_id: int) -> None:
        self.key = _GUARD
        self.prev = self.next = self
        self.rule_id = rule_id
        self.refcount = 0

    def symbols(self) -> Iterator[_Symbol]:
        symbol = self.next
        while symbol is not self:
            yield symbol
            symbol = symbol.next

    def tokens(self) -> Iterator[Token]:
        for symbol in self.symbols():
            if symbol.key.__class__ is _Rule:
                yield from symbol.key.tokens()
            else:
                yield symbol.key


class Sequitur:
    """Incremental Sequitur over an arbitrary token alphabet.

    Usage::

        seq = Sequitur()
        for token in stream:
            seq.push(token)
        rules = seq.freeze()   # list of rule bodies; rules[0] is the root
    """

    def __init__(self) -> None:
        self._index: dict[tuple[object, object], _Symbol] = {}
        self._rules: dict[int, _Rule] = {}
        self._next_rule_id = 0
        self._root = self._new_rule()
        self.tokens_pushed = 0

    # -- construction -----------------------------------------------------

    def push(self, token: Token) -> None:
        """Append one terminal to the root rule and restore invariants."""
        self.push_all((token,))

    def push_all(self, tokens: Iterable[Token]) -> None:
        """Append a whole stream."""
        root = self._root
        index = self._index
        lookup = index.get
        pushed = 0
        for token in tokens:
            last = root.prev
            last.next = root.prev = _Symbol(token, last, root)
            pushed += 1
            if last is not root:
                # Only the new digram (last, token) can repeat an old one.
                digram = (last.key, token)
                match = lookup(digram)
                if match is None:
                    index[digram] = last
                elif match.next is not last:  # overlaps are left alone
                    self._process_match(last, match)
        self.tokens_pushed += pushed

    # -- inspection ---------------------------------------------------------

    @property
    def rule_count(self) -> int:
        """Number of live rules, including the root."""
        return len(self._rules)

    def freeze(self) -> list[list[Token | tuple[str, int]]]:
        """Return rule bodies with contiguous ids; index 0 is the root.

        Terminals appear as their token value; rule references appear as
        ``("R", new_id)`` tuples using the renumbered ids.
        """
        # Live rules in creation order, which is rule-id order; the root is
        # the first rule created and is never dropped.
        ordered = list(self._rules.values())
        refs = {rule: ("R", new_id) for new_id, rule in enumerate(ordered)}
        return [
            [
                refs[symbol.key] if symbol.key.__class__ is _Rule else symbol.key
                for symbol in rule.symbols()
            ]
            for rule in ordered
        ]

    def expand(self) -> list[Token]:
        """Re-derive the original token stream (for verification)."""
        return list(self._root.tokens())

    def check_invariants(self) -> None:
        """Assert digram uniqueness and rule utility (testing aid).

        Raises:
            AssertionError: when either Sequitur invariant is violated.
        """
        # Digram uniqueness allows *overlapping* repeats (the classic
        # "aaa" case): two occurrences only violate the invariant when
        # they do not share a symbol.
        seen: dict[tuple[object, object], list[_Symbol]] = {}
        for rule in self._rules.values():
            for symbol in rule.symbols():
                if symbol.next.key is not _GUARD:
                    seen.setdefault((symbol.key, symbol.next.key), []).append(symbol)
        for digram, occurrences in seen.items():
            for i, first in enumerate(occurrences):
                for second in occurrences[i + 1 :]:
                    overlapping = first.next is second or second.next is first
                    assert overlapping, (
                        f"digram uniqueness violated: {digram} occurs at two "
                        "non-overlapping positions"
                    )
        refs = Counter(
            symbol.key
            for rule in self._rules.values()
            for symbol in rule.symbols()
            if symbol.key.__class__ is _Rule
        )
        for rule in self._rules.values():
            if rule is self._root:
                continue
            uses = refs[rule]
            assert uses >= 2, f"rule utility violated: R{rule.rule_id} used {uses}x"
            assert uses == rule.refcount, (
                f"refcount drift on R{rule.rule_id}: counted {uses}, "
                f"stored {rule.refcount}"
            )

    # -- the heart of the algorithm ----------------------------------------

    def _process_match(self, symbol: _Symbol, match: _Symbol) -> None:
        """The digram at ``symbol`` repeats an earlier one at ``match``."""
        if match.prev.key is _GUARD and match.next.next.key is _GUARD:
            # The matching digram is the entire body of an existing rule
            # (the guard before it is that rule).
            rule = match.prev
            self._substitute(symbol, rule)
        else:
            # Create a new rule from copies of the digram, then replace both
            # occurrences with references to it.
            rule = self._new_rule()
            first_key = symbol.key
            second_key = symbol.next.key
            first = _Symbol(first_key, rule, rule)
            first.next = rule.prev = _Symbol(second_key, first, rule)
            rule.next = first
            if first_key.__class__ is _Rule:
                first_key.refcount += 1
            if second_key.__class__ is _Rule:
                second_key.refcount += 1
            self._substitute(match, rule)
            self._substitute(symbol, rule)
            self._index[(first_key, first.next.key)] = first
        # Rule utility: if the (re)used rule starts with a nonterminal whose
        # rule has dropped to a single use, inline that rule.
        first = rule.next
        if first.key.__class__ is _Rule and first.key.refcount == 1:
            self._expand(first)

    def _substitute(self, symbol: _Symbol, rule: _Rule) -> None:
        """Replace ``symbol`` and the next one with a reference to ``rule``,
        then enforce digram uniqueness on the digrams around the reference.

        Turning ``prev a b after`` into ``prev R after`` is three link
        rewrites -- unlink ``a``, unlink ``b``, insert ``R`` -- whose index
        upkeep (see :meth:`_join` for the triple-repeat rule) is done here
        straight-line, in the reference implementation's order.
        """
        index = self._index
        prev = symbol.prev
        second = symbol.next
        after = second.next
        key = symbol.key
        second_key = second.key
        after_key = after.key
        prev_key = prev.key
        if prev_key is not _GUARD:
            prev_prev = prev.prev
            prev_prev_key = prev_prev.key
            # prev closes a run "x x": evicting "prev y" must re-register
            # "x x" whenever y is an x too.
            in_run = prev_key == prev_prev_key
        # Unlink a: re-register a surviving triple at b, evict "prev a",
        # drop "a b".
        if after_key is not _GUARD and second_key == key == after_key:
            index[(second_key, after_key)] = second
        if prev_key is not _GUARD:
            digram = (prev_key, key)
            if index.get(digram) is prev:
                del index[digram]
            if in_run and prev_prev_key == key:
                index[(prev_prev_key, prev_key)] = prev_prev
        digram = (key, second_key)
        if index.get(digram) is symbol:
            del index[digram]
        # Unlink b: re-register a surviving triple at after, evict
        # "prev b", drop "b after".
        if after_key is not _GUARD:
            next_key = after.next.key
            if after_key == second_key == next_key:
                index[(after_key, next_key)] = after
        if prev_key is not _GUARD:
            digram = (prev_key, second_key)
            if index.get(digram) is prev:
                del index[digram]
            if in_run and prev_prev_key == second_key:
                index[(prev_prev_key, prev_key)] = prev_prev
        if after_key is not _GUARD:
            digram = (second_key, after_key)
            if index.get(digram) is second:
                del index[digram]
            # Insert R: evict "prev after".
            if prev_key is not _GUARD:
                digram = (prev_key, after_key)
                if index.get(digram) is prev:
                    del index[digram]
                if in_run and prev_prev_key == after_key:
                    index[(prev_prev_key, prev_key)] = prev_prev
        if key.__class__ is _Rule:
            key.refcount -= 1
        if second_key.__class__ is _Rule:
            second_key.refcount -= 1
        reference = prev.next = after.prev = _Symbol(rule, prev, after)
        rule.refcount += 1
        # Check the digram ending at the reference; only if that left the
        # grammar unchanged, check the one starting at it.
        if prev_key is not _GUARD:
            digram = (prev_key, rule)
            match = index.get(digram)
            if match is None:
                index[digram] = prev
            elif match.next is not prev:
                self._process_match(prev, match)
                return
        if after_key is not _GUARD:
            digram = (rule, after_key)
            match = index.get(digram)
            if match is None:
                index[digram] = reference
            elif match.next is not reference:
                self._process_match(reference, match)

    def _expand(self, symbol: _Symbol) -> None:
        """Inline the single-use rule referenced by nonterminal ``symbol``."""
        rule = symbol.key
        left = symbol.prev
        right = symbol.next
        first = rule.next
        last = rule.prev
        index = self._index
        if right.key is not _GUARD:
            digram = (rule, right.key)
            if index.get(digram) is symbol:
                del index[digram]
        self._rules.pop(rule.rule_id, None)
        self._join(left, first)
        self._join(last, right)
        if right.key is not _GUARD:
            index[(last.key, right.key)] = last

    def _join(self, left: _Symbol, right: _Symbol) -> None:
        """Link two linked symbols, evicting the digram being rewritten.

        The triple-repeat bookkeeping mirrors the reference implementation:
        in a run of three equal symbols only one of the two overlapping
        digrams is indexed, so when a deletion removes that entry the
        surviving pair must be re-registered or a later repeat of the digram
        would go undetected (e.g. the stream ``2 1 1 1 2 1 0 1 1``).
        """
        index = self._index
        key = right.key
        if key is not _GUARD and key == right.prev.key == right.next.key:
            index[(key, key)] = right
        key = left.key
        next_key = left.next.key
        if key is not _GUARD and next_key is not _GUARD:
            digram = (key, next_key)
            if index.get(digram) is left:
                del index[digram]
            if key == left.prev.key == next_key:
                index[(key, key)] = left.prev
        left.next = right
        right.prev = left

    # -- internals ----------------------------------------------------------

    def _new_rule(self) -> _Rule:
        rule = self._rules[self._next_rule_id] = _Rule(self._next_rule_id)
        self._next_rule_id += 1
        return rule
