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
work small, every symbol caches its digram key -- the token for a
terminal, the :class:`_Rule` object for a nonterminal -- and a rule
is the guard node of its own body, keyed by the ``_GUARD`` sentinel, so
guard tests are identity tests.

Every repeat is found at the root's tail.  A push can only create the
digram that ends at the new token; rewriting the *old* occurrence of a
repeat installs a brand-new rule, whose digrams cannot repeat yet; so
only the digram that ends at the tail's new reference can repeat next.
The reference implementation's match/substitute recursion is therefore
one loop in :meth:`Sequitur.push_all` that reduces the root's tail until
its last digram is new.  The loop defers each new rule's body
registration and each rule-utility check and runs them last-first when
it ends, which is the order in which the recursion unwinds.  The
decisions (hence the grammar) are pinned by golden ``freeze()`` digests
in ``tests/test_sequitur.py``.

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
        """Append a whole stream.

        Each token joins the root's tail, and only the digram it ends can
        repeat an old one.  A repeat turns the tail's last two symbols into
        one reference -- to the rule whose whole body the digram is, or to
        a new rule once the old occurrence is rewritten -- and the loop goes
        on with the digram that now ends at the tail.  The tail node is
        rekeyed in place, so a push links exactly one node into the root.
        Body registrations and rule-utility checks wait on ``pending`` and
        run, last first, once the tail is settled.
        """
        root = self._root
        index = self._index
        lookup = index.get
        pending: list[tuple[_Rule, _Symbol | None]] = []
        pushed = 0
        for key in tokens:
            last = root.prev
            tail = last.next = root.prev = _Symbol(key, last, root)
            pushed += 1
            while last is not root:
                last_key = last.key
                digram = (last_key, key)
                match = lookup(digram)
                if match is None:
                    index[digram] = last
                    break
                if match.next is last:  # overlaps are left alone
                    break
                if match.prev.key is _GUARD and match.next.next.key is _GUARD:
                    # The repeat is the entire body of an existing rule
                    # (the guard before it is that rule).
                    rule = match.prev
                    pending.append((rule, None))
                else:
                    rule = self._new_rule()
                    self._substitute(match, rule)
                    pending.append((rule, match))
                    # Moving an old occurrence that ends just before last
                    # can leave this digram's run entry at last.
                    if lookup(digram) is last:
                        del index[digram]
                # Turn "prev last tail" into "prev R": unlink last, rekey
                # the tail.  The index upkeep is _substitute's with the
                # guard after the tail.
                prev = last.prev
                prev_key = prev.key
                if prev_key is not _GUARD:
                    pair = (prev_key, last_key)
                    if lookup(pair) is prev:
                        del index[pair]
                    # prev closes a run "x x": evicting "prev last" must
                    # re-register "x x" when last or the tail is an x too.
                    if prev_key == last_key or prev_key == key:
                        prev_prev = prev.prev
                        if prev_prev.key == prev_key:
                            index[(prev_key, prev_key)] = prev_prev
                if last_key.__class__ is _Rule:
                    last_key.refcount -= 1
                if key.__class__ is _Rule:
                    key.refcount -= 1
                prev.next = tail
                tail.prev = prev
                tail.key = key = rule
                rule.refcount += 1
                last = prev
            while pending:
                rule, first = pending.pop()
                if first is not None:
                    index[(first.key, first.next.key)] = first
                # Rule utility: if the rule starts with a nonterminal whose
                # rule has dropped to a single use, inline that rule.
                head = rule.next
                if head.key.__class__ is _Rule and head.key.refcount == 1:
                    self._expand(rule, head)
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

    def _substitute(self, symbol: _Symbol, rule: _Rule) -> None:
        """Replace the old occurrence ``symbol symbol.next`` of a repeated
        digram with a reference to the brand-new ``rule``.

        Turning ``prev a b after`` into ``prev R after`` is three link
        rewrites -- unlink ``a``, unlink ``b``, insert ``R`` -- whose index
        upkeep is done here straight-line, in the reference implementation's
        order.  In a run of three equal symbols only one of the two
        overlapping digrams is indexed, so when a rewrite removes that entry
        the surviving pair must be re-registered or a later repeat of the
        digram would go undetected (e.g. the stream ``2 1 1 1 2 1 0 1 1``).

        ``a`` and ``b`` become the rule's body, keeping their references,
        so no refcount but the rule's changes.  No other symbol refers to
        ``rule`` yet, so neither digram around the reference can repeat one
        in the index.
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
        reference = prev.next = after.prev = _Symbol(rule, prev, after)
        rule.next = symbol
        symbol.prev = rule
        rule.prev = second
        second.next = rule
        rule.refcount = 1
        if prev_key is not _GUARD:
            index[(prev_key, rule)] = prev
        if after_key is not _GUARD:
            index[(rule, after_key)] = reference

    def _expand(self, rule: _Rule, head: _Symbol) -> None:
        """Inline the single-use rule that ``rule``'s first symbol refers to.

        Both splices join a guard-delimited end of one body to the other,
        so they break no run of equal symbols; only the digram after
        ``head`` changes its first symbol.
        """
        inner = head.key
        right = head.next  # a rule body has two symbols or more
        first = inner.next
        last = inner.prev
        del self._rules[inner.rule_id]
        rule.next = first
        first.prev = rule
        last.next = right
        right.prev = last
        index = self._index
        digram = (inner, right.key)
        if index.get(digram) is head:
            del index[digram]
        index[(last.key, right.key)] = last

    # -- internals ----------------------------------------------------------

    def _new_rule(self) -> _Rule:
        rule = self._rules[self._next_rule_id] = _Rule(self._next_rule_id)
        self._next_rule_id += 1
        return rule
