"""DAG view of a compressed corpus.

TADOC rules "can be further represented as a directed acyclic graph"
(Fig. 1e): nodes are rules, and an edge R -> R' with multiplicity f means
R' occurs f times in R's body.  Analytics become DAG-traversal problems:
top-down weight propagation in topological order, or bottom-up word-list
merging in reverse topological order.

This module computes the graph structure once, in plain Python (it is
metadata about the corpus, not data resident on the simulated device; the
device-resident form is built by :mod:`repro.core.pruning`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grammar import RULE_BASE, SEP_BASE, CompressedCorpus
from repro.errors import GrammarError


@dataclass(frozen=True)
class PrunedRule:
    """Python-side result of pruning one rule (Algorithm 1's output)."""

    subrules: tuple[tuple[int, int], ...]  # (rule index, frequency), id-sorted
    words: tuple[tuple[int, int], ...]     # (word id, frequency), id-sorted
    raw_length: int                        # symbols in the unpruned body

    @property
    def pruned_length(self) -> int:
        """Number of (id, freq) entries after pruning."""
        return len(self.subrules) + len(self.words)

    @property
    def savings(self) -> float:
        """Fraction of grammar entries removed by pruning."""
        if self.raw_length == 0:
            return 0.0
        return 1.0 - self.pruned_length / self.raw_length


def _buckets(body: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Algorithm 1's bucket pass: a body's ``{subrule index: frequency}``
    and ``{word id: frequency}`` maps, keyed in first-reference order.

    Separators carry no analytics weight and are dropped here (they remain
    available in the ordered body).
    """
    subs: dict[int, int] = {}
    words: dict[int, int] = {}
    sget = subs.get
    wget = words.get
    for symbol in body:
        if symbol >= RULE_BASE:
            key = symbol - RULE_BASE
            subs[key] = sget(key, 0) + 1
        elif symbol < SEP_BASE:
            words[symbol] = wget(symbol, 0) + 1
    return subs, words


def prune_rule(body: list[int]) -> PrunedRule:
    """Collapse a body into id-sorted frequency lists (Algorithm 1)."""
    subs, words = _buckets(body)
    return PrunedRule(
        subrules=tuple(sorted(subs.items())),
        words=tuple(sorted(words.items())),
        raw_length=len(body),
    )


class Dag:
    """Rule-level DAG of a compressed corpus.

    Attributes:
        n_rules: Number of nodes.
        subrules: Per rule, its id-sorted ``(subrule index, multiplicity)``
            pairs (the bucket pass of :func:`prune_rule`).
        words: Per rule, its id-sorted ``(word id, multiplicity)`` pairs
            (separators excluded).
        in_degree: Number of distinct rules referencing each rule.
        out_degree: Number of distinct subrules of each rule.

    The pair tuples are shared, never copied, by everything built from
    this view: the pruned DAG's pool image and its host decode cache.
    """

    def __init__(self, corpus: CompressedCorpus) -> None:
        self.corpus = corpus
        self.n_rules = corpus.n_rules
        self.subrules: list[tuple[tuple[int, int], ...]] = []
        self.words: list[tuple[tuple[int, int], ...]] = []
        #: Per rule, its distinct subrules in the order its body first
        #: references them.  The topological order, and with it every
        #: charged access of a traversal, follows this order, not id order.
        self._children: list[tuple[int, ...]] = []
        for body in corpus.rules:
            subs, words = _buckets(body)
            self.subrules.append(tuple(sorted(subs.items())))
            self.words.append(tuple(sorted(words.items())))
            self._children.append(tuple(subs))
        self._topo_order: list[int] | None = None
        self.out_degree = [len(children) for children in self._children]
        self.in_degree = [0] * self.n_rules
        for children in self._children:
            for target in children:
                self.in_degree[target] += 1

    # ------------------------------------------------------------------
    # Orderings
    # ------------------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Rules ordered so every rule precedes its subrules.

        Kahn's algorithm over reference edges; the root comes first.

        The order is computed once and memoized (the DAG is immutable);
        callers must not mutate the returned list.

        Raises:
            GrammarError: if the grammar contains a reference cycle.
        """
        if self._topo_order is not None:
            return self._topo_order
        remaining = list(self.in_degree)
        queue = [r for r in range(self.n_rules) if remaining[r] == 0]
        order: list[int] = []
        children = self._children
        head = 0
        while head < len(queue):
            rule = queue[head]
            head += 1
            order.append(rule)
            for target in children[rule]:
                remaining[target] -= 1
                if remaining[target] == 0:
                    queue.append(target)
        if len(order) != self.n_rules:
            raise GrammarError("reference cycle detected in grammar")
        self._topo_order = order
        return order

    def reverse_topological_order(self) -> list[int]:
        """Rules ordered so every rule follows its subrules (leaves first)."""
        return list(reversed(self.topological_order()))

    def topological_levels(self) -> list[list[int]]:
        """Rules grouped by longest-path depth from the root.

        Every rule's referencing rules sit in strictly earlier levels, so
        all rules within one level can be processed concurrently once the
        previous level is complete -- the level-synchronous decomposition
        G-TADOC uses for massively parallel rule processing.
        """
        depth = [0] * self.n_rules
        for rule in self.topological_order():
            for target, _ in self.subrules[rule]:
                depth[target] = max(depth[target], depth[rule] + 1)
        levels: list[list[int]] = [[] for _ in range(max(depth, default=0) + 1)]
        for rule, level in enumerate(depth):
            levels[level].append(rule)
        return levels

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def weights(self) -> list[int]:
        """Expansion count of every rule (the paper's rule *weight*).

        ``weights[0]`` is 1; a rule referenced f times by rules of total
        weight w accumulates weight w*f.  This is the Step 1-2 propagation
        of the paper's word-count example.
        """
        weight = [0] * self.n_rules
        weight[0] = 1
        for rule in self.topological_order():
            w = weight[rule]
            if w == 0:
                continue
            for target, freq in self.subrules[rule]:
                weight[target] += w * freq
        return weight

    def expansion_lengths(self) -> list[int]:
        """Fully-expanded word count of every rule (separators excluded)."""
        lengths = [0] * self.n_rules
        for rule in self.reverse_topological_order():
            total = sum(freq for _, freq in self.words[rule])
            for target, freq in self.subrules[rule]:
                total += freq * lengths[target]
            lengths[rule] = total
        return lengths

    def reachable_from(self, roots: list[int]) -> set[int]:
        """All rules reachable from the given rule indices (inclusive)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            rule = stack.pop()
            if rule in seen:
                continue
            seen.add(rule)
            stack.extend(t for t, _ in self.subrules[rule] if t not in seen)
        return seen
