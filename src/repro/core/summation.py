"""Bottom-up summation of word-list upper bounds (Algorithm 2).

On NVM, a variable-length structure that outgrows its allocation pays a
read-modify-write reconstruction.  The paper's fix: before traversal,
compute for every rule an upper bound on how large its word list can get,
then allocate once.  The bound for a rule is the sum of its (distinct)
subrules' bounds plus its own distinct-word count -- an overestimate of
the true distinct-word total (words shared between subrules are counted
multiple times), which is exactly what makes it a safe allocation size.

``bottom_up_summate`` is the paper's recursive Algorithm 2 verbatim;
``summate_all`` is the iterative driver used by the engine (no recursion
depth limit, single pass in reverse topological order).
"""

from __future__ import annotations

from repro.core.dag import Dag

#: Sentinel meaning "not yet determined" (Algorithm 2's determined flag).
UNDETERMINED = -1


def bottom_up_summate(rule: int, bounds: list[int], dag: Dag) -> int:
    """Determine the upper bound of ``rule``'s word-list length.

    Mirrors Algorithm 2: recursively determine undetermined subrules,
    then sum their bounds and add the rule's own word count.  ``bounds``
    is updated in place (the paper's ``L``); entries equal to
    :data:`UNDETERMINED` are not yet determined.

    Returns the bound for ``rule``.
    """
    total = 0
    for subrule, _ in dag.subrules[rule]:
        if bounds[subrule] == UNDETERMINED:
            bottom_up_summate(subrule, bounds, dag)
        total += bounds[subrule]
    total += len(dag.words[rule])
    bounds[rule] = total
    return total


def summate_all(dag: Dag) -> list[int]:
    """Upper bounds for every rule, computed iteratively leaves-first.

    Equivalent to calling :func:`bottom_up_summate` on every rule, but in
    one reverse-topological sweep with no recursion.
    """
    bounds = [UNDETERMINED] * dag.n_rules
    for rule in dag.reverse_topological_order():
        total = len(dag.words[rule])
        for subrule, _ in dag.subrules[rule]:
            total += bounds[subrule]
        bounds[rule] = total
    return bounds


def head_tail_lists(dag: Dag, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """Per-rule head/tail word buffers of width ``k``, computed bottom-up.

    This is the "lightweight bottom-up preprocessing step to obtain the
    head and tail structure of all rules" (Section IV-B) that lets the
    pruning method keep supporting sequence analytics.

    Returns ``(heads, tails)`` where each entry holds at most ``k`` word
    ids from the start (resp. end) of the rule's full expansion.
    """
    from repro.core.grammar import is_rule_ref, is_word, rule_index

    heads: list[list[int]] = [[] for _ in range(dag.n_rules)]
    tails: list[list[int]] = [[] for _ in range(dag.n_rules)]
    for rule in dag.reverse_topological_order():
        head: list[int] = []
        for symbol in dag.corpus.rules[rule]:
            if len(head) >= k:
                break
            if is_rule_ref(symbol):
                head.extend(heads[rule_index(symbol)])
            elif is_word(symbol):
                head.append(symbol)
        heads[rule] = head[:k]
        tail: list[int] = []
        for symbol in reversed(dag.corpus.rules[rule]):
            if len(tail) >= k:
                break
            if is_rule_ref(symbol):
                tail = tails[rule_index(symbol)] + tail
            elif is_word(symbol):
                tail.insert(0, symbol)
        tails[rule] = tail[-k:]
    return heads, tails
