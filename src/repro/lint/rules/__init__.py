"""Rule registry.

A rule is any object with an ``id``, a ``summary``, and a
``check(module) -> Iterator[Finding]`` method; importing this package
pulls in every built-in rule.  Rules that share a mechanism are rows of
one table, each registered with :func:`add_rule`:

* :mod:`.fences` -- a name that only its owning modules may use
  (ND001, ND007, ND012, ND013): a new fence is one ``Fence`` row;
* :mod:`.obligations` -- a marker persisted with no flush before it
  (ND005, ND006, ND008): a new obligation kind is one entry;
* :mod:`.flows` -- a labelled value reaching a charging sink (ND010,
  ND014): a new label kind is one entry.

A check with its own mechanism is a module with one class, decorated
with :func:`register` and imported below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.core import Finding, ModuleFile


class Rule(Protocol):
    id: str
    summary: str

    def check(self, module: "ModuleFile") -> "Iterator[Finding]": ...


REGISTRY: dict[str, Rule] = {}


def add_rule(rule: Rule) -> None:
    """Add a rule instance to the registry."""
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    REGISTRY[rule.id] = rule


def register(cls):
    """Class decorator: instantiate the rule and add it to the registry."""
    add_rule(cls())
    return cls


def all_rule_ids() -> list[str]:
    return sorted(REGISTRY)


# Built-in rules.
from repro.lint.rules import (  # noqa: E402  (registry must exist first)
    fences,
    flows,
    nd002_unlogged_tx_write,
    nd003_nondeterminism,
    nd004_struct_width,
    nd009_tx_escape,
    nd011_partition_race,
    obligations,
)

__all__ = [
    "REGISTRY",
    "Rule",
    "add_rule",
    "all_rule_ids",
    "register",
    "fences",
    "flows",
    "nd002_unlogged_tx_write",
    "nd003_nondeterminism",
    "nd004_struct_width",
    "nd009_tx_escape",
    "nd011_partition_race",
    "obligations",
]
