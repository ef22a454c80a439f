"""Leaf-by-leaf diff of two JSON captures (``tests/golden/*.json``).

Usage::

    python -m repro.harness.goldendiff OLD NEW

Prints one line per leaf whose value differs between the two documents:
its path, the old value and the new one.  A path is the keys from the
root joined by ``.``, with list indices as ``[i]``; a leaf missing on
one side reads ``<absent>``.  The last line counts the differing leaves
by their last key, so a re-capture that moved one field reads as one
entry.  Exits 0 when the documents are equal and 1 otherwise, like
``cmp``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Any, Iterator

#: Stands for a leaf one document has and the other does not.
ABSENT = object()


def leaves(doc: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """Every ``(path, value)`` leaf of a JSON document, in document order.

    Scalars and empty containers are leaves.
    """
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(doc, list) and doc:
        for index, value in enumerate(doc):
            yield from leaves(value, f"{path}[{index}]")
    else:
        yield path, doc


def _same(a: Any, b: Any) -> bool:
    """Equal as JSON values: ``1``, ``1.0`` and ``true`` all differ."""
    return type(a) is type(b) and a == b


def diff(old: Any, new: Any) -> list[tuple[str, Any, Any]]:
    """``(path, old value, new value)`` for every leaf that differs.

    Paths come in ``old``'s order, then those only ``new`` has.
    """
    old_leaves = dict(leaves(old))
    new_leaves = dict(leaves(new))
    rows = [
        (path, value, new_leaves.get(path, ABSENT))
        for path, value in old_leaves.items()
        if not _same(new_leaves.get(path, ABSENT), value)
    ]
    rows += [
        (path, ABSENT, value)
        for path, value in new_leaves.items()
        if path not in old_leaves
    ]
    return rows


def _show(value: Any) -> str:
    return "<absent>" if value is ABSENT else json.dumps(value, sort_keys=True)


def _last_key(path: str) -> str:
    return path.rsplit(".", 1)[-1].split("[", 1)[0] or path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.goldendiff",
        description="Print every leaf whose value differs between two JSON files.",
    )
    parser.add_argument("old", help="the earlier capture")
    parser.add_argument("new", help="the later capture")
    args = parser.parse_args(argv)
    with open(args.old, encoding="utf-8") as f:
        old = json.load(f)
    with open(args.new, encoding="utf-8") as f:
        new = json.load(f)
    rows = diff(old, new)
    for path, before, after in rows:
        print(f"{path}: {_show(before)} -> {_show(after)}")
    by_key = Counter(_last_key(path) for path, _, _ in rows)
    summary = ", ".join(f"{key} {count}" for key, count in sorted(by_key.items()))
    print(f"{len(rows)} leaves differ" + (f" (by last key: {summary})" if rows else ""))
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
