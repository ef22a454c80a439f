"""ND009: writable persistent handle escaping its transaction scope.

Operation-level persistence makes a ``with log.transaction() as tx:``
block atomic: every mutation inside it persists an undo record first,
and the log is sealed when the block exits.  A writable pstruct handle
(``PVector``, ``PHashTable``, ...) *created inside* the block that
escapes it -- returned, stored on an object, appended to an outer
container, or captured by a nested function -- and is then written after
the block commits, mutates the pool with no undo coverage at all: a
crash mid-write leaves a half-initialized structure that recovery
happily trusts::

    with log.transaction() as tx:
        vec = PVector(pool, n)      # created under the log
        out.append(vec)             # ND009: escapes into outer container
    vec.append(7)                   # ND009: written after commit

The rule flags, per transaction block:

* escape routes for handles constructed inside the block (``return``,
  attribute/subscript store, aggregation into a non-block-local
  container, capture by a nested function);
* post-block mutator calls on such handles, until the name is rebound;
* any use of the transaction handle itself after the block (the log is
  sealed at ``__exit__``; a late ``tx.write`` is silently unlogged).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis import spec
from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import register
from repro.lint.rules.common import (
    NOT_A_TX,
    leftmost_name,
    parent_map,
    transaction_target,
)


def _handle_ctor(value: ast.expr) -> str | None:
    """Constructor name if ``value`` builds a writable pstruct handle."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in spec.WRITABLE_HANDLE_TYPES:
        return name
    return None


def _names_in(node: ast.AST, watched: set[str]) -> set[str]:
    """Watched names loaded anywhere under ``node``."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id in watched
        ):
            found.add(sub.id)
    return found


def _bound_names(stmt: ast.stmt) -> set[str]:
    """Names (re)bound at the top level of one statement."""
    bound: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            bound.add(stmt.target.id)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for sub in ast.walk(stmt.target):
            if isinstance(sub, ast.Name):
                bound.add(sub.id)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for sub in ast.walk(item.optional_vars):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
    return bound


@register
class TransactionEscape:
    id = "ND009"
    summary = "writable handle escapes its transaction() scope"

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.is_test_file:
            return
        parents = parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            tx = transaction_target(node)
            if tx is NOT_A_TX:
                continue
            yield from self._check_block(module, node, tx, parents)

    def _check_block(
        self,
        module: ModuleFile,
        block: ast.With | ast.AsyncWith,
        tx: str | None,
        parents: dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        handles: dict[str, str] = {}  # name -> ctor
        block_locals: set[str] = set()
        for stmt in block.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    if isinstance(target, ast.Name):
                        block_locals.add(target.id)
                        ctor = _handle_ctor(sub.value)
                        if ctor is not None:
                            handles[target.id] = ctor

        yield from self._escapes_inside(module, block, handles, block_locals, tx)
        yield from self._uses_after(module, block, handles, tx, parents)

    # -- escape routes inside the block --------------------------------

    def _escapes_inside(
        self,
        module: ModuleFile,
        block: ast.With | ast.AsyncWith,
        handles: dict[str, str],
        block_locals: set[str],
        tx: str | None,
    ) -> Iterator[Finding]:
        watched = set(handles)
        if not watched:
            return
        for stmt in block.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    for name in sorted(_names_in(sub.value, watched)):
                        yield self._escape(
                            module, sub, handles, name, "via return"
                        )
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, (ast.Attribute, ast.Subscript)):
                            for name in sorted(
                                _names_in(sub.value, watched)
                            ):
                                yield self._escape(
                                    module,
                                    sub,
                                    handles,
                                    name,
                                    "via store to "
                                    f"'{ast.unparse(target)}'",
                                )
                elif isinstance(sub, ast.Call) and isinstance(
                    sub.func, ast.Attribute
                ):
                    receiver = leftmost_name(sub.func)
                    if (
                        sub.func.attr in spec.AGGREGATION_METHODS
                        and receiver is not None
                        and receiver not in block_locals
                        and receiver != tx
                    ):
                        arg_names: set[str] = set()
                        for arg in sub.args:
                            arg_names |= _names_in(arg, watched)
                        for name in sorted(arg_names):
                            yield self._escape(
                                module,
                                sub,
                                handles,
                                name,
                                f"into outer container '{receiver}'",
                            )
                elif isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    for name in sorted(_names_in(sub, watched)):
                        label = getattr(sub, "name", "<lambda>")
                        yield self._escape(
                            module,
                            sub,
                            handles,
                            name,
                            f"captured by nested function '{label}'",
                        )

    def _escape(
        self,
        module: ModuleFile,
        node: ast.AST,
        handles: dict[str, str],
        name: str,
        route: str,
    ) -> Finding:
        return module.finding(
            self.id,
            node,
            f"writable {handles[name]} handle '{name}' created inside a "
            f"transaction() block escapes {route}; writes to it after "
            "commit bypass the undo log",
        )

    # -- uses after the block ------------------------------------------

    def _uses_after(
        self,
        module: ModuleFile,
        block: ast.With | ast.AsyncWith,
        handles: dict[str, str],
        tx: str | None,
        parents: dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        following = _statements_after(block, parents)
        live_handles = set(handles)
        tx_live = tx is not None
        for stmt in following:
            bound = _bound_names(stmt)
            if tx_live:
                # A with-statement that rebinds the handle runs only its
                # context expressions before the rebinding.
                scanned = (
                    [item.context_expr for item in stmt.items]
                    if isinstance(stmt, (ast.With, ast.AsyncWith)) and tx in bound
                    else [stmt]
                )
                for sub in (sub for part in scanned for sub in ast.walk(part)):
                    if (
                        isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id == tx
                    ):
                        yield module.finding(
                            self.id,
                            sub,
                            f"transaction handle '{tx}' used after its "
                            "block: the undo log is sealed at exit, so "
                            "this operation is not covered",
                        )
                        tx_live = False
                        break
            for sub in ast.walk(stmt):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                ):
                    continue
                receiver = leftmost_name(sub.func)
                if (
                    receiver in live_handles
                    and sub.func.attr in spec.HANDLE_MUTATORS
                ):
                    yield module.finding(
                        self.id,
                        sub,
                        f"writable {handles[receiver]} handle "
                        f"'{receiver}' created inside a transaction() "
                        f"block is written ('{sub.func.attr}') after the "
                        "block committed; reopen a transaction for "
                        "post-commit mutations",
                    )
                    live_handles.discard(receiver)
            live_handles -= bound
            if tx is not None and tx in bound:
                tx_live = False


def _statements_after(
    block: ast.stmt, parents: dict[ast.AST, ast.AST]
) -> list[ast.stmt]:
    """Statements following ``block`` in its enclosing statement list."""
    parent = parents.get(block)
    if parent is None:
        return []
    for field_name in ("body", "orelse", "finalbody"):
        seq = getattr(parent, field_name, None)
        if isinstance(seq, list) and block in seq:
            index = seq.index(block)
            return seq[index + 1 :]
    return []
