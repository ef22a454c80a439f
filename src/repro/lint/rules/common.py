"""Shared AST analyses used by several rules.

Everything here is conservative: when a name, constant, or type cannot be
resolved with certainty the helpers return ``None`` and the rules stay
silent.  A linter for an accounting substrate must never cry wolf --
false positives teach people to sprinkle suppressions.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.core import ModuleFile


def dotted_name(node: ast.AST, imports: dict[str, str] | None = None) -> str | None:
    """Best-effort dotted name of an expression, e.g. ``time.perf_counter``.

    With an import table, local aliases are expanded to their fully
    qualified names (``import time as t`` makes ``t.time`` -> ``time.time``,
    ``from time import perf_counter`` makes ``perf_counter`` ->
    ``time.perf_counter``).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if imports and root in imports:
        root = imports[root]
    parts.append(root)
    return ".".join(reversed(parts))


def leftmost_name(node: ast.AST) -> str | None:
    """The base variable of an attribute/subscript chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# Constant evaluation (ND004)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StructConst:
    """A resolved module-level ``struct.Struct`` declaration."""

    format: str
    size: int


@dataclass
class ConstEnv:
    """Resolvable module-level constants: ints, strings, Struct objects."""

    values: dict[str, object] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_module(cls, module: "ModuleFile") -> "ConstEnv":
        env = cls(imports=module.import_table)
        for node in module.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            resolved = env.eval(value)
            if resolved is not None:
                env.values[target.id] = resolved
        return env

    def eval(self, node: ast.expr) -> object | None:
        """Evaluate ``node`` to an int, str, or StructConst, else ``None``."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, str)) and not isinstance(
                node.value, bool
            ):
                return node.value
            return None
        if isinstance(node, ast.Name):
            return self.values.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value)
            if isinstance(base, StructConst) and node.attr == "size":
                return base.size
            return None
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if isinstance(left, int) and isinstance(right, int):
                if isinstance(node.op, ast.Add):
                    return left + right
                if isinstance(node.op, ast.Sub):
                    return left - right
                if isinstance(node.op, ast.Mult):
                    return left * right
                if isinstance(node.op, ast.FloorDiv) and right:
                    return left // right
            if (
                isinstance(left, str)
                and isinstance(right, str)
                and isinstance(node.op, ast.Add)
            ):
                return left + right
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        return None

    def _eval_call(self, node: ast.Call) -> object | None:
        name = dotted_name(node.func, self.imports)
        args = [self.eval(arg) for arg in node.args]
        if name == "struct.calcsize" and len(args) == 1 and isinstance(args[0], str):
            return safe_calcsize(args[0])
        if name == "struct.Struct" and len(args) == 1 and isinstance(args[0], str):
            size = safe_calcsize(args[0])
            if size is not None:
                return StructConst(format=args[0], size=size)
            return None
        # String-method folding, e.g. "<QII Q".replace(" ", "").
        if isinstance(node.func, ast.Attribute):
            base = self.eval(node.func.value)
            if isinstance(base, str) and not node.keywords:
                method = getattr(str, node.func.attr, None)
                if node.func.attr in ("replace", "upper", "lower", "strip") and all(
                    isinstance(a, str) for a in args
                ):
                    try:
                        return method(base, *args)
                    except Exception:
                        return None
        return None


def safe_calcsize(fmt: str) -> int | None:
    try:
        return struct.calcsize(fmt)
    except struct.error:
        return None


# ----------------------------------------------------------------------
# Set-typed value inference (ND003)
# ----------------------------------------------------------------------

_SET_NAMES = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}


def is_set_expr(node: ast.expr) -> bool:
    """Whether an expression certainly produces a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def is_set_annotation(node: ast.expr | None) -> bool:
    """Whether a type annotation names a set (``set``, ``set[int]``, ...)."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in _SET_NAMES
    if isinstance(node, ast.Attribute):  # typing.Set, typing.MutableSet
        return node.attr in _SET_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip()
        return head.split(".")[-1] in _SET_NAMES
    return False


def set_typed_self_attrs(cls: ast.ClassDef) -> set[str]:
    """Attribute names assigned/annotated as sets anywhere in a class."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if _is_self_attr(target) and is_set_expr(node.value):
                attrs.add(target.attr)  # type: ignore[union-attr]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if _is_self_attr(target) and is_set_annotation(node.annotation):
                attrs.add(target.attr)  # type: ignore[union-attr]
    return attrs


def _is_self_attr(node: ast.expr | None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def set_typed_locals(func: ast.AST) -> set[str]:
    """Local names that are unambiguously set-typed within ``func``.

    A name assigned a set in one place and something unresolvable in
    another is dropped: better silent than wrong.
    """
    certain: set[str] = set()
    tainted: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    (certain if is_set_expr(node.value) else tainted).add(
                        target.id
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if is_set_annotation(node.annotation):
                certain.add(node.target.id)
            elif node.value is not None and is_set_expr(node.value):
                certain.add(node.target.id)
            else:
                tainted.add(node.target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name):
                tainted.add(target.id)
    return certain - tainted


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child node -> parent node for every node in ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def nearest_enclosing(
    parents: dict[ast.AST, ast.AST], node: ast.AST, kinds: tuple[type, ...]
) -> ast.AST | None:
    """The closest ancestor of ``node`` matching one of ``kinds``."""
    cursor = parents.get(node)
    while cursor is not None:
        if isinstance(cursor, kinds):
            return cursor
        cursor = parents.get(cursor)
    return None


def iteration_sites(tree: ast.AST):
    """Yield ``(iterable_expr, anchor_node)`` for every iteration point."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            yield node.iter, node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                yield comp.iter, comp.iter


# ----------------------------------------------------------------------
# Transaction blocks (ND002, ND009, ND013)
# ----------------------------------------------------------------------

#: Sentinel distinguishing "not a transaction context" from "transaction
#: context without an ``as`` target" (``None``).
NOT_A_TX = "\x00not-a-transaction"


def transaction_target(block: ast.With | ast.AsyncWith) -> str | None:
    """The ``as`` name of the block's first ``.transaction()`` context.

    ``None`` when that context binds no handle (nothing inside may
    write), :data:`NOT_A_TX` when no item is a ``.transaction()`` call.
    """
    for item in block.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "transaction"
        ):
            if isinstance(item.optional_vars, ast.Name):
                return item.optional_vars.id
            return None
    return NOT_A_TX
