"""Project-wide symbol table: every function and method, by qualified name.

The table is the ground layer of the interprocedural engine: it maps a
dotted qualified name (``repro.nvm.persist.PhasePersistence.complete_phase``)
to the function's AST together with enough context (module, enclosing
class, parameter names) for the call graph and the summary layer to
resolve calls and thread effects across files.

Module naming is derived from the lint-relative path: everything after
the last ``src`` component (the repo layout), else from the first
``repro`` component, else the file stem.  That makes qualified names
match the project's own absolute imports, which is what the call graph
resolves against.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.core import ModuleFile

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Names too generic (or too overloaded) for unique-name call resolution:
#: resolving ``obj.write(...)`` to the one project function named
#: ``write`` would routinely be wrong about the receiver.
GENERIC_NAMES = frozenset(
    {
        "run",
        "read",
        "write",
        "get",
        "set",
        "add",
        "put",
        "pop",
        "push",
        "open",
        "close",
        "flush",
        "reset",
        "start",
        "stop",
        "build",
        "check",
        "items",
        "keys",
        "values",
        "update",
        "append",
        "extend",
        "insert",
        "merge",
        "copy",
        "clear",
        "main",
        "render",
        "size",
        "name",
    }
)


def module_name_for(rel: str) -> str:
    """Dotted module name for a lint-relative POSIX path."""
    parts = rel.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    parts = parts[:-1] + [stem]
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[anchor + 1 :]
    elif "repro" in parts:
        tail = parts[parts.index("repro") :]
    else:
        tail = [stem]
    if tail and tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail) or stem


@dataclass
class FunctionInfo:
    """One function or method known to the project."""

    qname: str
    module: "ModuleFile"
    node: FunctionNode
    cls: str | None
    params: tuple[str, ...]

    @property
    def name(self) -> str:
        return getattr(self.node, "name", "<module>")

    @property
    def location(self) -> str:
        return f"{self.module.rel}:{getattr(self.node, 'lineno', 1)}"

    @cached_property
    def set_locals(self) -> set[str]:
        """Local names unambiguously set-typed here, computed once: the
        taint fixpoint re-analyses every function on each pass."""
        from repro.lint.rules.common import set_typed_locals

        return set_typed_locals(self.node)

    def own_nodes(self) -> Iterator[ast.AST]:
        """Every AST node in this function's body, excluding nested
        function/class bodies (those are their own symbols)."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(self.node))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def own_calls(self) -> list[ast.Call]:
        """Call nodes executed by this function's own body, in source order."""
        calls = [n for n in self.own_nodes() if isinstance(n, ast.Call)]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        return calls


def _param_names(node: FunctionNode) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return tuple(names)


@dataclass
class SymbolTable:
    """All functions in the linted file set, with resolution indexes."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare function/method name -> sorted qnames defining it
    by_name: dict[str, list[str]] = field(default_factory=dict)
    #: (module, class) -> method name -> qname
    methods: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)
    #: module -> top-level function name -> qname
    module_funcs: dict[str, dict[str, str]] = field(default_factory=dict)
    #: ModuleFile.rel -> dotted module name
    module_names: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, modules: list["ModuleFile"]) -> "SymbolTable":
        table = cls()
        for module in sorted(modules, key=lambda m: m.rel):
            mod_name = module_name_for(module.rel)
            if mod_name in table.module_funcs:
                # Same-stem collision across directories (fixture trees):
                # fall back to the full dotted path, keeping determinism.
                mod_name = module.rel[:-3].replace("/", ".")
            table.module_names[module.rel] = mod_name
            table.module_funcs.setdefault(mod_name, {})
            # Module-level statements get a pseudo-function so top-level
            # init code sees the same dataflow/ordering treatment.  It is
            # excluded from by_name (nothing can call it).
            table.functions[f"{mod_name}.<module>"] = FunctionInfo(
                qname=f"{mod_name}.<module>",
                module=module,
                node=module.tree,  # type: ignore[assignment]
                cls=None,
                params=(),
            )
            table._index_module(module, mod_name)
        for qnames in table.by_name.values():
            qnames.sort()
        return table

    def _index_module(self, module: "ModuleFile", mod_name: str) -> None:
        def visit(node: ast.AST, prefix: str, cls_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{prefix}.{child.name}"
                    self._register(module, qname, child, cls_name)
                    if cls_name is None and prefix == mod_name:
                        self.module_funcs[mod_name][child.name] = qname
                    if cls_name is not None:
                        self.methods.setdefault(
                            (mod_name, cls_name), {}
                        )[child.name] = qname
                    visit(child, qname, None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", child.name)
                elif not isinstance(child, (ast.Lambda,)):
                    visit(child, prefix, cls_name)

        visit(module.tree, mod_name, None)

    def _register(
        self,
        module: "ModuleFile",
        qname: str,
        node: FunctionNode,
        cls_name: str | None,
    ) -> None:
        fresh = qname not in self.functions
        self.functions[qname] = FunctionInfo(  # redefinition: last one wins
            qname=qname,
            module=module,
            node=node,
            cls=cls_name,
            params=_param_names(node),
        )
        if fresh:
            self.by_name.setdefault(node.name, []).append(qname)

    def unique_by_name(self, name: str) -> str | None:
        """Resolve a bare method name when the project defines it exactly
        once and the name is distinctive enough to trust."""
        if name in GENERIC_NAMES or name.startswith("__"):
            return None
        qnames = self.by_name.get(name)
        if qnames and len(qnames) == 1:
            return qnames[0]
        return None
