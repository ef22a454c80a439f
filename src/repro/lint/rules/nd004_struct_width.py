"""ND004: struct format/width mismatches at device access sites.

On-device layouts are declared once (precompiled ``struct.Struct``
constants, ``struct.calcsize`` size constants, the fixed-width helpers in
``pstruct/layout.py``) and consumed at many call sites.  A call site that
reads a different number of bytes than its format decodes silently
truncates or over-reads a persistent record -- the classic torn-layout
bug that only surfaces after a crash or a layout migration.

Three checks, all resolved through a conservative constant folder
(unresolvable sites are skipped, never guessed):

* ``struct.unpack(FMT, mem.read(off, SIZE))`` (also via a ``Struct``
  constant, ``peek``, or a single-assignment local
  holding the read) where ``calcsize(FMT) != SIZE``;
* fixed-width helpers named ``read_uN``/``write_iN``/... whose body
  calls ``read_uint``/``write_uint`` with a different byte width;
* width-named ``struct.Struct`` constants (``U32 = struct.Struct(...)``)
  whose format size disagrees with the name.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import register
from repro.lint.rules.common import (
    StructConst,
    dotted_name,
    nearest_enclosing,
    parent_map,
    safe_calcsize,
)

_READ_METHODS = {"read", "peek"}
_HELPER_RE = re.compile(r"^(read|write)_([uif])(8|16|32|64)$")
_WIDTH_CONST_RE = re.compile(r"^[UIF](8|16|32|64)$")


@register
class StructWidthMismatch:
    id = "ND004"
    summary = "struct format size disagrees with the bytes read/declared"

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.is_test_file:
            return
        env = module.const_env
        yield from self._check_width_constants(module)
        parents = parent_map(module.tree)
        reads_cache: dict[ast.AST, dict[str, ast.Call]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_width_helper(module, node)
            elif isinstance(node, ast.Call):
                scope = (
                    nearest_enclosing(
                        parents, node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    or module.tree
                )
                if scope not in reads_cache:
                    reads_cache[scope] = self._single_assignment_reads(scope)
                yield from self._check_unpack(
                    module, env, node, reads_cache[scope]
                )

    # -- unpack-vs-read size -----------------------------------------

    def _check_unpack(
        self,
        module: ModuleFile,
        env,
        call: ast.Call,
        local_reads: dict[str, ast.Call],
    ) -> Iterator[Finding]:
        expected: int | None = None
        fmt_repr = ""
        buf_node: ast.expr | None = None
        name = dotted_name(call.func, env.imports)
        if name == "struct.unpack" and len(call.args) == 2:
            fmt = env.eval(call.args[0])
            if not isinstance(fmt, str):
                return
            expected = safe_calcsize(fmt)
            fmt_repr = repr(fmt)
            buf_node = call.args[1]
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "unpack"
            and len(call.args) == 1
        ):
            struct_const = env.eval(call.func.value)
            if not isinstance(struct_const, StructConst):
                return
            expected = struct_const.size
            fmt_repr = repr(struct_const.format)
            buf_node = call.args[0]
        if expected is None or buf_node is None:
            return
        read_call = self._as_read_call(buf_node, local_reads)
        if read_call is None or len(read_call.args) < 2:
            return
        actual = env.eval(read_call.args[1])
        if isinstance(actual, int) and actual != expected:
            yield module.finding(
                self.id,
                call,
                f"format {fmt_repr} decodes {expected} bytes but the "
                f"device read fetches {actual}",
            )

    @staticmethod
    def _as_read_call(
        node: ast.expr, local_reads: dict[str, ast.Call]
    ) -> ast.Call | None:
        if isinstance(node, ast.Name):
            return local_reads.get(node.id)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _READ_METHODS
        ):
            return node
        return None

    @staticmethod
    def _single_assignment_reads(func: ast.AST) -> dict[str, ast.Call]:
        """Locals assigned exactly once, from a device read call."""
        assigned: dict[str, ast.Call | None] = {}
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id in assigned:
                    assigned[target.id] = None  # reassigned: ambiguous
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in _READ_METHODS
                ):
                    assigned[target.id] = value
                else:
                    assigned[target.id] = None
        return {k: v for k, v in assigned.items() if v is not None}

    # -- fixed-width helper bodies ------------------------------------

    def _check_width_helper(
        self, module: ModuleFile, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        match = _HELPER_RE.match(func.name)
        if not match:
            return
        declared = int(match.group(3)) // 8
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("read_uint", "write_uint")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, int)
            ):
                used = node.args[1].value
                if used != declared:
                    yield module.finding(
                        self.id,
                        node,
                        f"helper '{func.name}' declares a {declared}-byte "
                        f"field but calls {node.func.attr} with width {used}",
                    )

    # -- width-named Struct constants ---------------------------------

    def _check_width_constants(self, module: ModuleFile) -> Iterator[Finding]:
        for node in module.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            match = _WIDTH_CONST_RE.match(target.id)
            if not match:
                continue
            value = module.const_env.eval(node.value)
            if isinstance(value, StructConst):
                declared = int(match.group(1)) // 8
                if value.size != declared:
                    yield module.finding(
                        self.id,
                        node,
                        f"constant '{target.id}' implies {declared} bytes "
                        f"but format {value.format!r} packs {value.size}",
                    )

