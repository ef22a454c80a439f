"""ND007: bulk-kernel contract violations.

The ``repro.kernels`` package is the *only* layer allowed to build
zero-copy ``memoryview`` views over the simulated device buffer: every
such view bypasses the accounted accessors, so the kernel package pairs
each one with an explicit charge-from-plan block.
A view constructed anywhere else has no such pairing and silently reads
or writes device state at zero simulated cost.

The second check keeps adopters honest about the *wall-clock* half of
the contract: a module that imports ``repro.kernels`` has bulk typed
transfers available (``read_array``/``write_array``/``typed_array``),
so a per-element ``struct.pack``/``int.to_bytes`` codec loop in such a
module is a hot-path regression waiting to happen -- either use the
bulk kernel or keep the module off the kernel layer.

Whitelisted: the kernel package itself, the accounting layer
(ND001's allow-list, whose scalar reference loops are the spec the
kernels replicate), and test code.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import register
from repro.lint.rules.nd001_raw_access import ALLOWED_SUFFIXES, in_allowed_package

_VIEW_BUILDERS = ("memoryview",)

_PACK_CALLS = ("pack", "to_bytes")


def _mentions_buf(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "_buf"
        for sub in ast.walk(node)
    )


def _is_view_call(node: ast.Call) -> str | None:
    """Name of the view builder when ``node`` constructs a buffer view."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _VIEW_BUILDERS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _VIEW_BUILDERS:
        return func.attr
    return None


def _is_per_element_pack(node: ast.Call) -> str | None:
    """Qualified name when ``node`` is a scalar codec call."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _PACK_CALLS:
        return None
    if func.attr == "pack":
        # Only the module-level struct.pack; Struct-object .pack calls
        # (fixed headers) are single-record, not per-element loops.
        if isinstance(func.value, ast.Name) and func.value.id == "struct":
            return "struct.pack"
        return None
    return "to_bytes"


@register
class KernelContract:
    id = "ND007"
    summary = (
        "zero-copy device views outside repro/kernels, or per-element "
        "codec loops in kernel-adopting modules"
    )

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if (
            module.is_test_file
            or module.rel_endswith(*ALLOWED_SUFFIXES)
            or in_allowed_package(module)
        ):
            return
        uses_kernels = any(
            qual.startswith("repro.kernels")
            for qual in module.import_table.values()
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                builder = _is_view_call(node)
                if builder is not None and any(
                    _mentions_buf(arg) for arg in node.args
                ):
                    yield module.finding(
                        self.id,
                        node,
                        f"zero-copy view '{builder}(..._buf...)' outside "
                        "repro/kernels/ bypasses the charge-from-plan "
                        "contract; move the kernel into repro.kernels",
                    )
            elif uses_kernels and isinstance(node, (ast.For, ast.While)):
                for sub in ast.walk(node):
                    if sub is node or not isinstance(sub, ast.Call):
                        continue
                    name = _is_per_element_pack(sub)
                    if name is not None:
                        yield module.finding(
                            self.id,
                            sub,
                            f"per-element '{name}' loop in a module that "
                            "imports repro.kernels; use the bulk typed "
                            "kernels (read_array/write_array/typed_array)",
                        )
