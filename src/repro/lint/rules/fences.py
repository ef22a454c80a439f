"""Fences: names that only their owning modules may use.

A fence says "this name, outside these modules, is a finding".  Each
row of :data:`FENCES` is one fence: the rule id it reports as, the names
it matches and how, the paths allowed to use them, and the message.
ND001, ND007, ND012 and ND013 are fences; test code, where uncharged
inspection is the point, is exempt from every one.  One AST walk per
module checks the whole table (see :func:`_scan`), and each rule id then
reports its own rows.

Two checks are not fences and sit beside the table as predicates in the
same walk: ND007's per-element codec loop and ND013's
``retire_segment`` outside a ``transaction()`` block.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass
from typing import Iterator

from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import add_rule
from repro.lint.rules.common import NOT_A_TX, transaction_target

#: The accounting layer itself (``nvm/memory.py``), the flight recorder
#: (``nvm/flightrec.py``, whose whole contract is that recording is
#: uncharged and invisible to accounting -- bit-identity tests pin it,
#: and ND014 fences its outputs away from charging sinks) and the
#: bulk-kernel package, whose charge-from-plan contract pairs every
#: zero-copy view with an explicit charge.  The scalar reference loops
#: here are the spec the kernels replicate.  An entry ending in ``/``
#: allows every file in a package.
DEVICE_LAYER = (
    "repro/nvm/memory.py",
    "repro/nvm/flightrec.py",
    "repro/kernels/",
)


def allowed_in(module: ModuleFile, paths: tuple[str, ...]) -> bool:
    """Whether ``module`` ends with a listed file or sits in a listed package."""
    return any(
        path in module.rel if path.endswith("/") else module.rel.endswith(path)
        for path in paths
    )


@dataclass(frozen=True)
class Fence:
    rule: str
    #: ``"attr"`` matches any ``x.name``; ``"call"`` a ``x.name(...)``
    #: call; ``"view"`` a ``name(...)`` or ``x.name(...)`` call with a
    #: ``_buf`` expression among its arguments.
    shape: str
    names: tuple[str, ...]
    allowed: tuple[str, ...]
    #: Formatted with the matched ``name``.
    message: str

    def match(self, node: ast.AST) -> str | None:
        """The fenced name ``node`` uses, if any."""
        if self.shape == "attr":
            if isinstance(node, ast.Attribute) and node.attr in self.names:
                return node.attr
            return None
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.names:
            name = func.attr
        elif self.shape == "view" and isinstance(func, ast.Name) and (
            func.id in self.names
        ):
            name = func.id
        else:
            return None
        if self.shape == "view" and not any(map(_mentions_buf, node.args)):
            return None
        return name


FENCES = (
    # ND001: every byte that touches a simulated device must flow through
    # the accounted SimulatedMemory accessors, so the shared clock, the
    # line cache and the wear ledger stay truthful -- that accounting *is*
    # the experiment.  ``peek``/``poke`` (the explicitly uncharged escape
    # hatch) and direct ``_buf`` indexing read or mutate device state at
    # zero cost, which skews every figure built on the run.
    Fence(
        "ND001",
        "attr",
        ("_buf",),
        DEVICE_LAYER,
        "direct access to the device buffer '_buf' bypasses cost "
        "accounting; use the SimulatedMemory read/write accessors",
    ),
    Fence(
        "ND001",
        "call",
        ("peek", "poke"),
        DEVICE_LAYER,
        "uncharged raw accessor '{name}()' outside the accounting layer; "
        "use read/write (or move the code into tests)",
    ),
    # ND007: only the kernel package may build zero-copy views over the
    # device buffer, because it pairs each one with a charge-from-plan
    # block.  A view built anywhere else reads or writes device state at
    # zero simulated cost.
    Fence(
        "ND007",
        "view",
        ("memoryview",),
        DEVICE_LAYER,
        "zero-copy view '{name}(..._buf...)' outside repro/kernels/ "
        "bypasses the charge-from-plan contract; move the kernel into "
        "repro.kernels",
    ),
    # ND012: with media_protect on, the verified read path is what turns
    # silent media decay into a typed MediaError.  ``read_unverified`` /
    # ``NvmPool.unverified_read`` skip it -- the escape hatch the
    # MediaGuard needs to read its own (unsealed) seal table and scan
    # damaged chunks without recursing.  Anywhere else the caller
    # consumes flipped bits, and the faultsweep's "never a silent wrong
    # answer" guarantee dies; raw scans belong next to the guard.
    Fence(
        "ND012",
        "call",
        ("read_unverified", "unverified_read"),
        ("repro/nvm/",),
        "'{name}()' skips CRC seal verification outside repro/nvm/; "
        "corrupted media would be consumed silently -- use the verified "
        "read accessors (or move the scan into the guard layer)",
    ),
    # ND013: a pool-v4 segment extent is one segment's private media: the
    # segment writer fills it at seal time and the compactor replaces it,
    # both through SegmentedEngine (repro/ingest/) over the pool that
    # implements them (repro/nvm/).  Any other caller bypasses the
    # manifest protocol -- directory and manifest drift apart, and the
    # crashsweep's "pre- or post-compaction set, never a mix" dies.
    Fence(
        "ND013",
        "call",
        ("create_segment", "segment_pool", "retire_segment"),
        ("repro/ingest/", "repro/nvm/"),
        "'{name}()' outside the segment layer (repro/ingest/, "
        "repro/nvm/): segment extents belong to their owning writer and "
        "the compactor; go through SegmentedEngine",
    ),
)

# ND007's second check keeps kernel adopters honest about the wall-clock
# half of the contract: a module importing repro.kernels has bulk typed
# transfers (read_array/write_array/typed_array), so a per-element
# ``struct.pack``/``int.to_bytes`` loop there is a hot-path regression.
_PACK_LOOP_MESSAGE = (
    "per-element '{name}' loop in a module that imports repro.kernels; "
    "use the bulk typed kernels (read_array/write_array/typed_array)"
)

# ND013's second check holds even inside the segment layer: retirement
# frees the extent for wear-aware reuse, so outside the undo log a crash
# between the directory flush and the manifest commit strands a
# half-retired directory (the seal-new-then-retire-old ordering of
# SegmentedEngine.compact).
_RETIRE_MESSAGE = (
    "'retire_segment()' outside a transaction() block: a crash here "
    "strands a half-retired directory; retire old segments inside the "
    "manifest-commit transaction"
)


def _mentions_buf(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "_buf"
        for sub in ast.walk(node)
    )


def _per_element_pack(node: ast.AST) -> str | None:
    """Qualified name when ``node`` is a scalar codec call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "to_bytes":
        return "to_bytes"
    # Only the module-level struct.pack; Struct-object .pack calls
    # (fixed headers) are single-record, not per-element loops.
    if (
        func.attr == "pack"
        and isinstance(func.value, ast.Name)
        and func.value.id == "struct"
    ):
        return "struct.pack"
    return None


def _is_retire(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "retire_segment"
    )


#: The engine runs each fence rule on a module in turn; keyed weakly by
#: module, the four ids share one walk and nothing outlives the run.
_SCANS: "weakref.WeakKeyDictionary[ModuleFile, list[Finding]]" = (
    weakref.WeakKeyDictionary()
)


def _scan(module: ModuleFile) -> list[Finding]:
    """Every fence and predicate finding in ``module``, from one walk."""
    if module not in _SCANS:
        _SCANS[module] = [] if module.is_test_file else list(_walk(module))
    return _SCANS[module]


def _walk(module: ModuleFile) -> Iterator[Finding]:
    fences = [fence for fence in FENCES if not allowed_in(module, fence.allowed)]
    pack_loops = not allowed_in(module, DEVICE_LAYER) and any(
        qual.startswith("repro.kernels") for qual in module.import_table.values()
    )
    logged: set[int] = set()  # ids of calls inside a transaction block
    packed: set[int] = set()  # ids of codec calls already reported
    for node in ast.walk(module.tree):
        # A walk reaches a with-statement before anything in its body.
        if isinstance(node, (ast.With, ast.AsyncWith)) and (
            transaction_target(node) is not NOT_A_TX
        ):
            logged.update(
                id(sub)
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Call)
            )
        # A predicate finding replaces its rule's fence finding here.
        replaced = None
        if _is_retire(node) and id(node) not in logged:
            yield module.finding("ND013", node, _RETIRE_MESSAGE)
            replaced = "ND013"
        elif pack_loops and isinstance(node, (ast.For, ast.While)):
            # A call inside nested loops is reported once, by the outermost.
            for sub in ast.walk(node):
                name = _per_element_pack(sub)
                if name is not None and id(sub) not in packed:
                    packed.add(id(sub))
                    yield module.finding(
                        "ND007", sub, _PACK_LOOP_MESSAGE.format(name=name)
                    )
        for fence in fences:
            name = fence.match(node)
            if name is not None and fence.rule != replaced:
                yield module.finding(
                    fence.rule, node, fence.message.format(name=name)
                )


@dataclass(frozen=True)
class FenceRule:
    id: str
    summary: str

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        return (f for f in _scan(module) if f.rule == self.id)


for _rule in (
    FenceRule(
        "ND001",
        "raw device access (peek/poke/_buf) outside the accounting layer",
    ),
    FenceRule(
        "ND007",
        "zero-copy device views outside repro/kernels, or per-element "
        "codec loops in kernel-adopting modules",
    ),
    FenceRule(
        "ND012", "unverified device/pool reads outside the NVM guard layer"
    ),
    FenceRule(
        "ND013",
        "segment extents may only be touched by their owning writer or "
        "the compactor inside a transaction",
    ),
):
    add_rule(_rule)
