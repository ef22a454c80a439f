"""ND002: unlogged device writes inside a transaction block.

Operation-level persistence (the libpmemobj analog of SectionIV-E) is
only atomic because every mutation inside ``TransactionLog.transaction()``
persists an undo record *before* the data write.  A direct
``mem.write(...)`` inside the block silently skips the log: the write
neither rolls back on abort nor pays the log's write amplification --
the exact quantity the paper measures as the Fig.5a/5b gap.

Inside a ``with <log>.transaction() as tx:`` block, only ``tx.write``
(or other methods of the transaction handle) may mutate the pool.

With the whole-program summaries available, the rule also catches the
*indirect* form: a call inside the block to a resolved project function
whose effect summary records device writes (``helper(mem, off)`` where
``helper`` ends in ``mem.write(...)``).  The finding carries the call
chain down to the actual write.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleFile, iter_calls
from repro.lint.rules import register
from repro.lint.rules.common import NOT_A_TX, leftmost_name, transaction_target

#: SimulatedMemory/pool mutators that bypass the undo log.
WRITE_METHODS = {
    "write",
    "write_uint",
    "fill",
    "rmw_add",
    "rmw_add_each",
    "poke",
}

#: Module-level write helpers (repro.pstruct.layout) take the memory as
#: their first argument, so they bypass the log just the same.
_WRITE_PREFIX = "write_"


@register
class UnloggedTransactionWrite:
    id = "ND002"
    summary = "device write inside a transaction() block bypasses the undo log"

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.is_test_file:
            return
        sites = (
            module.project.sites_by_call_node(module)
            if module.project is not None
            else {}
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            tx_name = transaction_target(node)
            if tx_name is not NOT_A_TX:
                yield from self._check_block(module, node, tx_name, sites)

    def _check_block(
        self,
        module: ModuleFile,
        block: ast.With | ast.AsyncWith,
        tx: str | None,
        sites: dict[int, object],
    ) -> Iterator[Finding]:
        for stmt in block.body:
            for call in iter_calls(stmt):
                if tx is not None and leftmost_name(call.func) == tx:
                    continue  # tx.write(...) is the logged path
                name = self._write_callee(call)
                if name is not None:
                    yield module.finding(
                        self.id,
                        call,
                        f"'{name}' inside a transaction() block bypasses "
                        "the undo log; route the mutation through the "
                        "transaction handle's write()",
                    )
                    continue
                yield from self._check_callee_writes(module, call, sites)

    def _check_callee_writes(
        self, module: ModuleFile, call: ast.Call, sites: dict[int, object]
    ) -> Iterator[Finding]:
        """Indirect form: a resolved callee whose summary writes the device."""
        site = sites.get(id(call))
        if site is None or site.callee is None:
            return
        summary = module.project.effect_summary(site.callee)
        if not summary.device_writes:
            return
        write = summary.device_writes[0]
        detail = f"{write.method}() at {write.origin}"
        if write.chain:
            detail += f" via {' -> '.join(write.chain)}"
        yield module.finding(
            self.id,
            call,
            f"'{site.name}' inside a transaction() block performs an "
            f"unlogged device write ({detail}); route the mutation "
            "through the transaction handle",
        )

    @staticmethod
    def _write_callee(call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in WRITE_METHODS or attr.startswith(_WRITE_PREFIX):
                return attr
        elif isinstance(call.func, ast.Name):
            if call.func.id.startswith(_WRITE_PREFIX):
                return call.func.id
        return None
