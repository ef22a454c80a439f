"""Flush obligations: a marker persisted with no flush before it.

Phase-level persistence (SectionIV-E) recovers by restarting from the
last *completed* phase, and a commit or checkpoint marker claims that
the data before it is durable.  Both invert silently when the marker is
persisted while its data still sits dirty in the cache -- and flushes
are not atomic (see ``repro.nvm.faults``), so a marker riding the same
flush as its data can land first.  The discipline is mechanical::

    pool.flush()                        # the data reaches media
    phase_persist.complete_phase(name)  # the marker may now claim it

The effect summaries (:mod:`repro.lint.analysis.summaries`) record an
obligation for every marker event no flush dominates, where a flush
issued by a resolved callee counts as a barrier.  An obligation
propagates to the callers of its function, which may discharge it with
a flush of their own, so it is reported only in functions with no known
callers.  Each entry of :data:`OBLIGATIONS` is one obligation kind: the
rule id it reports as, the paths that may carry it, and the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import add_rule


@dataclass(frozen=True)
class ObligationRule:
    id: str
    summary: str
    #: ``Obligation.kind`` this rule reports.
    kind: str
    #: Formatted with the obligation's ``desc``, ``origin`` and ``chain``.
    message: str
    allowed: tuple[str, ...] = ()

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.is_test_file or module.rel_endswith(*self.allowed):
            return
        project = module.project
        if project is None:
            return
        for info in project.functions_in(module):
            owed = [
                ob
                for ob in project.effect_summary(info.qname).obligations
                if ob.kind == self.kind
            ]
            if not owed or project.has_known_callers(info.qname):
                continue
            for ob in owed:
                yield module.finding_at(
                    self.id,
                    ob.line,
                    ob.col,
                    self.message.format(
                        desc=ob.desc, origin=ob.origin, chain=" -> ".join(ob.chain)
                    ),
                )


#: The persistence layer, whose wrappers sit *between* the caller's flush
#: and the marker write, implements the barrier itself.
_PERSIST_LAYER = ("repro/nvm/persist.py",)

OBLIGATIONS = (
    # ND005: a ``complete_phase(...)`` call in this function.
    ObligationRule(
        "ND005",
        "complete_phase() reachable without a preceding flush()",
        "complete_phase",
        "complete_phase() without a dominating flush() (none in this "
        "function or its resolved callees, and no known caller provides "
        "one) persists a checkpoint whose phase data may still be dirty; "
        "flush the pool first",
        _PERSIST_LAYER,
    ),
    # ND006: the same discipline one level lower, at the raw-write layer:
    # a write-style call (write/write_uint/write_u64/poke/...) whose
    # arguments reference a name containing ``marker``.
    ObligationRule(
        "ND006",
        "marker write without a preceding data flush()",
        "marker_write",
        "marker write without a dominating flush() (none in this function "
        "or its resolved callees, and no known caller provides one) can "
        "persist ahead of the data it claims (flushes tear); issue a data "
        "flush barrier first",
        _PERSIST_LAYER,
    ),
    # ND008: the interprocedural altitude -- a call into a chain that ends
    # in a marker event with no flush on any frame between.  The finding
    # sits at the call site in the outermost frame and names every hop,
    # e.g. ``write_uint(<marker>) at a.py:4 via finish() [a.py:7] ->
    # persist_marker() [a.py:3]``.
    ObligationRule(
        "ND008",
        "call chain persists a marker with no dominating flush()",
        "call",
        "this call persists a marker ({desc} at {origin} via {chain}) and "
        "no flush() dominates it anywhere on the chain; issue a data flush "
        "barrier before this call",
    ),
)

for _rule in OBLIGATIONS:
    add_rule(_rule)
