"""Taint flows: a labelled value reaching a charging sink.

The charging paths -- ``clock.advance(...)``, any ``charge*`` helper, a
store into a ``*_ns`` attribute -- must compute simulated cost from
deterministic inputs only.  The interprocedural taint engine
(:mod:`repro.lint.analysis.dataflow`) labels values at their source and
tracks the labels through assignments, containers, control flow and
resolved callee summaries, so a flow through a helper is caught too::

    def charge_io(clock, amount):
        clock.advance(amount)          # sink inside callee

    start = time.time()
    charge_io(clock, start)            # ND010, chain: via charge_io()

while ``wall = time.perf_counter(); report(wall_s=wall)`` stays silent:
the value never reaches a sink.  A finding sits in the function where
the labelled value meets the sink and carries the provenance chain
naming the cross-function hops.  Each entry of :data:`FLOWS` is one rule:
the label kinds it reports, how its message names them, and the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import add_rule


@dataclass(frozen=True)
class FlowRule:
    id: str
    summary: str
    #: Label kind -> how the message names that source.
    sources: Mapping[str, str]
    #: Formatted with the ``source``, the label's ``detail`` and the ``sink``.
    message: str

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.is_test_file:
            return
        project = module.project
        if project is None:
            return
        local = {info.qname for info in project.functions_in(module)}
        taint = project.taint
        for qname in sorted(local.intersection(taint.source_hits)):
            seen: set[tuple[int, int]] = set()
            for hit in taint.source_hits[qname]:
                label = hit.label
                source = self.sources.get(label.kind)
                # A call that is both a bare-name sink and a resolved
                # summary sink produces two hits at one location; keep
                # the first (sorted) one.
                key = (hit.line, hit.col)
                if source is None or key in seen:
                    continue
                seen.add(key)
                detail = f"{label.desc} at {label.origin}"
                if label.chain:
                    detail += f", {' -> '.join(label.chain)}"
                yield module.finding_at(
                    self.id,
                    hit.line,
                    hit.col,
                    self.message.format(source=source, detail=detail, sink=hit.sink),
                )


FLOWS = (
    # ND010: reading the wall clock is legitimate everywhere -- wall time
    # is reported *next to* simulated time.  A wall-clock or entropy read
    # (time.perf_counter(), os.urandom(), uuid.uuid4(), id()) or a
    # set-iteration-order dependent value reaching a charging sink makes
    # every simulated-nanosecond figure irreproducible.
    FlowRule(
        "ND010",
        "nondeterministic value flows into a charging sink",
        {
            "entropy": "wall-clock/entropy read",
            "order": "set-iteration-order dependent value",
        },
        "value derived from a {source} ({detail}) reaches charging sink "
        "{sink}; simulated cost must be computed from deterministic inputs "
        "only",
    ),
    # ND014: the tracer, the metrics registry and the event journal
    # (reached through repro.obs.recorder.current()) are observational --
    # recording is free anywhere and the flight recorder persists them at
    # zero charged ns.  That holds only one way: a value read back out (a
    # counter, a snapshot, a journal length, a span total) reaching a
    # charging sink makes turning metrics off change simulated time, and
    # breaks the bit-identity guarantee the subsystem is pinned on.
    # Feeding the registry (observe("ntadoc_task_ns", total_ns)) is fine.
    FlowRule(
        "ND014",
        "observability value flows into a charging sink",
        {"metrics": "metrics/event registry"},
        "value read from the {source} ({detail}) reaches charging sink "
        "{sink}; observability is one-way -- simulated cost must never "
        "depend on recorded metrics",
    ),
)

for _rule in FLOWS:
    add_rule(_rule)
