"""ND014: observability value flowing into a charging sink.

The span tracer, the always-on metrics registry and the structured
event journal (reached through :func:`repro.obs.recorder.current`) are
*observational*: recording into them is free anywhere, and the flight
recorder persists them at zero charged nanoseconds.  That contract only
holds if the flow is one-way -- a value read back out of the
observability layer (a counter value, a registry snapshot, a journal
length, a span total) must never reach
the charging paths: ``clock.advance(...)``, any ``charge*`` helper, or
a store into a ``*_ns`` attribute.  One such flow and turning metrics
off changes simulated time, which breaks the bit-identity guarantee the
whole subsystem is pinned on.

The rule rides the same interprocedural taint engine as ND010
(:mod:`repro.lint.analysis.dataflow`): calls resolving into the
observability modules are ``metrics``-labelled sources, labels propagate
through assignments, containers, control flow, and resolved callee
summaries, and a labelled value meeting a charging sink is the finding::

    from repro.obs.recorder import current

    reg = current().registry
    seen = reg.snapshot()["counters"]["ntadoc_runs_total"]
    clock.advance(seen * 10.0)          # ND014: charging sees a metric

while ``observe("ntadoc_task_ns", total_ns)`` stays silent -- feeding
the registry is the legitimate direction.

Findings are reported in the function where the tainted value meets the
sink, with the provenance chain naming the cross-function hops.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Finding, ModuleFile
from repro.lint.rules import register


@register
class MetricsTaint:
    id = "ND014"
    summary = "observability value flows into a charging sink"

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.is_test_file:
            return
        project = module.project
        if project is None:
            return
        local = {
            info.qname for info in project.functions_in(module)
        }
        taint = project.taint
        for qname in sorted(taint.source_hits):
            if qname not in local:
                continue
            seen: set[tuple[int, int]] = set()
            for hit in taint.source_hits[qname]:
                label = hit.label
                if label.kind != "metrics":
                    continue
                key = (hit.line, hit.col)
                if key in seen:
                    continue
                seen.add(key)
                detail = f"{label.desc} at {label.origin}"
                if label.chain:
                    detail += f", {' -> '.join(label.chain)}"
                yield module.finding_at(
                    self.id,
                    hit.line,
                    hit.col,
                    f"value read from the metrics/event registry ({detail}) "
                    f"reaches charging sink {hit.sink}; observability is "
                    "one-way -- simulated cost must never depend on "
                    "recorded metrics",
                )
