"""Observability: span tracing, always-on metrics, events, snapshots.

The package is deliberately light so hot modules can import it without
cost: :mod:`repro.obs.recorder` holds an engine's :class:`Recorder` and
the one active slot every instrumentation helper reads,
:mod:`repro.obs.tracer` the span tracer and the ``span``/``op``/
``traced_op`` helpers, :mod:`repro.obs.metrics` the always-on metrics
registry (counters, gauges, the one power-of-two histogram),
:mod:`repro.obs.events` the structured event journal,
:mod:`repro.obs.export` the Chrome trace-event exporter and span
aggregation, :mod:`repro.obs.snapshot` the canonical perf snapshot and
its tolerance-band diff.  See docs/observability.md.
"""

from repro.obs.events import Event, EventJournal
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import Recorder, attached, current
from repro.obs.tracer import Span, Tracer, traced_op

__all__ = [
    "Counter",
    "Event",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "Span",
    "Tracer",
    "attached",
    "current",
    "traced_op",
]
