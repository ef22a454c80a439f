"""Structured event journal: typed operational events with severities.

Events are the discrete complement to the metrics registry's
aggregates: "line 412 remapped", "segment seg0003 compacted away",
"txlog replayed 2 transactions on reopen".  Every event carries a
monotone sequence number, the simulated-clock reading at emission, a
type from the stable :data:`EVENT_TYPES` vocabulary, a severity, and a
small JSON-safe detail dict.

One :class:`EventJournal` per engine.  Emission fans out three ways:

* the in-memory journal (``events`` list, canonical JSON readout);
* the metrics registry, when given -- every event increments
  ``ntadoc_events_total{type=...,severity=...}``;
* any extra sinks (the crash-persistent flight recorder,
  :mod:`repro.nvm.flightrec`, registers itself as one).

Like the tracer and the registry, emission never advances the simulated
clock (it only reads it) and never feeds a charging sink -- nvmlint
ND014 checks that claim on every lint run.  Deep layers emit through
the module-level :func:`emit` helper, a no-op unless the active recorder
(:mod:`repro.obs.recorder`) carries a journal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import recorder

if TYPE_CHECKING:
    from repro.nvm.memory import SimulatedClock
    from repro.obs.metrics import MetricsRegistry

#: Severity names in ascending order of urgency.
SEVERITIES = ("debug", "info", "warning", "error")

SEVERITY_LEVELS = {name: level for level, name in enumerate(SEVERITIES)}

#: Stable event vocabulary.  Append-only: the flight recorder stores the
#: 1-based index as an on-media type code, so reordering or deleting an
#: entry would change the meaning of bytes already persisted in old pool
#: images.  Types outside this table are still accepted (they ride the
#: ``custom`` code with the name in the detail payload).
EVENT_TYPES = (
    "engine_start",
    "phase_start",
    "phase_commit",
    "plan_fused",
    "plan_replanned",
    "fault_detected",
    "fault_corrected",
    "line_remapped",
    "line_quarantined",
    "scrub_complete",
    "txlog_recovery",
    "segment_sealed",
    "segment_compacted",
    "segment_retired",
    "reopen",
    "kernel_backend",
    "metrics_snapshot",
    "task_complete",
    "media_recovery",
    "wear_rotation",
)

#: On-media code for event types outside :data:`EVENT_TYPES`.
CUSTOM_TYPE_CODE = 255

EVENT_TYPE_CODES = {name: code for code, name in enumerate(EVENT_TYPES, start=1)}

EVENT_TYPE_NAMES = {code: name for name, code in EVENT_TYPE_CODES.items()}


def type_code(event_type: str) -> int:
    """On-media u8 code for an event type (255 for custom types)."""
    return EVENT_TYPE_CODES.get(event_type, CUSTOM_TYPE_CODE)


def type_name(code: int) -> str:
    """Event-type name for an on-media code (``custom`` when unknown)."""
    return EVENT_TYPE_NAMES.get(code, "custom")


@dataclass(frozen=True)
class Event:
    """One journal entry."""

    seq: int
    type: str
    severity: str
    sim_ns: float
    detail: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "type": self.type,
            "severity": self.severity,
            "sim_ns": self.sim_ns,
            "detail": dict(sorted(self.detail.items())),
        }


class EventJournal:
    """Ordered in-memory event log with metrics and sink fan-out."""

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.events: list[Event] = []
        self._seq = 0
        self._clock: "SimulatedClock | None" = None
        #: Counts every event in ``ntadoc_events_total`` when set.
        self._registry = registry
        self._sinks: list[Callable[[Event], None]] = []

    def bind(self, clock: "SimulatedClock") -> None:
        """Stamp events with ``clock`` from now on.

        Rebinding (a resumed run with a fresh clock) replaces the
        previous clock; already-recorded events are untouched.
        """
        self._clock = clock

    def add_sink(self, sink: Callable[[Event], None]) -> None:
        """Fan emitted events out to ``sink`` (e.g. a flight recorder)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Event], None]) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(
        self, event_type: str, severity: str = "info", **detail: Any
    ) -> Event:
        """Record one event and fan it out to registry and sinks."""
        if severity not in SEVERITY_LEVELS:
            raise ValueError(f"unknown severity: {severity}")
        clock = self._clock
        event = Event(
            seq=self._seq,
            type=event_type,
            severity=severity,
            sim_ns=clock.ns if clock is not None else 0.0,
            detail=detail,
        )
        self._seq += 1
        self.events.append(event)
        registry = self._registry
        if registry is not None:
            registry.inc(
                "ntadoc_events_total", type=event_type, severity=severity
            )
        for sink in self._sinks:
            sink(event)
        return event

    # -- readout ----------------------------------------------------------

    def tail(self, n: int = 20) -> list[Event]:
        """The most recent ``n`` events, oldest first."""
        return self.events[-n:]

    def snapshot(self) -> list[dict[str, Any]]:
        return [event.as_dict() for event in self.events]

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, trailing newline."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# No-op emission helper (it records on the active recorder's journal)
# ---------------------------------------------------------------------------


def emit(event_type: str, severity: str = "info", **detail: Any) -> None:
    """Emit on the active journal; no-op when none is attached."""
    active = recorder._ACTIVE
    if active is not None and active.journal is not None:
        active.journal.emit(event_type, severity, **detail)
