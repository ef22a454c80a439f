"""Phase timing on the simulated clock (Table II's columns).

The paper breaks analytics time into an *initialization phase* (load the
compressed dataset, build the DAG pool, allocate structures) and a *graph
traversal phase* (propagate weights, collect and persist results).  The
timeline records each phase's interval on the simulated clock, once, as a
``phase:<name>`` :class:`~repro.obs.tracer.Span`.

:func:`wall_now_s` is the repo's single sanctioned wall-clock read: wall
time is only ever reported *next to* simulated time, never mixed into any
simulated figure, so every span (phase records included) routes through
it instead of carrying its own nvmlint suppression.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro.nvm.memory import SimulatedClock
from repro.obs import recorder
from repro.obs import tracer as obs

#: Name prefix of a phase's span.
PHASE_PREFIX = "phase:"


def wall_now_s() -> float:
    """Current host wall-clock reading, in seconds.

    Reading the host clock here cannot skew any simulated figure: the
    value is reported alongside simulated time for diagnostics only.
    The taint engine (ND010) verifies that claim on every lint run --
    this value never flows into a charging sink -- so no suppression is
    needed.
    """
    return time.perf_counter()


@dataclass
class PhaseTimeline:
    """Phase intervals on one simulated clock, one span per phase.

    When the active recorder's tracer reads this clock, a phase's record
    *is* the tracer's root ``phase:<name>`` span, so the tracer's root
    spans partition the timeline's total bit-exactly (the obs layer's
    partition guarantee).  Otherwise the timeline keeps a span of its own.
    """

    clock: SimulatedClock
    #: Closed phase spans, innermost first when phases nest.
    records: list[obs.Span] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase on the simulated clock.

        The record closes in ``finally``: a phase an exception unwinds
        (a media fault the engine recovers from) keeps the time it
        charged, exactly like its span.
        """
        label = PHASE_PREFIX + name
        active = recorder.current()
        tracer = active.tracer if active is not None else None
        if tracer is not None and tracer.clock is not self.clock:
            tracer = None
        opened = (
            tracer.span(label, category="phase")
            if tracer is not None
            else nullcontext()
        )
        with opened as record:
            own = record is None
            if own:
                record = obs.Span(label, category="phase")
                record.start(self.clock)
            try:
                yield
            finally:
                if own:
                    record.stop(self.clock)
                self.records.append(record)

    def items(self, start: int = 0) -> Iterator[tuple[str, float]]:
        """``(phase name, simulated ns)`` per record from ``start`` on."""
        for record in self.records[start:]:
            yield record.name[len(PHASE_PREFIX) :], record.sim_ns

    def sim_ns(self, name: str) -> float:
        """Total simulated time across all phases with this name."""
        return sum(ns for phase, ns in self.items() if phase == name)

    def total_sim_ns(self, start: int = 0) -> float:
        """Total simulated time across the recorded phases from ``start`` on."""
        return sum(record.sim_ns for record in self.records[start:])

    def as_dict(self, start: int = 0) -> dict[str, float]:
        """Phase name -> simulated ns (summed over repeats) from ``start`` on."""
        out: dict[str, float] = {}
        for phase, ns in self.items(start):
            out[phase] = out.get(phase, 0.0) + ns
        return out
