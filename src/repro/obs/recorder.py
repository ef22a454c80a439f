"""The one recording substrate: an engine's recorder and the active slot.

A :class:`Recorder` holds one engine's instruments: the opt-in span
:class:`~repro.obs.tracer.Tracer`, and the always-on
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.events.EventJournal`.  Both engines bind theirs to
their machinery with :meth:`Recorder.bind` and enter it with
:func:`attached` around every run or mutation.  Deep layers record
through the module-level helpers (``span``/``op``/``traced_op``,
``inc``/``set_gauge``/``observe``, ``emit``), which read the one active
slot and do nothing when it is empty or lacks the instrument.  Values
read back through :func:`current` are nvmlint ND014 taint sources: they
must never reach a charging sink.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from repro.metrics.ledger import MemoryLedger
    from repro.nvm.memory import SimulatedClock, SimulatedMemory
    from repro.nvm.pool import NvmPool
    from repro.obs.tracer import Tracer


class Recorder:
    """One engine's instruments.

    Args:
        tracer: Span tracer (``EngineConfig.tracer``); ``None`` records
            no spans or op counters.
        metrics: Keep an always-on registry and an event journal feeding
            it (``EngineConfig.metrics``); ``False`` records neither.
    """

    def __init__(
        self, tracer: "Tracer | None" = None, metrics: bool = False
    ) -> None:
        from repro.obs.events import EventJournal
        from repro.obs.metrics import MetricsRegistry

        self.tracer = tracer
        self.registry: MetricsRegistry | None = None
        self.journal: EventJournal | None = None
        if metrics:
            self.registry = MetricsRegistry()
            self.journal = EventJournal(self.registry)
        self._machinery: tuple | None = None
        self._sink: Callable | None = None

    def bind(
        self,
        clock: "SimulatedClock",
        memories: "dict[str, SimulatedMemory]",
        ledger: "MemoryLedger | None" = None,
        *,
        pool: "NvmPool | None" = None,
        snapshot: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        """Bind the instruments to one run's machinery.

        The tracer reads ``clock``, ``memories`` and ``ledger``; the
        journal stamps events with ``clock``.  Entering the recorder
        (:func:`attached`) re-points them here, so a tracer shared by
        several engines always reads the machinery of the one running.

        Given a ``pool``, also reserve its top-pinned ``__flightrec__``
        region -- with recording on or off, so data placement is the
        same either way -- and, with a journal, install a flight
        recorder over it in place of the previous one (``snapshot``
        fills its per-flush slot).
        """
        self._machinery = (clock, memories, ledger)
        self._point()
        if pool is None:
            return
        from repro.nvm.flightrec import FlightRecorder, reserve_region

        window = reserve_region(pool)
        journal = self.journal
        if journal is None:
            return
        if self._sink is not None:
            journal.remove_sink(self._sink)
            self._sink = None
        if window is None:
            return
        recorder = FlightRecorder(
            pool.memory, *window, snapshot_provider=snapshot
        )
        pool.memory.attach_flight_recorder(recorder)
        self._sink = recorder.record
        journal.add_sink(recorder.record)

    def _point(self) -> None:
        """Point the tracer and journal at the bound machinery."""
        if self._machinery is None:
            return
        clock, memories, ledger = self._machinery
        if self.tracer is not None:
            self.tracer.bind(clock=clock, memories=memories, ledger=ledger)
        if self.journal is not None:
            self.journal.bind(clock=clock)


# ---------------------------------------------------------------------------
# The one active slot
# ---------------------------------------------------------------------------

_ACTIVE: Recorder | None = None


def current() -> Recorder | None:
    """The recorder entered by the innermost :func:`attached`, if any."""
    return _ACTIVE


@contextmanager
def attached(recorder: Recorder | None) -> Iterator[None]:
    """Make ``recorder`` the active one for the ``with`` body.

    ``None`` is accepted (and does nothing) so callers can pass an
    optional recorder straight through.  Nesting restores the previous
    recorder on exit.
    """
    global _ACTIVE
    if recorder is None:
        yield
        return
    recorder._point()
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield
    finally:
        _ACTIVE = previous
