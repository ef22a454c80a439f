"""Deterministic, zero-sampling span tracer for the simulated stack.

A :class:`Tracer` records a tree of :class:`Span` objects, each keyed to
*both* clocks -- simulated nanoseconds from the shared
:class:`~repro.nvm.memory.SimulatedClock` and host wall time -- and
captures per-span deltas of every bound device's
:class:`~repro.nvm.stats.MemoryStats` plus the
:class:`~repro.metrics.ledger.MemoryLedger`'s resident bytes.  A span
therefore carries exactly its subtree's bytes read/written, lines
touched, cache hits/misses, and flush traffic.

Design rules (what keeps the tracer safe to thread everywhere):

* The tracer NEVER advances the simulated clock -- it only reads it.
  Tracing on or off cannot change a single charged nanosecond; the
  tier-1 suite pins traced and untraced runs to bit-identical totals.
* Instrumentation sites call the module-level :func:`span` / :func:`op`
  helpers, which are no-ops unless the active recorder
  (:mod:`repro.obs.recorder`) carries a tracer -- the engines set one
  when ``EngineConfig.tracer`` is set.  Off-path overhead is one
  module-global read and a ``None`` check.
* Spans close in ``finally`` blocks, so an exception unwinding through
  the engine (e.g. a :class:`~repro.nvm.faults.CrashPoint` from the
  crash-sweep harness) still leaves a well-formed trace.
* Wall time is read through :func:`repro.metrics.timer.wall_now_s`, the
  repo's single sanctioned wall-clock helper; it is reported next to
  simulated time, never mixed into it.

Op-level counters are the cheap sibling of spans: bulk
persistent-structure operations (``PVector.extend``,
``PHashTable.add_many``, ...) are far too frequent to record
individually, so they aggregate into one
:class:`~repro.obs.metrics.Histogram` (the repo's one power-of-two
histogram) of simulated ns per call via :func:`traced_op` / :func:`op`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.metrics.timer import wall_now_s
from repro.obs import recorder
from repro.obs.metrics import Histogram

if TYPE_CHECKING:
    from repro.metrics.ledger import MemoryLedger
    from repro.nvm.memory import SimulatedClock, SimulatedMemory

#: Stats counters copied into each span's per-device delta.
_STAT_KEYS = (
    "read_ops",
    "write_ops",
    "bytes_read",
    "bytes_written",
    "lines_read",
    "lines_written",
    "cache_hits",
    "cache_misses",
    "writebacks",
    "flush_ops",
    "flushed_lines",
    "device_ns",
    "seal_bytes",
    "scrub_bytes",
)


@dataclass
class Span:
    """One timed region of a run, with device attribution for its subtree."""

    name: str
    category: str = "span"
    depth: int = 0
    sim_start: float = 0.0
    sim_end: float = 0.0
    wall_start_s: float = 0.0
    wall_end_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: Per-device MemoryStats accumulated inside this span (subtree).
    device: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Per-device cumulative MemoryStats at span end (counter tracks).
    device_cum: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Ledger resident-byte delta per device over this span (signed).
    resident: dict[str, int] = field(default_factory=dict)

    @property
    def sim_ns(self) -> float:
        """Simulated nanoseconds spent in this span (subtree-inclusive)."""
        return self.sim_end - self.sim_start

    @property
    def wall_ns(self) -> float:
        """Host wall nanoseconds spent in this span (diagnostics only)."""
        return (self.wall_end_s - self.wall_start_s) * 1e9

    @property
    def self_sim_ns(self) -> float:
        """Simulated nanoseconds not covered by any child span."""
        return self.sim_ns - sum(child.sim_ns for child in self.children)

    def cache_hit_rate(self, device: str) -> float:
        """Fraction of this span's line touches served by ``device``'s cache."""
        stats = self.device.get(device, {})
        total = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
        if not total:
            return 0.0
        return stats.get("cache_hits", 0) / total

    def start(self, clock: "SimulatedClock | None") -> None:
        """Open the interval on ``clock`` (0 when unbound) and the host."""
        self.sim_start = clock.ns if clock is not None else 0.0
        self.wall_start_s = wall_now_s()

    def stop(self, clock: "SimulatedClock | None") -> None:
        """Close the interval opened by :meth:`start`."""
        self.sim_end = clock.ns if clock is not None else 0.0
        self.wall_end_s = wall_now_s()

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Records spans and op counters for one (or more) engine runs.

    Args:
        max_depth: Deepest span nesting level to record; spans opened
            below the limit are skipped (their time folds into the
            nearest recorded ancestor's self time).  ``None`` records
            everything; below 1 is a ``ValueError`` (nothing would be
            recorded).

    The tracer must be *bound* to a run's machinery (clock, device
    memories, ledger) before spans carry device attribution; the engine
    does this when a run starts.  Unbound spans still record wall time
    (simulated readings default to zero), which keeps unit tests and
    ad-hoc use simple.
    """

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, not {max_depth}")
        self.max_depth = max_depth
        self.roots: list[Span] = []
        #: Op name -> histogram of simulated ns per call.
        self.ops: dict[str, Histogram] = {}
        self.meta: dict[str, Any] = {}
        self._stack: list[Span] = []
        #: The bound simulated clock (``None`` until :meth:`bind`).
        self.clock: "SimulatedClock | None" = None
        self._memories: dict[str, "SimulatedMemory"] = {}
        self._ledger: "MemoryLedger | None" = None

    # -- binding ---------------------------------------------------------

    def bind(
        self,
        clock: "SimulatedClock",
        memories: dict[str, "SimulatedMemory"] | None = None,
        ledger: "MemoryLedger | None" = None,
    ) -> None:
        """Attach the simulated machinery whose state spans capture.

        Rebinding (a second engine run reusing one tracer) replaces the
        previous machinery; already-recorded spans are untouched.
        """
        self.clock = clock
        self._memories = dict(memories or {})
        self._ledger = ledger
        for name, memory in self._memories.items():
            self.meta.setdefault("devices", {})[name] = {
                "profile": memory.profile.name,
                "line_size": memory.profile.line_size,
                "size": memory.size,
            }

    def reset(self) -> None:
        """Drop recorded spans and op counters (bindings survive)."""
        self.roots = []
        self.ops = {}
        self._stack = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, category: str = "span", **attrs: Any
    ) -> Iterator[Span | None]:
        """Record one nested span around the ``with`` body.

        Yields the open :class:`Span` (callers may add ``attrs``), or
        ``None`` when the span falls below ``max_depth``.
        """
        if self.max_depth is not None and len(self._stack) >= self.max_depth:
            yield None
            return
        span = Span(
            name=name,
            category=category,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        clock = self.clock
        span.start(clock)
        starts = {
            device: memory.stats.snapshot()
            for device, memory in self._memories.items()
        }
        ledger = self._ledger
        resident_start = ledger.currents() if ledger is not None else None
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.stop(clock)
            for device, memory in self._memories.items():
                delta = memory.stats.delta(starts[device])
                span.device[device] = {
                    key: getattr(delta, key) for key in _STAT_KEYS
                }
                span.device_cum[device] = {
                    key: getattr(memory.stats, key) for key in _STAT_KEYS
                }
            if resident_start is not None and ledger is not None:
                resident_end = ledger.currents()
                span.resident = {
                    device: resident_end.get(device, 0)
                    - resident_start.get(device, 0)
                    for device in set(resident_start) | set(resident_end)
                    if resident_end.get(device, 0)
                    != resident_start.get(device, 0)
                }

    def op(self, name: str, sim_ns: float) -> None:
        """Fold one op-level call into the named histogram."""
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = Histogram(name)
        stats.observe(sim_ns)

    # -- queries ---------------------------------------------------------

    def total_sim_ns(self) -> float:
        """Simulated nanoseconds covered by the root spans."""
        return sum(root.sim_ns for root in self.roots)

    def spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All spans with this exact name, in recording order."""
        return [span for span in self.spans() if span.name == name]


# ---------------------------------------------------------------------------
# No-op instrumentation helpers (they record on the active recorder's tracer)
# ---------------------------------------------------------------------------


@contextmanager
def span(name: str, category: str = "span", **attrs: Any) -> Iterator[Span | None]:
    """Record a span on the active tracer; no-op when none is attached."""
    active = recorder._ACTIVE
    tracer = active.tracer if active is not None else None
    if tracer is None:
        yield None
        return
    with tracer.span(name, category, **attrs) as open_span:
        yield open_span


def op(name: str, sim_ns: float) -> None:
    """Record an op-level observation; no-op when no tracer is attached."""
    active = recorder._ACTIVE
    tracer = active.tracer if active is not None else None
    if tracer is not None:
        tracer.op(name, sim_ns)


def traced_op(name: str) -> Callable:
    """Decorator: aggregate a persistent-structure method as an op counter.

    The wrapped method must live on an object exposing ``self._mem``
    (a :class:`~repro.nvm.memory.SimulatedMemory`); the call's simulated
    ns is measured as a clock delta around the call.  With no tracer
    attached the method is called straight through.
    """

    def decorate(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            active = recorder._ACTIVE
            tracer = active.tracer if active is not None else None
            if tracer is None:
                return method(self, *args, **kwargs)
            clock = self._mem.clock
            start = clock.ns
            result = method(self, *args, **kwargs)
            tracer.op(name, clock.ns - start)
            return result

        return wrapper

    return decorate
