"""Always-on deterministic metrics registry (counters, gauges, histograms).

The registry is the cheap, always-on sibling of the span tracer
(:mod:`repro.obs.tracer`): where spans record a *tree* for one profiled
run, metrics accumulate flat named aggregates across every run of an
engine -- faults corrected, scrub retries, compactions, cache hit
counts, per-task latency distributions.  Three instrument kinds:

* :class:`Counter` -- monotone float, ``inc`` only.
* :class:`Gauge` -- last-write-wins float, ``set``/``add``.
* :class:`Histogram` -- power-of-two bucket histogram with exact
  rank-based percentile readout (bucket *k* counts observations in
  ``[2^(k-1), 2^k)``; bucket 0 collects sub-unit values; bucket
  :data:`OVERFLOW_BUCKET` collects everything at or above ``2**63``).
  It is the repo's one histogram: the tracer's op counters
  (``Tracer.ops``) are histograms too.

Design rules (shared with the tracer, enforced by nvmlint ND014):

* Metric recording NEVER advances the simulated clock and never feeds a
  charging sink -- recording on or off cannot change one charged ns.
* Instrumentation sites call the module-level no-op helpers
  (:func:`inc`, :func:`set_gauge`, :func:`observe`), which record on the
  active recorder's registry (:mod:`repro.obs.recorder`) and cost one
  module-global read and a ``None`` check when none is attached.
* All readouts are deterministic: exposition (:meth:`MetricsRegistry.
  expose`) and snapshots (:meth:`MetricsRegistry.to_json`) emit
  sorted-key, canonically formatted text, byte-identical across
  repeated identical runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.obs import recorder

#: Observations at or above ``2**(OVERFLOW_BUCKET - 1)`` fold into this
#: bucket; its upper edge reads as ``+Inf``.
OVERFLOW_BUCKET = 64

#: Label-set key: sorted ``(key, value)`` pairs, hashable and ordered.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Canonical number rendering: integral floats print as integers."""
    if value != value or value in (math.inf, -math.inf):
        return {math.inf: "+Inf", -math.inf: "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


def bucket_index(value: float) -> int:
    """The power-of-two bucket an observation falls in."""
    if value < 1.0:
        return 0
    return min(int(value).bit_length(), OVERFLOW_BUCKET)


def bucket_upper_edge(bucket: int) -> float:
    """Exclusive upper edge of a bucket (``+Inf`` for the overflow)."""
    if bucket >= OVERFLOW_BUCKET:
        return math.inf
    return float(1 << bucket)


@dataclass
class Counter:
    """Monotone counter."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Power-of-two histogram with exact rank-based percentiles.

    ``buckets[k]`` counts observations in ``[2^(k-1), 2^k)`` (bucket 0:
    ``[0, 1)``; bucket :data:`OVERFLOW_BUCKET`: ``[2^63, inf)``).  The
    percentile readout is *exact over the bucketed data*: it returns the
    upper edge of the bucket holding the rank-selected observation, so
    the true value ``v`` satisfies ``edge / 2 <= v < edge`` for any
    non-overflow bucket above 0.
    """

    name: str
    labels: LabelKey = ()
    count: int = 0
    sum: float = 0.0
    buckets: dict[int, int] = field(default_factory=dict)
    #: Largest observation (0.0 while empty).
    max: float = 0.0

    def observe(self, value: float) -> None:
        if not self.count or value > self.max:
            self.max = value
        self.count += 1
        self.sum += value
        bucket = bucket_index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        """Mean observation (0.0 while empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bucket edge of the rank ``ceil(q/100 * count)`` sample.

        Returns 0.0 for an empty histogram.  ``q`` is a percentage in
        ``[0, 100]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                return bucket_upper_edge(bucket)
        return bucket_upper_edge(max(self.buckets))

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both operands' observations."""
        merged = Histogram(name=self.name, labels=self.labels)
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        merged.max = max(
            (h.max for h in (self, other) if h.count), default=0.0
        )
        merged.buckets = dict(self.buckets)
        for bucket, n in other.buckets.items():
            merged.buckets[bucket] = merged.buckets.get(bucket, 0) + n
        return merged


class MetricsRegistry:
    """Named instruments with deterministic exposition and snapshots.

    One registry normally lives as long as its engine; the engine's
    recorder (:mod:`repro.obs.recorder`) makes it active around each run
    so deep layers (pool, scrub, planner, kernels) can record through
    the module-level helpers without plumbing.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._help: dict[str, str] = {}

    # -- instrument accessors (create on first use) ----------------------

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        if help:
            self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        if help:
            self._help.setdefault(name, help)
        return instrument

    def histogram(self, name: str, help: str = "", **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        if help:
            self._help.setdefault(name, help)
        return instrument

    # -- convenience recording -------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    # -- readout ----------------------------------------------------------

    def expose(self) -> str:
        """Prometheus-style text exposition, byte-deterministic.

        Metric families sort by name; series within a family sort by
        label key.  Histograms expose cumulative ``_bucket`` series with
        ``le`` edges, plus ``_sum`` and ``_count``.
        """
        by_name: dict[str, list[str]] = {}

        def family(name: str, kind: str) -> list[str]:
            lines = by_name.get(name)
            if lines is None:
                lines = by_name[name] = []
                help_text = self._help.get(name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            return lines

        for (name, key), counter in sorted(self._counters.items()):
            family(name, "counter").append(
                f"{name}{_format_labels(key)} {_format_value(counter.value)}"
            )
        for (name, key), gauge in sorted(self._gauges.items()):
            family(name, "gauge").append(
                f"{name}{_format_labels(key)} {_format_value(gauge.value)}"
            )
        for (name, key), hist in sorted(self._histograms.items()):
            lines = family(name, "histogram")
            cumulative = 0
            for bucket in sorted(hist.buckets):
                cumulative += hist.buckets[bucket]
                edge = _format_value(bucket_upper_edge(bucket))
                le_key = key + (("le", edge),)
                lines.append(
                    f"{name}_bucket{_format_labels(le_key)} {cumulative}"
                )
            inf_key = key + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{_format_labels(inf_key)} {hist.count}")
            lines.append(f"{name}_sum{_format_labels(key)} {_format_value(hist.sum)}")
            lines.append(f"{name}_count{_format_labels(key)} {hist.count}")
        out: list[str] = []
        for name in sorted(by_name):
            out.extend(by_name[name])
        return "\n".join(out) + ("\n" if out else "")

    def snapshot(self) -> dict:
        """Sorted-key JSON-ready snapshot of every instrument."""

        def series_key(name: str, key: LabelKey) -> str:
            return f"{name}{_format_labels(key)}"

        counters = {
            series_key(name, key): counter.value
            for (name, key), counter in self._counters.items()
        }
        gauges = {
            series_key(name, key): gauge.value
            for (name, key), gauge in self._gauges.items()
        }
        histograms = {}
        for (name, key), hist in self._histograms.items():
            histograms[series_key(name, key)] = {
                "count": hist.count,
                "sum": hist.sum,
                "buckets": {str(b): n for b, n in sorted(hist.buckets.items())},
                "p50": hist.percentile(50.0),
                "p99": hist.percentile(99.0),
            }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def to_json(self) -> str:
        """Canonical JSON snapshot: sorted keys, trailing newline."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# No-op instrumentation helpers (they record on the active recorder's registry)
# ---------------------------------------------------------------------------


def inc(name: str, amount: float = 1.0, **labels: str) -> None:
    """Increment a counter on the active registry; no-op when none."""
    active = recorder._ACTIVE
    if active is not None and active.registry is not None:
        active.registry.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the active registry; no-op when none."""
    active = recorder._ACTIVE
    if active is not None and active.registry is not None:
        active.registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation on the active registry; no-op."""
    active = recorder._ACTIVE
    if active is not None and active.registry is not None:
        active.registry.observe(name, value, **labels)
