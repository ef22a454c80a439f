"""Canonical perf snapshots and their tolerance-band diff (the CI gate).

A *snapshot* is a sorted-key JSON document derived from one traced run:
total simulated ns, per-span-path timing and traffic aggregates, op
counters, and final per-device stats.  Everything in it is deterministic
(wall times are deliberately excluded), so the same workload always
produces the same bytes -- which is what makes a committed baseline
under ``benchmarks/baselines/`` meaningful.

:func:`diff_snapshots` compares a run against a baseline with tolerance
bands: a metric regresses when it exceeds the baseline by more than the
relative tolerance AND an absolute floor (so microscopic spans cannot
trip the gate on rounding).  Span paths present in the baseline but
missing from the new run fail the gate too -- a silently vanished phase
is as suspicious as a slow one.  New paths and improvements are
reported, not failed; refresh the baseline deliberately when they are
intentional (``ntadoc run ... --profile --snapshot-out <baseline>``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.export import aggregate_spans

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

SNAPSHOT_VERSION = 1

#: Ignore sim-ns drifts below this many absolute nanoseconds.
DEFAULT_ABS_NS = 2000.0
#: Ignore byte-traffic drifts below this many absolute bytes.
DEFAULT_ABS_BYTES = 4096


def build_snapshot(
    tracer: "Tracer", workload: Any = None
) -> dict[str, Any]:
    """Derive the canonical perf snapshot from a traced run."""
    spans = {}
    for path, entry in aggregate_spans(tracer).items():
        spans[path] = {
            "count": entry["count"],
            "sim_ns": round(entry["sim_ns"], 1),
            "self_sim_ns": round(entry["self_sim_ns"], 1),
            "bytes_read": entry["bytes_read"],
            "bytes_written": entry["bytes_written"],
            "flush_ops": entry["flush_ops"],
        }
    ops = {
        name: {"count": stats.count, "sim_ns": round(stats.sum, 1)}
        for name, stats in tracer.ops.items()
    }
    devices: dict[str, dict[str, float]] = {}
    for root in tracer.roots:
        for device, cum in root.device_cum.items():
            # The last root's cumulative counters are the run's totals.
            devices[device] = {
                key: round(value, 1) if isinstance(value, float) else value
                for key, value in cum.items()
            }
    return {
        "version": SNAPSHOT_VERSION,
        "workload": workload or {},
        "total_sim_ns": round(tracer.total_sim_ns(), 1),
        "spans": spans,
        "ops": ops,
        "devices": devices,
    }


def dumps(snapshot: dict[str, Any]) -> str:
    """Canonical text form: sorted keys, stable indentation."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def save(snapshot: dict[str, Any], path: str | Path) -> int:
    """Write the canonical snapshot JSON to ``path``; returns byte size."""
    text = dumps(snapshot)
    Path(path).write_text(text, encoding="utf-8")
    return len(text)


def load(path: str | Path) -> dict[str, Any]:
    """Read a snapshot written by :func:`save`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


@dataclass
class DiffEntry:
    """One metric that moved outside (or notably inside) the band."""

    key: str
    base: float
    new: float

    @property
    def ratio(self) -> float:
        return self.new / self.base if self.base else float("inf")


@dataclass
class SnapshotDiff:
    """Outcome of comparing a snapshot against a baseline."""

    regressions: list[DiffEntry] = field(default_factory=list)
    improvements: list[DiffEntry] = field(default_factory=list)
    #: Span paths in the baseline but absent from the new run (gate fail).
    missing: list[str] = field(default_factory=list)
    #: Span paths in the new run but absent from the baseline (reported).
    added: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing


def _compare(
    diff: SnapshotDiff,
    key: str,
    base: float,
    new: float,
    rel_tol: float,
    abs_floor: float,
) -> None:
    if new > base * (1 + rel_tol) and new - base > abs_floor:
        diff.regressions.append(DiffEntry(key=key, base=base, new=new))
    elif new < base * (1 - rel_tol) and base - new > abs_floor:
        diff.improvements.append(DiffEntry(key=key, base=base, new=new))


def diff_snapshots(
    base: dict[str, Any],
    new: dict[str, Any],
    rel_tol: float = 0.10,
    abs_ns: float = DEFAULT_ABS_NS,
    abs_bytes: int = DEFAULT_ABS_BYTES,
) -> SnapshotDiff:
    """Compare ``new`` against the ``base``line with tolerance bands.

    Gated metrics: total simulated ns, each shared span path's inclusive
    simulated ns, and its bytes written (write amplification shows up
    there).  Op-counter sim ns are gated with the same band; op *counts*
    only produce notes (a count change usually accompanies an
    intentional code change).
    """
    diff = SnapshotDiff()
    if base.get("workload") != new.get("workload"):
        diff.notes.append(
            f"workloads differ: baseline {base.get('workload')} "
            f"vs run {new.get('workload')}"
        )
    _compare(
        diff,
        "total_sim_ns",
        float(base.get("total_sim_ns", 0.0)),
        float(new.get("total_sim_ns", 0.0)),
        rel_tol,
        abs_ns,
    )
    base_spans = base.get("spans", {})
    new_spans = new.get("spans", {})
    for path in sorted(base_spans):
        if path not in new_spans:
            diff.missing.append(path)
            continue
        _compare(
            diff,
            f"span:{path}:sim_ns",
            float(base_spans[path].get("sim_ns", 0.0)),
            float(new_spans[path].get("sim_ns", 0.0)),
            rel_tol,
            abs_ns,
        )
        _compare(
            diff,
            f"span:{path}:bytes_written",
            float(base_spans[path].get("bytes_written", 0)),
            float(new_spans[path].get("bytes_written", 0)),
            rel_tol,
            abs_bytes,
        )
    diff.added = sorted(path for path in new_spans if path not in base_spans)
    base_ops = base.get("ops", {})
    new_ops = new.get("ops", {})
    for name in sorted(base_ops):
        if name not in new_ops:
            diff.notes.append(f"op counter {name!r} disappeared")
            continue
        _compare(
            diff,
            f"op:{name}:sim_ns",
            float(base_ops[name].get("sim_ns", 0.0)),
            float(new_ops[name].get("sim_ns", 0.0)),
            rel_tol,
            abs_ns,
        )
        if base_ops[name].get("count") != new_ops[name].get("count"):
            diff.notes.append(
                f"op counter {name!r} count changed: "
                f"{base_ops[name].get('count')} -> {new_ops[name].get('count')}"
            )
    return diff


def format_diff(diff: SnapshotDiff, rel_tol: float = 0.10) -> str:
    """Human-readable diff report (signed deltas; exit-status summary)."""
    from repro.metrics.report import format_ns

    lines: list[str] = []
    if diff.ok:
        lines.append(
            f"snapshot within tolerance (+/-{rel_tol * 100:.0f}%) of baseline"
        )
    else:
        lines.append("snapshot REGRESSED vs baseline:")
    for entry in diff.regressions:
        delta = entry.new - entry.base
        shown = (
            format_ns(delta) if entry.key.endswith("sim_ns") else f"{delta:+.0f} B"
        )
        lines.append(
            f"  REGRESSION {entry.key}: {entry.base:.1f} -> {entry.new:.1f} "
            f"({shown}, {entry.ratio:.2f}x)"
        )
    for path in diff.missing:
        lines.append(f"  MISSING span path {path!r} (present in baseline)")
    for entry in diff.improvements:
        delta = entry.new - entry.base
        shown = (
            format_ns(delta) if entry.key.endswith("sim_ns") else f"{delta:+.0f} B"
        )
        lines.append(f"  improvement {entry.key}: {shown} ({entry.ratio:.2f}x)")
    for path in diff.added:
        lines.append(f"  new span path {path!r} (not in baseline)")
    for note in diff.notes:
        lines.append(f"  note: {note}")
    if not diff.ok:
        lines.append(
            "  refresh the baseline deliberately with "
            "`ntadoc run ... --profile --snapshot-out <baseline>` if intentional"
        )
    return "\n".join(lines)
