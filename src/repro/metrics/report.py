"""Human-readable reports for engine runs (used by the CLI)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.engine import RunResult
from repro.harness.tables import format_table

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


def format_ns(ns: float) -> str:
    """Render simulated nanoseconds with an adaptive unit.

    Sign-preserving: span and snapshot *diffs* are signed, so ``-1500``
    renders as ``-1.5 us``, not ``-1500 ns``.
    """
    sign = "-" if ns < 0 else ""
    magnitude = abs(ns)
    if magnitude >= 1e9:
        return f"{sign}{magnitude / 1e9:.3f} s"
    if magnitude >= 1e6:
        return f"{sign}{magnitude / 1e6:.3f} ms"
    if magnitude >= 1e3:
        return f"{sign}{magnitude / 1e3:.1f} us"
    return f"{sign}{magnitude:.0f} ns"


def format_bytes(n: int) -> str:
    """Render a byte count with an adaptive unit (sign-preserving)."""
    sign = "-" if n < 0 else ""
    magnitude = abs(n)
    if magnitude >= 1 << 30:
        return f"{sign}{magnitude / (1 << 30):.2f} GiB"
    if magnitude >= 1 << 20:
        return f"{sign}{magnitude / (1 << 20):.2f} MiB"
    if magnitude >= 1 << 10:
        return f"{sign}{magnitude / (1 << 10):.1f} KiB"
    return f"{sign}{magnitude} B"


def run_report(run: RunResult) -> str:
    """One run, one block of text."""
    lines = [
        f"task      : {run.task}",
        f"system    : {run.system} (pool on {run.pool_device}, "
        f"{run.strategy} traversal)",
        f"total     : {format_ns(run.total_ns)} simulated",
    ]
    for phase, ns in run.phase_ns.items():
        share = ns / run.total_ns * 100 if run.total_ns else 0.0
        lines.append(f"  {phase:<14s} {format_ns(ns):>12s}  ({share:.0f}%)")
    lines.append(f"DRAM peak : {format_bytes(run.dram_peak)}")
    lines.append(f"pool peak : {format_bytes(run.pool_peak)}")
    if run.pool_stats is not None:
        stats = run.pool_stats
        lines.append(
            f"pool I/O  : {format_bytes(stats.bytes_read)} read, "
            f"{format_bytes(stats.bytes_written)} written, "
            f"cache hit rate {stats.cache_hit_rate * 100:.1f}%"
        )
    return "\n".join(lines)


def plan_report(plan) -> str:
    """One fused multi-task plan, as a per-task attribution table."""
    stats = plan.stats
    passes = ", ".join(
        f"{direction}: {count}"
        for direction, count in sorted(stats.dag_passes.items())
    ) or "none"
    lines = [
        f"plan      : {stats.n_tasks} task(s), "
        f"{stats.pool_builds} pool build(s), DAG passes {passes}, "
        f"{stats.segment_sweeps} segment sweep(s)",
        f"total     : {format_ns(plan.total_ns)} simulated (charged once)",
    ]
    rows = []
    for run in plan.results:
        rows.append(
            [
                run.task,
                format_ns(run.total_ns),
                format_ns(run.shared_ns),
                format_ns(run.exclusive_ns),
            ]
        )
    table = format_table(
        ["task", "attributed", "shared share", "exclusive"],
        rows,
        title="per-task attribution",
    )
    return "\n".join(lines) + "\n" + table


def trace_report(tracer: "Tracer", max_depth: int | None = None) -> str:
    """The span tree as an indented text outline.

    Each line shows the span's simulated time, its share of the trace
    total, its *self* time (simulated time not covered by child spans),
    and the pool traffic attributed to it.
    """
    total = tracer.total_sim_ns() or 1.0
    lines = [f"trace     : {format_ns(tracer.total_sim_ns())} simulated total"]
    for span in tracer.spans():
        if max_depth is not None and span.depth >= max_depth:
            continue
        pool = span.device.get("pool", {})
        io = ""
        read = pool.get("bytes_read", 0)
        written = pool.get("bytes_written", 0)
        if read or written:
            io = (
                f"  [pool r {format_bytes(read)}, "
                f"w {format_bytes(written)}]"
            )
        lines.append(
            f"{'  ' * span.depth}{span.name:<{max(40 - 2 * span.depth, 8)}s}"
            f" {format_ns(span.sim_ns):>12s}"
            f" {span.sim_ns / total * 100:5.1f}%"
            f"  self {format_ns(span.self_sim_ns):>10s}{io}"
        )
    return "\n".join(lines)


def hot_spans_report(tracer: "Tracer", top: int = 15) -> str:
    """Flat hottest-spans table, ranked by *self* simulated time.

    Spans are aggregated by path (identical call sites collapse into one
    row with a count), so repeated per-task spans rank by their total.
    ``moved`` is the span's total device traffic (read + written) and
    ``MB/s`` relates it to the span's simulated time -- the effective
    device throughput the span sustained, which makes transfer-bound
    spans (low MB/s: scattered lines, probe-heavy) stand apart from
    bulk-sequential ones at a glance.
    """
    from repro.obs.export import aggregate_spans

    total = tracer.total_sim_ns() or 1.0
    aggregated = aggregate_spans(tracer)
    ranked = sorted(
        aggregated.items(), key=lambda kv: kv[1]["self_sim_ns"], reverse=True
    )
    rows = []
    for path, agg in ranked[:top]:
        moved = agg["bytes_read"] + agg["bytes_written"]
        if moved and agg["sim_ns"]:
            # bytes per simulated ns == GB per simulated second.
            throughput = f"{moved / agg['sim_ns'] * 1e3:,.1f}"
        else:
            throughput = "-"
        rows.append(
            [
                path,
                str(agg["count"]),
                format_ns(agg["self_sim_ns"]),
                f"{agg['self_sim_ns'] / total * 100:.1f}%",
                format_ns(agg["sim_ns"]),
                format_bytes(agg["bytes_read"]),
                format_bytes(agg["bytes_written"]),
                format_bytes(moved),
                throughput,
            ]
        )
    return format_table(
        ["span", "n", "self", "self %", "total", "read", "written", "moved", "MB/s"],
        rows,
        title=f"hot spans (top {min(top, len(ranked))} of {len(ranked)} by self time)",
    )


def ops_report(tracer: "Tracer") -> str:
    """Op-level counter table (bulk-op counts and sim-ns totals)."""
    ranked = sorted(tracer.ops.values(), key=lambda op: op.sum, reverse=True)
    rows = []
    for op in ranked:
        rows.append(
            [
                op.name,
                str(op.count),
                format_ns(op.sum),
                format_ns(op.mean),
                format_ns(op.max),
            ]
        )
    return format_table(
        ["op", "count", "total", "mean", "max"],
        rows,
        title="op counters",
    )


def comparison_report(runs: list[RunResult], baseline_index: int = 0) -> str:
    """Several runs of the same task, as a speedup table."""
    if not runs:
        raise ValueError("no runs to compare")
    reference = runs[baseline_index].total_ns
    rows = []
    for run in runs:
        rows.append(
            [
                run.system,
                run.pool_device,
                format_ns(run.total_ns),
                f"{reference / run.total_ns:.2f}x",
                format_bytes(run.dram_peak),
            ]
        )
    return format_table(
        ["system", "device", "simulated time", "speedup", "DRAM peak"],
        rows,
        title=f"task: {runs[0].task}",
    )
