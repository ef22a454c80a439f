"""Measurement machinery: timed passes, spans, profiles and metrics.

A run of one workload is:

1. set-up, repeated (``setup_s`` is the median of the repeats);
2. untimed oracle preparation (``baselines.reference_s``);
3. an untraced pass: as many periods of timed operations as take the
   time budget on the reference machine.  Every end-to-end metric comes
   from this pass, in host-scaled time (see ``calibration_ms``);
4. with ``trace``, two more passes over the first operations of that
   pass: one over a third of them that records spans around every call
   into the program (per-layer wall times, ``trace.overhead``), and one
   over a sixth of them under ``cProfile`` (``host.*`` self time by
   package).

The time budget sets a fixed number of periods, so simulated metrics
repeat exactly for a seed and a budget, traced or not.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import platform
import pstats
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.nvm.stats import MemoryStats
from repro.sequitur.compressor import TadocCompressor
from workloads import KINDS, Op

#: Set-up runs at least this many times, and until SETUP_MIN_S of it
#: have passed, so a short set-up still yields a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
#: Iterations of the calibration loop, and its duration on the
#: reference machine (2-core x86_64, Python 3.11) when the host is fast.
CALIBRATION_LOOP = 20_000
REFERENCE_CALIBRATION_MS = 1.4
#: A traced run replays the first 1/TRACED_SHARE of its untraced
#: operations with spans, and the first 1/PROFILED_SHARE under cProfile,
#: which runs pure-Python Sequitur about five times slower.
TRACED_SHARE = 3
PROFILED_SHARE = 6
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
MB = 1e6


class NullSpans:
    """Span recorder of untraced passes: records nothing."""

    op = -1
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Spans:
    """In-memory spans: ``[name, start_ns, end_ns, parent, op]`` each."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []
        self.op = -1  # -1 marks set-up; loop operations count from 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), 0, parent, self.op]
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Per span: duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                own[parent] -= end - start
        return own


@contextmanager
def traced_sequitur(spans: Spans, counts: dict):
    """Record Sequitur spans inside calls the benchmark does not make
    itself (the compressions inside ingest seal and compact)."""
    add_file = TadocCompressor.__dict__["add_file"]
    freeze = TadocCompressor.__dict__["freeze"]

    def traced_add_file(self, name, text):
        with spans.span("sequitur.add_file"):
            add_file(self, name, text)
        counts["tokens"] += len(text.split())

    def traced_freeze(self):
        with spans.span("sequitur.freeze"):
            corpus = freeze(self)
        counts["rules"].append(corpus.n_rules)
        return corpus

    TadocCompressor.add_file, TadocCompressor.freeze = traced_add_file, traced_freeze
    try:
        yield
    finally:
        TadocCompressor.add_file, TadocCompressor.freeze = add_file, freeze


def calibration_ms() -> float:
    """Median wall ms of three runs of a fixed pure-Python loop: how fast
    the host runs right now.

    The host is shared.  Its speed swings by up to 2x, in phases of
    seconds to minutes, and CPU time swings with wall time.  Timing the
    loop right before and right after each timed interval, and scaling
    the interval by ``REFERENCE_CALIBRATION_MS`` over the mean of the
    two, reports the interval at the reference machine's fast-phase
    speed.  The loop shares no code with the program, so a change to the
    program moves scaled times as much as raw ones.
    """
    samples = []
    for _ in range(3):
        began = time.perf_counter()
        sum(i * i % 7 for i in range(CALIBRATION_LOOP))
        samples.append((time.perf_counter() - began) * 1e3)
    return statistics.median(samples)


def host_scaled(wall_s: float, before_ms: float, after_ms: float) -> float:
    """``wall_s`` at the reference machine's fast-phase speed, given the
    calibration readings taken right before and right after it."""
    return wall_s * REFERENCE_CALIBRATION_MS / ((before_ms + after_ms) / 2)


def run_pass(workload, count: int, profiler=None) -> list[Op]:
    """``count`` timed operations, one client in a closed loop: each operation starts when the previous one and its untimed
    check are done.  Each operation is bracketed by calibration loops,
    outside its timed interval."""
    ops: list[Op] = []
    for index in range(count):
        gc.collect()  # every operation starts from a collected heap
        workload.spans.op = index
        before = calibration_ms()
        if profiler is not None:
            profiler.enable()
        began = time.perf_counter()
        try:
            with workload.spans.span("bench.op"):
                op = workload.run_op(index)
        except Exception:
            op = Op(f"op/{index}", 0, errors=[traceback.format_exc()])
        wall = time.perf_counter() - began
        if profiler is not None:
            profiler.disable()
        after = calibration_ms()
        op.wall_s, op.calibration_ms = wall, (before + after) / 2
        op.scaled_s = host_scaled(wall, before, after)
        if not op.errors:
            try:
                workload.check(index, op)
            except Exception:
                op.errors.append(traceback.format_exc())
        op.payload = None
        ops.append(op)
    workload.spans.op = -1
    return ops


def periods_for(workload, seconds: float) -> int:
    """Periods that take ``seconds`` on the reference machine (at least
    one).  The count, not the clock, ends a pass, so every run of a
    workload has the same samples and the same tail percentile, and a
    faster program finishes sooner with the same statistics."""
    return max(1, round(seconds / workload.nominal_period_s))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz), as in Numerical Recipes' ``betacf``."""
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, h = 1.0, d
    for m in range(1, 1000):
        for aa in (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a beta-weighted mean
    of every order statistic, centred on rank ``p * n``.  A single order
    statistic of a mix of operation kinds jumps when it sits between two
    kinds; this estimate moves smoothly and varies less."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, and its estimate.  With too few
    samples for any percentile above the median, the maximum
    (percentile 100)."""
    n = len(values)
    if n < 2 * TAIL_BEYOND + 1:
        return max(values), 100.0
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    return quantile(values, percentile / 100), percentile


def simulated(ops: list[Op]) -> dict[str, float]:
    """Metrics the program's cost model fixes: exact for a seed and a
    period count (sums are exactly rounded, so order does not matter)."""
    n = len(ops)
    total = MemoryStats()
    for op in ops:
        total = total.merge(op.stats)
    calls = [call for op in ops for call in op.calls]
    plans = [call.plan for call in calls if call.plan is not None]
    touches = total.cache_hits + total.cache_misses
    values = {
        "sim_ns_per_op": math.fsum(op.sim_ns for op in ops) / n,
        "sim_speedup_vs_uncompressed": math.exp(
            math.fsum(math.log(op.unc_sim_ns / op.query_sim_ns) for op in ops) / n
        ),
        "dram_peak_mb": max(op.dram_peak for op in ops) / MB,
        "pool_peak_mb": max(op.pool_peak for op in ops) / MB,
        "bytes_per_source_byte": sum(op.artifact_bytes for op in ops)
        / sum(op.artifact_source_bytes for op in ops),
        "core.init_sim_ns": math.fsum(c.init_ns for c in calls) / len(calls),
        "core.traversal_sim_ns": math.fsum(c.traversal_ns for c in calls) / len(calls),
        # A solo run() returns no PlanStats; it builds the pool once.
        "core.pool_builds": sum(c.plan.pool_builds if c.plan else 1 for c in calls) / n,
        "core.dag_passes.topdown": sum(p.dag_passes.get("topdown", 0) for p in plans) / n,
        "core.dag_passes.bottomup": sum(p.dag_passes.get("bottomup", 0) for p in plans)
        / n,
        "core.segment_sweeps": sum(p.segment_sweeps for p in plans) / n,
        "nvm.cache_hit_rate": total.cache_hits / touches if touches else 0.0,
    }
    for name in (
        "lines_read",
        "lines_written",
        "cache_misses",
        "writebacks",
        "flush_ops",
        "flushed_lines",
        "device_ns",
    ):
        values[f"nvm.{name}"] = getattr(total, name) / n
    segments = sum(op.segments for op in ops)
    values["ingest.segments"] = segments / n
    values["ingest.query_sim_ns"] = (
        math.fsum(op.query_sim_ns for op in ops) / n if segments else 0.0
    )
    values["ingest.write_amp"] = sum(op.media_bytes_written for op in ops) / sum(
        op.source_bytes for op in ops
    )
    return values


def wall_summary(walls: list[float]) -> dict[str, float]:
    """Latency and throughput of one list of operation seconds."""
    return {
        "op_p50_ms": quantile(walls, 0.5) * 1e3,
        "op_tail_ms": tail(walls)[0] * 1e3,
        "ops_per_s": len(walls) / math.fsum(walls),
    }


def end_to_end(ops: list[Op], setup_s: list[float]) -> dict:
    """End-to-end metrics of a pass.  Failed operations count only in
    ``success_rate``; every other metric describes the operations that
    succeeded (none: ``success_rate`` alone).  Wall metrics are in
    host-scaled time."""
    good = [op for op in ops if not op.errors]
    success = {"success_rate": len(good) / len(ops)}
    if not good:
        return success
    sim = simulated(good)
    walls = [op.scaled_s for op in good]
    busy = math.fsum(walls)
    return {
        **wall_summary(walls),
        "source_mb_per_s": sum(op.source_bytes for op in good) / MB / busy,
        "sim_ns_per_op": sim["sim_ns_per_op"],
        "sim_speedup_vs_uncompressed": sim["sim_speedup_vs_uncompressed"],
        "dram_peak_mb": sim["dram_peak_mb"],
        "pool_peak_mb": sim["pool_peak_mb"],
        "bytes_per_source_byte": sim["bytes_per_source_byte"],
        "host_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        **success,
        "setup_s": statistics.median(setup_s),
    }


def span_layers(spans: Spans, ops: list[Op], counts: dict) -> dict[str, float]:
    """Per-layer wall metrics from one traced pass."""
    n = len(ops)
    own = spans.self_ns()
    walls: dict[str, list[float]] = defaultdict(list)
    self_ms: dict[str, float] = defaultdict(float)
    sequitur_ns = 0
    for (name, start, end, parent, op), own_ns in zip(spans.records, own):
        layer = name.split(".", 1)[0]
        if op >= 0:
            walls[name.split(":", 1)[0]].append(end - start)
            if ":" in name:
                walls["kind:" + name.split(":", 1)[1]].append(end - start)
            self_ms[layer] += own_ns / 1e6
        outer = spans.records[parent][0] if parent is not None else ""
        if layer == "sequitur" and not outer.startswith("sequitur."):
            sequitur_ns += end - start

    def mean_ms(key: str) -> float:
        values = walls.get(key, [])
        return math.fsum(values) / len(values) / 1e6 if values else 0.0

    core_calls = [
        wall
        for key in ("core.run", "core.run_many", "core.run_many_on")
        for wall in walls.get(key, [])
    ]
    lines = sum(call.lines for op in ops for call in op.calls)
    compressions = len(counts["rules"])
    values = {
        "sequitur.wall_s": sequitur_ns / 1e9 / compressions if compressions else 0.0,
        "sequitur.tokens_per_s": counts["tokens"] / (sequitur_ns / 1e9)
        if sequitur_ns
        else 0.0,
        "sequitur.rules": sum(counts["rules"]) / compressions if compressions else 0.0,
        "core.run_wall_ms": math.fsum(core_calls) / len(core_calls) / 1e6
        if core_calls
        else 0.0,
        "nvm.host_ns_per_line": math.fsum(core_calls) / lines if lines else 0.0,
    }
    for kind in KINDS:
        values[f"core.query.{kind}.wall_ms"] = mean_ms(f"kind:{kind}")
    for name in ("append", "delete", "seal", "compact", "reopen"):
        values[f"ingest.{name}_ms"] = mean_ms(f"ingest.{name}")
    values["ingest.checkpoint_ms"] = mean_ms("ingest.run_tasks")
    for layer in ("bench", "sequitur", "core", "ingest"):
        values[f"self.{layer}_ms"] = self_ms[layer] / n
    return values


#: ``host.*`` rows: (metric, predicate on (path under repro/, function)).
HOST_ROWS = (
    ("host.sequitur_s", lambda path, func: path.startswith("sequitur/")),
    ("host.core_s", lambda path, func: path.startswith("core/")),
    ("host.nvm_s", lambda path, func: path.startswith("nvm/")),
    (
        "host.nvm.charge_s",
        lambda path, func: path == "nvm/cache.py"
        or (path == "nvm/memory.py" and func.startswith("_touch"))
        or (path == "kernels/hashops.py" and func == "charge_read"),
    ),
    ("host.kernels_s", lambda path, func: path.startswith("kernels/")),
    ("host.pstruct_s", lambda path, func: path.startswith("pstruct/")),
    ("host.analytics_s", lambda path, func: path.startswith("analytics/")),
    ("host.ingest_s", lambda path, func: path.startswith("ingest/")),
    ("host.obs_s", lambda path, func: path.startswith("obs/")),
)


def host_self_times(profiler: cProfile.Profile, n_ops: int) -> dict[str, float]:
    """cProfile self seconds per operation, by ``repro`` package.

    Built-in functions (``'~'`` entries) have no package of their own;
    their time goes to the callers that made the calls.  One row is a
    cross-cut: ``host.nvm.charge_s`` (line charging) is also counted in
    ``host.nvm_s`` and ``host.kernels_s``.  ``host.other_s`` is
    everything outside the other rows.
    """
    located: dict[tuple[str, str], float] = defaultdict(float)

    def where(func) -> tuple[str, str]:
        filename, _, name = func
        marker = f"{os.sep}repro{os.sep}"
        if marker in filename:
            return filename.rsplit(marker, 1)[1].replace(os.sep, "/"), name
        return "", name

    total = 0.0
    for func, (_, _, own, _, callers) in pstats.Stats(profiler).stats.items():
        total += own
        if func[0] == "~":
            for caller, edge in callers.items():
                located[where(caller)] += edge[2]
        else:
            located[where(func)] += own
    values = {}
    counted = 0.0
    for metric, belongs in HOST_ROWS:
        seconds = sum(s for (path, func), s in located.items() if belongs(path, func))
        values[metric] = seconds / n_ops
        if metric != "host.nvm.charge_s":
            counted += seconds
    values["host.other_s"] = max(total - counted, 0.0) / n_ops
    return values


def environment() -> dict:
    """What changes wall time besides the code: stamped on every result."""
    from repro.core.engine import EngineConfig
    from repro.kernels import numpy_or_none

    numpy = numpy_or_none()
    requested = EngineConfig().kernels
    effective = requested
    if requested == "auto":
        effective = "numpy" if numpy is not None else "python"
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "kernels": {"requested": requested, "effective": effective},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cost_model": (
            "simulated ns come from the repository's device cost model, "
            "which is not validated against NVM hardware"
        ),
        "context_only": {
            "fig5a_geomean_speedup_phase": 1.91,
            "fig5b_geomean_speedup_operation": 1.59,
            "source": "EXPERIMENTS.md, profiles A-D, each task solo",
        },
    }


def run_workload(workload_cls, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns ``(result, report, spans)``.

    An untraced run reports its end-to-end metrics even when operations
    failed, so ``success_rate`` shows the failures.  A traced run whose
    untraced pass failed skips the traced passes and reports no
    per-layer metrics.
    """
    spans = Spans() if trace else None
    counts = {"tokens": 0, "rules": []}
    workload = workload_cls(seed, NullSpans())
    setup_s = []
    if trace:
        workload.spans = spans
        with traced_sequitur(spans, counts):
            workload.setup()
        workload.spans = NullSpans()
    else:
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
            before = calibration_ms()
            began = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - began
            setup_s.append(host_scaled(wall, before, calibration_ms()))
    began = time.perf_counter()
    workload.prepare_reference()
    report = {
        "baselines.reference_s": time.perf_counter() - began,
        "setup_s_each": setup_s,
        "environment": environment(),
    }

    periods = periods_for(workload, seconds)
    ops = run_pass(workload, periods * workload.period)
    calibrations = [op.calibration_ms for op in ops]
    report.update(
        calibration_ms={
            "reference": REFERENCE_CALIBRATION_MS,
            "min": min(calibrations),
            "median": statistics.median(calibrations),
            "max": max(calibrations),
        },
        unscaled=wall_summary([op.wall_s for op in ops]),
        samples=len(ops),
        periods=periods,
        tail_percentile=tail([op.wall_s for op in ops])[1],
        op_wall_ms={op.label: [] for op in ops},
        op_scaled_ms={op.label: [] for op in ops},
    )
    for op in ops:
        report["op_wall_ms"][op.label].append(op.wall_s * 1e3)
        report["op_scaled_ms"][op.label].append(op.scaled_s * 1e3)
    metrics = {}
    if not trace:
        metrics = end_to_end(ops, setup_s)
    if not any(op.errors for op in ops):
        sim = report["simulated"] = simulated(ops)
        if trace:
            # The traced passes replay the first operations.
            workload.spans = spans
            with traced_sequitur(spans, counts):
                if workload.stateful:
                    workload.setup()
                traced = run_pass(workload, max(1, len(ops) // TRACED_SHARE))
            workload.spans = NullSpans()
            if workload.stateful:
                workload.setup()
            profiler = cProfile.Profile()
            profiled = run_pass(workload, max(1, len(ops) // PROFILED_SHARE), profiler)
            prefix = ops[: len(traced)]
            ops = ops + traced + profiled
            if not any(op.errors for op in ops):
                for other in (traced, profiled):
                    if simulated(other) != simulated(prefix[: len(other)]):
                        other[0].errors.append("tracing changed a simulated metric")
                report["traced_op_wall_ms"] = [op.wall_s * 1e3 for op in traced]
                metrics = {
                    **{name: value for name, value in sim.items() if "." in name},
                    **span_layers(spans, traced, counts),
                    **host_self_times(profiler, len(profiled)),
                    # Paired by operation, so one noisy sample cannot skew it.
                    "trace.overhead": statistics.median(
                        t.scaled_s / u.scaled_s for t, u in zip(traced, prefix)
                    ),
                }
    failures = [error for op in ops for error in op.errors]
    report["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.errors),
        "metrics": metrics,
    }
    return result, report, spans
