"""Exhaustive media-fault sweep: enumerate fault points, verify resilience.

The crash sweep (:mod:`repro.harness.crashsweep`) proves power loss is
survivable; this harness proves *media decay* is.  It runs the real
pipeline (compress -> analyze -> scrub -> re-analyze) under the UBER
fault model of :mod:`repro.nvm.faults` -- persistent bit flips, stuck-at
lines, transient read glitches, and wear-triggered line death -- and for
every enumerated fault point asserts the **resilience triad**: the run
must end

* **corrected** -- the fault was absorbed at zero observable cost
  (output and simulated time bit-identical to the fault-free run), or
* **detected and recovered** -- checksummed reads surfaced the damage,
  the engine scrubbed/quarantined/rebuilt, and the analytics output is
  still bit-identical (only simulated time grew, by the charged
  recovery work), or
* **quarantined with a typed error** -- the task failed with a
  structured :class:`~repro.core.engine.TaskFailure` naming the damage
  kind;

**never a silent wrong answer**.  An analytics result that differs from
the fault-free reference, an untyped exception escaping the engine
entry points, a failure report without a damage kind, or a recovered
run charging no more than the fault-free one (recovery is charged work)
is a violation (the sweep's exit status).

Fault points are learned, not guessed: a counting run records -- via
:attr:`~repro.nvm.faults.FaultPlan.on_read` -- which device offsets each
read ordinal consumes from *clean* (media-resident) lines, so every
injected fault lands on bytes the workload actually reads.  On top of
those per-read points the sweep adds wear-death points (endurance limits
chosen from the counting run's own wear histogram), faults directed at
the guard's on-media infrastructure (seal table, remap table, directory
header), and fused multi-task plans where sibling tasks must complete
around a damaged one.

After every engine point the sweep runs the scrub leg:
:meth:`~repro.core.engine.NTadocEngine.scrub_and_quarantine` must leave
the pool clean (a second scrub finds zero mismatches and quarantines
nothing new -- idempotence), and
:meth:`~repro.core.engine.NTadocEngine.rerun_resilient` must reproduce
the fault-free output bit-identically or fail typed.

Fully deterministic under a fixed seed: same seed, same points, same
masks, byte-identical JSON report.  See docs/recovery.md for the fault
model and the judging rules.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine, TaskFailure
from repro.harness.crashsweep import (
    _jsonable,
    _smoke_corpus,
    canonical_result,
    render_report,
)
from repro.nvm.faults import MEDIA_FAULT_KINDS, FaultPlan, MediaFault
from repro.nvm.scrub import REMAP_REGION, SEAL_REGION

#: Triad outcomes a point may legally land on (plus the bookkeeping
#: buckets ``masked`` -- the armed fault never fired -- and ``latent`` --
#: it fired on media the run never consumed, left for the scrub leg).
OUTCOMES = (
    "corrected",
    "detected_recovered",
    "quarantined_typed",
    "masked",
    "latent",
)


@dataclass(frozen=True)
class FaultSweepConfig:
    """Bounds of one media-fault sweep.

    Attributes:
        seed: Master seed; fixes point selection, masks, and arm points.
        tasks: Analytics tasks swept solo (every clean-read point of
            each gets a fault).
        second_kind_points: Extra seeded points re-testing sampled read
            ordinals under a *different* fault kind (and double-fail
            transients) than the round-robin pass assigned.
        wear_points: Wear-death points; endurance limits are drawn from
            the counting run's wear histogram so lines actually die.
        infra_points: Faults aimed at the guard's own on-media state
            (seal table, remap table, directory header).
        fused_points: Faults injected under a fused
            ``run_many`` plan; siblings must still complete.
        reanalyze: Run the scrub + re-analyze leg after engine points.
    """

    seed: int = 20240817
    tasks: tuple[str, ...] = ("word_count", "inverted_index", "term_vector")
    second_kind_points: int = 60
    wear_points: int = 6
    infra_points: int = 9
    fused_points: int = 9
    reanalyze: bool = True

    @staticmethod
    def smoke(seed: int = 20240817) -> "FaultSweepConfig":
        """The bounded configuration CI runs (still >= 200 points)."""
        return FaultSweepConfig(seed=seed)

    @staticmethod
    def full(seed: int = 20240817) -> "FaultSweepConfig":
        """Denser sampling of every auxiliary scenario."""
        return FaultSweepConfig(
            seed=seed,
            second_kind_points=150,
            wear_points=12,
            infra_points=18,
            fused_points=18,
        )


class _ReadTrace:
    """``FaultPlan.on_read`` observer: where each read touches clean media.

    For every counted read it records ``(ordinal, clean_offset,
    clean_span)`` -- the first byte of the read window whose device line
    is *not* dirty (media damage on dirty lines is exempt until flush,
    so a fault aimed there would never fire on this read).
    """

    def __init__(self) -> None:
        self.memory = None
        self.reads: list[tuple[int, int, int]] = []
        self._ordinal = 0

    def __call__(self, mem, offset: int, size: int) -> None:
        self._ordinal += 1
        self.memory = mem
        if size <= 0:
            return
        line_size = mem.profile.line_size
        dirty = mem.dirty_lines()
        first = offset // line_size
        last = (offset + size - 1) // line_size
        for line in range(first, last + 1):
            if line in dirty:
                continue
            clean = max(offset, line * line_size)
            span = min(offset + size, (line + 1) * line_size) - clean
            self.reads.append((self._ordinal, clean, span))
            return


class _FaultSweep:
    """One sweep run: accumulates points, outcomes, and violations."""

    def __init__(self, config: FaultSweepConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.corpus = _smoke_corpus()
        self.points = 0
        self.by_kind: dict[str, int] = {}
        self.outcomes: dict[str, int] = {}
        self.violations: list[dict] = []
        self.recovery_extra_ns: list[float] = []
        self.scrub_latent_detected = 0
        self.scrub_failed_typed = 0
        self.reanalyzed_identical = 0
        self.reanalyze_failed_typed = 0
        self.reference_digests: dict[str, str] = {}
        self.blackbox = {"checked": 0, "absent": 0}
        self.blackbox_sample: dict | None = None

    # -- bookkeeping ----------------------------------------------------

    def point(self, kind: str) -> None:
        self.points += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def outcome(self, name: str) -> None:
        self.outcomes[name] = self.outcomes.get(name, 0) + 1

    def violation(self, scenario: str, kind: str, index, problem: str) -> None:
        self.violations.append(
            {
                "scenario": scenario,
                "kind": kind,
                "index": index,
                "problem": problem,
            }
        )

    def recovered(self, scenario: str, kind: str, index, extra_ns: float) -> None:
        """A correct run that charged differently from the fault-free one:
        recovery is charged work, so it must have charged *more*."""
        self.outcome("detected_recovered")
        self.recovery_extra_ns.append(extra_ns)
        if extra_ns <= 0:
            self.violation(
                scenario, kind, index,
                f"recovery is charged work, yet the recovered run charged "
                f"{extra_ns:+.1f} ns against the fault-free run",
            )

    def check_blackbox(self, scenario: str, kind: str, index, engine) -> None:
        """Judge the flight recorder after one media-faulted run.

        Unlike the crash sweep there is no power loss here, so the ring
        is read live off the pool: it must be present, every slot must
        decode as a fully-written event (a live ring can hold no torn
        slots), and the surviving records must be chronologically
        consistent.  The fault the point injected may or may not have
        left fault events behind -- masked faults legally leave none.
        """
        from repro.nvm.flightrec import blackbox_report, decode_pool

        state = engine.last_state
        if state is None:
            return
        self.blackbox["checked"] += 1
        decoded = decode_pool(state.pool)
        if decoded is None or not decoded["present"]:
            self.blackbox["absent"] += 1
            self.violation(
                scenario, kind, index,
                "black box: flight recorder absent after a run",
            )
            return
        damaged = sum(1 for r in decoded["records"] if r.kind != "event")
        if damaged:
            self.violation(
                scenario, kind, index,
                f"black box: {damaged} torn/unknown slots in a live ring",
            )
            return
        events = decoded["records"]
        seqs = [r.seq for r in events]
        times = [r.sim_ns for r in events]
        if seqs != sorted(set(seqs)) or any(
            b < a for a, b in zip(times, times[1:])
        ):
            self.violation(
                scenario, kind, index,
                "black box: event tail is not chronologically consistent",
            )
            return
        if self.blackbox_sample is None:
            self.blackbox_sample = blackbox_report(decoded, tail=8)

    # -- shared machinery -----------------------------------------------

    def _engine(self, track_wear: bool = False) -> NTadocEngine:
        return NTadocEngine(
            self.corpus,
            EngineConfig(media_protect=True, track_wear=track_wear),
        )

    def _reference(self, engine: NTadocEngine, name: str):
        """Fault-free run: reference output, time, read trace."""
        trace = _ReadTrace()
        plan = FaultPlan()
        plan.on_read = trace
        ref = engine.run(task_by_name(name), fault_plan=plan)
        if ref.failed:
            raise AssertionError(
                f"fault-free reference run of {name} failed: {ref.error}"
            )
        return canonical_result(ref.result), ref.total_ns, trace

    def _make_fault(self, kind: str, offset: int, span: int, ordinal: int,
                    double_fail: bool = False) -> MediaFault:
        """A seeded fault of ``kind`` aimed at read ``ordinal``'s bytes."""
        if kind == "bitflip":
            mask = bytes([self.rng.randrange(1, 256)])
        elif kind == "stuck_line":
            mask = bytes(
                self.rng.randrange(1, 256)
                for _ in range(min(max(span, 1), 4))
            )
        else:  # transient
            mask = bytes(
                self.rng.randrange(1, 256)
                for _ in range(min(max(span, 1), 2))
            )
        fails = 2 if (double_fail and kind == "transient") else 1
        return MediaFault(
            kind, offset, mask, arm_read=ordinal - 1, fails=fails
        )

    @staticmethod
    def _fault_fired(fault: MediaFault, plan: FaultPlan) -> bool:
        if plan.dead_lines:
            return True
        if fault.kind == "bitflip":
            return fault.applied
        if fault.kind == "stuck_line":
            return bool(fault.stuck)
        return fault.healed or fault.fails < 1

    # -- solo engine points ---------------------------------------------

    def run_task_scenario(self, name: str) -> None:
        """Every clean-read point of ``name`` gets a media fault."""
        engine = self._engine()
        ref_json, ref_ns, trace = self._reference(engine, name)
        self.reference_digests[name] = hashlib.sha256(
            ref_json.encode("utf-8")
        ).hexdigest()[:16]
        candidates = trace.reads
        for i, (ordinal, offset, span) in enumerate(candidates):
            kind = MEDIA_FAULT_KINDS[i % len(MEDIA_FAULT_KINDS)]
            fault = self._make_fault(kind, offset, span, ordinal)
            self._engine_point(
                engine, name, ref_json, ref_ns, kind, ordinal, fault
            )
        self._second_kind_points(engine, name, ref_json, ref_ns, candidates)

    def _second_kind_points(
        self, engine, name, ref_json, ref_ns, candidates
    ) -> None:
        budget = self.config.second_kind_points // max(
            len(self.config.tasks), 1
        )
        if not candidates or budget <= 0:
            return
        picks = [
            candidates[self.rng.randrange(len(candidates))]
            for _ in range(budget)
        ]
        for j, (ordinal, offset, span) in enumerate(picks):
            # A different kind than the round-robin pass used there.
            base = candidates.index((ordinal, offset, span))
            shift = 1 + (j % (len(MEDIA_FAULT_KINDS) - 1))
            kind = MEDIA_FAULT_KINDS[(base + shift) % len(MEDIA_FAULT_KINDS)]
            fault = self._make_fault(
                kind, offset, span, ordinal, double_fail=True
            )
            self._engine_point(
                engine, name, ref_json, ref_ns, kind, ordinal, fault
            )

    def _engine_point(
        self, engine, task_name, ref_json, ref_ns, kind, index, fault
    ) -> None:
        """One fault, one run, triad classification, scrub leg."""
        self.point(kind)
        plan = FaultPlan(media_faults=[fault])
        task = task_by_name(task_name)
        try:
            out = engine.run(task, fault_plan=plan)
        except Exception as exc:  # noqa: BLE001 -- escapes are the defect
            self.violation(
                "engine", kind, index,
                f"untyped {type(exc).__name__} escaped run: {exc}",
            )
            return
        fired = self._fault_fired(fault, plan)
        if out.failed:
            if not out.kind:
                self.violation(
                    "engine", kind, index,
                    "task failure carries no damage kind",
                )
                return
            self.outcome("quarantined_typed")
        else:
            got = canonical_result(out.result)
            if got != ref_json:
                self.violation(
                    "engine", kind, index,
                    "SILENT WRONG ANSWER: analytics output differs from "
                    "the fault-free run",
                )
                return
            if out.total_ns == ref_ns:
                self.outcome("latent" if fired else "masked")
            else:
                self.recovered("engine", kind, index, out.total_ns - ref_ns)
        self.check_blackbox("engine", kind, index, engine)
        if self.config.reanalyze:
            self._scrub_and_reanalyze(
                engine, task_name, ref_json, kind, index
            )

    def _scrub_and_reanalyze(
        self, engine, task_name, ref_json, kind, index
    ) -> None:
        """Scrub leg: heal latent damage, prove idempotence, re-analyze."""
        from repro.errors import MediaError

        try:
            first = engine.scrub_and_quarantine()
            second = engine.scrub_and_quarantine()
        except MediaError:
            # The device failed during its own scrub (e.g. wear death on
            # the scrub's bookkeeping lines) -- detected and typed, so
            # the triad holds; there is no pool left to re-analyze.
            self.scrub_failed_typed += 1
            return
        except Exception as exc:  # noqa: BLE001
            self.violation(
                "scrub", kind, index,
                f"untyped {type(exc).__name__} escaped the scrub leg: {exc}",
            )
            return
        if first.mismatches or first.quarantined:
            self.scrub_latent_detected += 1
        if second.mismatches or second.quarantined:
            self.violation(
                "scrub", kind, index,
                f"scrub not idempotent: second pass still found "
                f"{second.mismatches} mismatches / "
                f"{second.quarantined} quarantined chunks",
            )
            return
        try:
            again = engine.rerun_resilient(task_by_name(task_name))
        except Exception as exc:  # noqa: BLE001
            self.violation(
                "reanalyze", kind, index,
                f"untyped {type(exc).__name__} escaped rerun_resilient: "
                f"{exc}",
            )
            return
        if again.failed:
            if not again.kind:
                self.violation(
                    "reanalyze", kind, index,
                    "re-analyze failure carries no damage kind",
                )
            else:
                self.reanalyze_failed_typed += 1
            return
        if canonical_result(again.result) != ref_json:
            self.violation(
                "reanalyze", kind, index,
                "SILENT WRONG ANSWER: re-analyze after scrub differs from "
                "the fault-free run",
            )
            return
        self.reanalyzed_identical += 1

    # -- wear-death points ----------------------------------------------

    def run_wear_scenario(self) -> None:
        """Endurance limits drawn from the real wear histogram."""
        name = self.config.tasks[0]
        engine = self._engine(track_wear=True)
        ref_json, ref_ns, trace = self._reference(engine, name)
        wear = dict(trace.memory.wear or {})
        if not wear:
            self.violation(
                "wear", "wear_death", 0,
                "track_wear produced no program counters",
            )
            return
        levels = sorted(set(wear.values()))
        # Limits at the top of the histogram (few hot lines die) down to
        # the median (broad death): deterministic percentile picks.
        picks = [
            levels[-1],
            levels[max(len(levels) * 3 // 4 - 1, 0)],
            levels[max(len(levels) // 2 - 1, 0)],
        ]
        count = 0
        for limit in dict.fromkeys(picks):
            for seed in (1, 2):
                if count >= self.config.wear_points:
                    return
                count += 1
                self.point("wear_death")
                plan = FaultPlan(
                    wear_death=True, wear_limit=limit, wear_seed=seed
                )
                self._classify_wear_point(
                    engine, name, ref_json, ref_ns, limit, seed, plan
                )

    def _classify_wear_point(
        self, engine, name, ref_json, ref_ns, limit, seed, plan
    ) -> None:
        index = (limit, seed)
        try:
            out = engine.run(task_by_name(name), fault_plan=plan)
        except Exception as exc:  # noqa: BLE001
            self.violation(
                "wear", "wear_death", index,
                f"untyped {type(exc).__name__} escaped run: {exc}",
            )
            return
        if out.failed:
            if not out.kind:
                self.violation(
                    "wear", "wear_death", index,
                    "task failure carries no damage kind",
                )
                return
            self.outcome("quarantined_typed")
        else:
            got = canonical_result(out.result)
            if got != ref_json:
                self.violation(
                    "wear", "wear_death", index,
                    "SILENT WRONG ANSWER: analytics output differs from "
                    "the fault-free run",
                )
                return
            if out.total_ns == ref_ns:
                self.outcome("latent" if plan.dead_lines else "masked")
            else:
                self.recovered("wear", "wear_death", index, out.total_ns - ref_ns)
        self.check_blackbox("wear", "wear_death", index, engine)
        if self.config.reanalyze:
            self._scrub_and_reanalyze(
                engine, name, ref_json, "wear_death", index
            )

    # -- guard-infrastructure points ------------------------------------

    def run_infra_scenario(self) -> None:
        """Faults aimed at the guard's own on-media bookkeeping."""
        name = self.config.tasks[0]
        engine = self._engine()
        ref_json, ref_ns, _ = self._reference(engine, name)
        pool = engine.last_state.pool
        seal_off, seal_size = pool.get_region(SEAL_REGION)
        remap_off, remap_size = pool.get_region(REMAP_REGION)
        targets = [
            ("seal_table", seal_off + 8),
            ("seal_table", seal_off + seal_size // 2),
            ("seal_table", seal_off + seal_size - 16),
            ("remap_table", remap_off),
            ("remap_table", remap_off + remap_size // 2),
            ("directory_header", 4),
        ]
        kinds = ("bitflip", "stuck_line", "transient")
        for i in range(self.config.infra_points):
            label, offset = targets[i % len(targets)]
            kind = kinds[(i // len(targets)) % len(kinds)]
            fault = self._make_fault(kind, offset, 4, ordinal=1)
            self._engine_point(
                engine, name, ref_json, ref_ns, f"infra_{label}",
                (kind, offset), fault,
            )

    # -- fused multi-task points ----------------------------------------

    def run_fused_scenario(self) -> None:
        """Damage under a fused plan: siblings must still complete."""
        tasks = [task_by_name(n) for n in self.config.tasks]
        engine = self._engine()
        trace = _ReadTrace()
        counter = FaultPlan()
        counter.on_read = trace
        ref_plan = engine.run_many(tasks, fault_plan=counter)
        if ref_plan.failures:
            raise AssertionError(
                "fault-free fused reference run reported failures"
            )
        ref_json = {
            r.task: canonical_result(r.result) for r in ref_plan.results
        }
        ref_ns = ref_plan.total_ns
        candidates = trace.reads
        if not candidates:
            self.violation(
                "fused", "schedule", 0, "fused counting run traced no reads"
            )
            return
        for i in range(self.config.fused_points):
            ordinal, offset, span = candidates[
                self.rng.randrange(len(candidates))
            ]
            kind = MEDIA_FAULT_KINDS[i % len(MEDIA_FAULT_KINDS)]
            fault = self._make_fault(kind, offset, span, ordinal)
            self._fused_point(
                engine, tasks, ref_json, ref_ns, kind, ordinal, fault
            )

    def _fused_point(
        self, engine, tasks, ref_json, ref_ns, kind, index, fault
    ) -> None:
        self.point(f"fused_{kind}")
        plan = FaultPlan(media_faults=[fault])
        try:
            out = engine.run_many(tasks, fault_plan=plan)
        except Exception as exc:  # noqa: BLE001
            self.violation(
                "fused", kind, index,
                f"untyped {type(exc).__name__} escaped run_many: "
                f"{exc}",
            )
            return
        if len(out.results) + len(out.failures) != len(tasks):
            self.violation(
                "fused", kind, index,
                f"plan lost tasks: {len(out.results)} results + "
                f"{len(out.failures)} failures != {len(tasks)}",
            )
            return
        for failure in out.failures:
            if not failure.kind:
                self.violation(
                    "fused", kind, index,
                    f"sibling {failure.task} failed without a damage kind",
                )
                return
        for run in out.results:
            if canonical_result(run.result) != ref_json[run.task]:
                self.violation(
                    "fused", kind, index,
                    f"SILENT WRONG ANSWER: sibling {run.task} differs from "
                    "the fault-free fused run",
                )
                return
        if out.failures:
            self.outcome("quarantined_typed")
        elif out.total_ns == ref_ns:
            self.outcome(
                "latent" if self._fault_fired(fault, plan) else "masked"
            )
        else:
            self.recovered("fused", kind, index, out.total_ns - ref_ns)
        self.check_blackbox("fused", kind, index, engine)


def run_sweep(config: FaultSweepConfig | None = None) -> dict:
    """Run the full media-fault sweep; return the JSON-ready report."""
    config = config or FaultSweepConfig()
    sweep = _FaultSweep(config)
    for name in config.tasks:
        sweep.run_task_scenario(name)
    sweep.run_wear_scenario()
    sweep.run_infra_scenario()
    sweep.run_fused_scenario()
    extra = sweep.recovery_extra_ns
    silent = [
        v for v in sweep.violations if "SILENT WRONG ANSWER" in v["problem"]
    ]
    return {
        "seed": config.seed,
        "config": _jsonable(asdict(config)),
        "points_swept": sweep.points,
        "by_kind": _jsonable(sweep.by_kind),
        "outcomes": _jsonable(sweep.outcomes),
        "scrub_latent_detected": sweep.scrub_latent_detected,
        "scrub_failed_typed": sweep.scrub_failed_typed,
        "reanalyzed_identical": sweep.reanalyzed_identical,
        "reanalyze_failed_typed": sweep.reanalyze_failed_typed,
        "mean_recovery_extra_ns": (
            round(sum(extra) / len(extra), 3) if extra else 0.0
        ),
        "silent_wrong_answers": len(silent),
        "blackbox": _jsonable(
            {**sweep.blackbox, "sample": sweep.blackbox_sample}
        ),
        "violations": sweep.violations,
        "reference_digests": _jsonable(sweep.reference_digests),
    }


__all__ = [
    "OUTCOMES",
    "FaultSweepConfig",
    "canonical_result",
    "render_report",
    "run_sweep",
]
