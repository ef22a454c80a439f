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

from dataclasses import dataclass

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.core.plan import PlanResult
from repro.harness.sweep import (
    Sweep,
    canonical_result,
    digest,
    mean,
    smoke_corpus,
)
from repro.nvm.faults import MEDIA_FAULT_KINDS, FaultPlan, MediaFault
from repro.nvm.scrub import REMAP_REGION, SEAL_REGION


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
    """

    seed: int = 20240817
    tasks: tuple[str, ...] = ("word_count", "inverted_index", "term_vector")
    second_kind_points: int = 60
    wear_points: int = 6
    infra_points: int = 9
    fused_points: int = 9

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


def _fault_fired(plan: FaultPlan) -> bool:
    """Whether an armed fault reached the media (a dead line counts)."""
    if plan.dead_lines:
        return True
    for fault in plan.media_faults:
        if fault.kind == "bitflip":
            fired = fault.applied
        elif fault.kind == "stuck_line":
            fired = bool(fault.stuck)
        else:
            fired = fault.healed or fault.fails < 1
        if fired:
            return True
    return False


class FaultSweep(Sweep):
    """The media-fault sweep: its scenarios and the resilience triad."""

    def __init__(self, config: FaultSweepConfig) -> None:
        super().__init__(config, ("checked", "absent"))
        self.corpus = smoke_corpus()
        self.outcomes: dict[str, int] = {}
        self.recovery_extra_ns: list[float] = []
        self.scrub_latent_detected = 0
        self.scrub_failed_typed = 0
        self.reanalyzed_identical = 0
        self.reanalyze_failed_typed = 0
        self.reference_digests: dict[str, str] = {}

    # -- bookkeeping ----------------------------------------------------

    def outcome(self, name: str) -> None:
        self.outcomes[name] = self.outcomes.get(name, 0) + 1

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

    def report(self, **fields) -> dict:
        silent = [
            v for v in self.violations if "SILENT WRONG ANSWER" in v["problem"]
        ]
        return super().report(
            outcomes=self.outcomes,
            scrub_latent_detected=self.scrub_latent_detected,
            scrub_failed_typed=self.scrub_failed_typed,
            reanalyzed_identical=self.reanalyzed_identical,
            reanalyze_failed_typed=self.reanalyze_failed_typed,
            mean_recovery_extra_ns=mean(self.recovery_extra_ns),
            silent_wrong_answers=len(silent),
            reference_digests=self.reference_digests,
            **fields,
        )

    def check_blackbox(self, scenario: str, kind: str, index, engine) -> None:
        """Judge the flight recorder after one media-faulted run.

        Unlike the crash sweep there is no power loss here, so the ring
        is read live off the pool: it must be present and hold no torn
        slots.  The fault the point injected may or may not have left
        fault events behind -- masked faults legally leave none.
        """
        from repro.nvm.flightrec import decode_pool

        state = engine.last_state
        if state is None:
            return
        self.blackbox["checked"] += 1
        bb = self.judge_ring(scenario, kind, index, decode_pool(state.pool), 0)
        if self.blackbox_sample is None:
            self.blackbox_sample = bb

    # -- shared machinery -----------------------------------------------

    def _engine(self, track_wear: bool = False) -> NTadocEngine:
        return NTadocEngine(
            self.corpus,
            EngineConfig(media_protect=True, track_wear=track_wear),
        )

    def _reference(self, engine: NTadocEngine, name: str):
        """Fault-free run: reference outputs by task, time, read trace."""
        trace = _ReadTrace()
        plan = FaultPlan()
        plan.on_read = trace
        ref = engine.run(task_by_name(name), fault_plan=plan)
        if ref.failed:
            raise AssertionError(
                f"fault-free reference run of {name} failed: {ref.error}"
            )
        return {name: canonical_result(ref.result)}, ref.total_ns, trace

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

    def classify(
        self, scenario, kind, index, engine, plan, run, reference, ref_ns,
        rerun: str | None = None,
    ) -> None:
        """Count one point and land its faulted run in the triad.

        ``run`` executes the workload under ``plan`` and returns a solo
        ``RunResult``/``TaskFailure`` or a fused ``PlanResult``;
        ``reference`` maps each task to its fault-free canonical output
        and ``ref_ns`` is the fault-free charge.  An untyped escape, a
        lost task, or a failure without a damage kind is a violation; an
        output that differs from the reference is a silent wrong answer.
        Bit-identical output at identical cost is ``latent`` (the fault
        fired on media the run never consumed, left for the scrub leg)
        or ``masked`` (the armed fault never fired); at any other cost
        it is a recovery.  Every point that lands in the triad then
        faces the black-box check and, given a ``rerun`` task, the scrub
        leg.
        """
        self.point(kind)
        try:
            out = run()
        except Exception as exc:  # noqa: BLE001 -- escapes are the defect
            self.violation(
                scenario, kind, index,
                f"untyped {type(exc).__name__} escaped the engine: {exc}",
            )
            return
        if isinstance(out, PlanResult):
            results, failures = out.results, out.failures
        else:
            results, failures = ([], [out]) if out.failed else ([out], [])
        if len(results) + len(failures) != len(reference):
            self.violation(
                scenario, kind, index,
                f"plan lost tasks: {len(results)} results + "
                f"{len(failures)} failures != {len(reference)}",
            )
            return
        for failure in failures:
            if not failure.kind:
                self.violation(
                    scenario, kind, index,
                    f"task {failure.task} failed without a damage kind",
                )
                return
        for result in results:
            if canonical_result(result.result) != reference[result.task]:
                self.violation(
                    scenario, kind, index,
                    f"SILENT WRONG ANSWER: {result.task} output differs "
                    "from the fault-free run",
                )
                return
        if failures:
            self.outcome("quarantined_typed")
        elif out.total_ns == ref_ns:
            self.outcome("latent" if _fault_fired(plan) else "masked")
        else:
            self.recovered(scenario, kind, index, out.total_ns - ref_ns)
        self.check_blackbox(scenario, kind, index, engine)
        if rerun is not None:
            self._scrub_and_reanalyze(
                engine, rerun, reference[rerun], kind, index
            )

    # -- solo engine points ---------------------------------------------

    def run_task_scenario(self, name: str) -> None:
        """Every clean-read point of ``name`` gets a media fault."""
        engine = self._engine()
        reference, ref_ns, trace = self._reference(engine, name)
        self.reference_digests[name] = digest(reference[name])
        candidates = trace.reads
        for i, (ordinal, offset, span) in enumerate(candidates):
            kind = MEDIA_FAULT_KINDS[i % len(MEDIA_FAULT_KINDS)]
            fault = self._make_fault(kind, offset, span, ordinal)
            self._engine_point(
                engine, name, reference, ref_ns, kind, ordinal, fault
            )
        self._second_kind_points(engine, name, reference, ref_ns, candidates)

    def _second_kind_points(
        self, engine, name, reference, ref_ns, candidates
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
                engine, name, reference, ref_ns, kind, ordinal, fault
            )

    def _engine_point(
        self, engine, name, reference, ref_ns, kind, index, fault
    ) -> None:
        """One fault under one solo run of ``name``, scrub leg after."""
        plan = FaultPlan(media_faults=[fault])
        self.classify(
            "engine", kind, index, engine, plan,
            lambda: engine.run(task_by_name(name), fault_plan=plan),
            reference, ref_ns, rerun=name,
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
        reference, ref_ns, trace = self._reference(engine, name)
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
                plan = FaultPlan(
                    wear_death=True, wear_limit=limit, wear_seed=seed
                )
                self.classify(
                    "wear", "wear_death", (limit, seed), engine, plan,
                    lambda: engine.run(task_by_name(name), fault_plan=plan),
                    reference, ref_ns, rerun=name,
                )

    # -- guard-infrastructure points ------------------------------------

    def run_infra_scenario(self) -> None:
        """Faults aimed at the guard's own on-media bookkeeping."""
        name = self.config.tasks[0]
        engine = self._engine()
        reference, ref_ns, _ = self._reference(engine, name)
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
                engine, name, reference, ref_ns, f"infra_{label}",
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
        reference = {
            r.task: canonical_result(r.result) for r in ref_plan.results
        }
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
            plan = FaultPlan(media_faults=[fault])
            self.classify(
                "fused", f"fused_{kind}", ordinal, engine, plan,
                lambda: engine.run_many(tasks, fault_plan=plan),
                reference, ref_plan.total_ns,
            )


def run_sweep(config: FaultSweepConfig | None = None) -> dict:
    """Run the full media-fault sweep; return the JSON-ready report."""
    config = config or FaultSweepConfig()
    sweep = FaultSweep(config)
    for name in config.tasks:
        sweep.run_task_scenario(name)
    sweep.run_wear_scenario()
    sweep.run_infra_scenario()
    sweep.run_fused_scenario()
    return sweep.report()


__all__ = ["FaultSweep", "FaultSweepConfig", "run_sweep"]
