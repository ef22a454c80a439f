"""Engine-level media resilience: graceful degradation, quarantine,
scrub + re-analyze, and fused sibling completion."""

import pytest

from repro.analytics import task_by_name
from repro.core import engine as engine_module
from repro.core.engine import (
    MAX_RECOVERIES,
    EngineConfig,
    NTadocEngine,
    TaskFailure,
)
from repro.errors import MediaError, ReproError
from repro.harness.faultsweep import _ReadTrace
from repro.nvm.faults import FaultPlan, MediaFault
from repro.obs.tracer import Tracer
from repro.sequitur import compress_files


@pytest.fixture(scope="module")
def corpus():
    phrase = (
        "persistent analytics over compressed text without decompression "
    )
    return compress_files(
        [
            ("a.txt", (phrase + "alpha beta ") * 6),
            ("b.txt", ("beta gamma " + phrase) * 6),
        ]
    )


def protected_engine(corpus, **kwargs):
    return NTadocEngine(
        corpus, EngineConfig(media_protect=True, **kwargs)
    )


def reference(engine, name):
    """Fault-free run plus its traced clean-read points."""
    trace = _ReadTrace()
    plan = FaultPlan()
    plan.on_read = trace
    ref = engine.run(task_by_name(name), fault_plan=plan)
    assert not ref.failed
    return ref, trace


def fault_at(trace, index=0, kind="bitflip"):
    ordinal, offset, _span = trace.reads[index]
    return MediaFault(kind, offset, b"\xff", arm_read=ordinal - 1)


class TestRunResilient:
    def test_recovers_bit_identical_output(self, corpus):
        engine = protected_engine(corpus)
        ref, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        assert out.result == ref.result
        # Recovery is real, charged work: the clock must have moved.
        assert out.total_ns > ref.total_ns

    def test_recovery_quarantines_damaged_build(self, corpus):
        engine = protected_engine(corpus)
        _, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        names = engine.last_state.pool.region_names()
        assert any(n.startswith("__quarantined") for n in names)

    def test_unprotected_fault_fails_typed(self, corpus):
        engine = NTadocEngine(corpus, EngineConfig(media_protect=False))
        out = engine.run(task_by_name("word_count"))
        assert not out.failed  # no faults, no guard needed
        # Now arm a fault with no guard: typed failure, no silent answer.
        protected = protected_engine(corpus)
        _, trace = reference(protected, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        if out.failed:  # fault landed on consumed bytes of this layout
            assert out.kind == "unprotected"
            assert isinstance(out, TaskFailure)

    def test_exhausted_recoveries_fail_typed(self, corpus, monkeypatch):
        engine = protected_engine(corpus)
        _, trace = reference(engine, "word_count")
        # Stuck damage on the read path, zero recoveries allowed: the
        # first MediaError must surface as a TaskFailure.
        monkeypatch.setattr(engine_module, "MAX_RECOVERIES", 0)
        plan = FaultPlan(
            media_faults=[fault_at(trace, index=2, kind="stuck_line")]
        )
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert out.failed
        assert out.kind in ("checksum", "stuck", "lost")
        assert out.error
        assert out.total_ns > 0

    def test_failure_and_result_expose_failed_flag(self, corpus):
        engine = protected_engine(corpus)
        ref, _ = reference(engine, "word_count")
        assert ref.failed is False
        failure = TaskFailure(task="word_count", error="boom", kind="stuck")
        assert failure.failed is True


class TestScrubAndReanalyze:
    def test_scrub_then_rerun_matches_reference(self, corpus):
        engine = protected_engine(corpus)
        ref, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        first = engine.scrub_and_quarantine()
        second = engine.scrub_and_quarantine()
        assert second.mismatches == 0
        assert second.quarantined == 0
        again = engine.rerun_resilient(task_by_name("word_count"))
        assert not again.failed
        assert again.result == ref.result

    def test_scrub_without_resilient_run_raises(self, corpus):
        engine = protected_engine(corpus)
        with pytest.raises(ReproError):
            engine.scrub_and_quarantine()
        with pytest.raises(ReproError):
            engine.rerun_resilient(task_by_name("word_count"))

    def test_recovery_emits_obs_spans(self, corpus):
        tracer = Tracer()
        engine = protected_engine(corpus, tracer=tracer)
        _, trace = reference(engine, "word_count")
        plan = FaultPlan(media_faults=[fault_at(trace, index=2)])
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        names = [span.name for span in tracer.spans()]
        assert "recover:media" in names
        assert "scrub:pass" in names
        recover = next(
            s for s in tracer.spans() if s.name == "recover:media"
        )
        assert recover.attrs["quarantined_regions"] >= 1

    def test_interrupted_attempt_counts_toward_total(self, corpus):
        """A fault at the first clean read unwinds an open phase; the
        time that attempt charged stays in the run's total, so recovery
        costs more than the fault-free run and the root spans still
        partition the total exactly."""
        tracer = Tracer()
        engine = protected_engine(corpus, tracer=tracer)
        ref, trace = reference(engine, "word_count")
        tracer.reset()
        plan = FaultPlan(media_faults=[fault_at(trace, index=0)])
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert not out.failed
        assert out.result == ref.result
        assert out.total_ns > ref.total_ns
        assert tracer.total_sim_ns() == out.total_ns
        assert all(root.category == "phase" for root in tracer.roots)


class TestRunManyResilient:
    TASKS = ("word_count", "inverted_index", "term_vector")

    def test_fault_free_plan_matches_run_many(self, corpus):
        engine = protected_engine(corpus)
        tasks = [task_by_name(n) for n in self.TASKS]
        plan = engine.run_many(tasks)
        assert not plan.failures
        normal = engine.run_many([task_by_name(n) for n in self.TASKS])
        for a, b in zip(plan.results, normal.results):
            assert a.result == b.result

    def _damage_siblings(self, corpus, traversal, pick):
        """Fault one clean-media read of the fused trio (``pick`` chooses
        which of the traced reads); every sibling must still finish with
        the fault-free answer or fail typed."""
        engine = protected_engine(corpus, traversal=traversal)
        tasks = [task_by_name(n) for n in self.TASKS]
        trace = _ReadTrace()
        counter = FaultPlan()
        counter.on_read = trace
        ref = engine.run_many(tasks, fault_plan=counter)
        ref_results = {r.task: r.result for r in ref.results}
        fplan = FaultPlan(media_faults=[fault_at(trace, index=pick(trace.reads))])
        out = engine.run_many(
            [task_by_name(n) for n in self.TASKS], fault_plan=fplan
        )
        assert not out.stats.fused  # the fault hit: degraded mode ran
        assert len(out.results) + len(out.failures) == len(self.TASKS)
        for run in out.results:
            assert run.result == ref_results[run.task]
        for failure in out.failures:
            assert failure.kind  # typed, never silent

    def test_siblings_complete_around_damage(self, corpus):
        # The 6th clean-media read of the bottom-up trio, pinned so the
        # scenario does not move with the auto strategy rule.
        self._damage_siblings(corpus, "bottomup", lambda reads: 5)

    def test_siblings_complete_around_damage_auto(self, corpus):
        # Under auto this 2-file corpus runs top-down, which makes fewer
        # clean-media reads; damage the last one.
        self._damage_siblings(corpus, "auto", lambda reads: len(reads) - 1)

    def test_sibling_shares_partition_the_plan(self, corpus):
        """After a recovery each sibling reports its own re-run, so the
        interrupted attempt, the recovery phase and the sibling shares
        add up to the plan total exactly."""
        engine = protected_engine(corpus)
        tasks = [task_by_name(n) for n in self.TASKS]
        trace = _ReadTrace()
        counter = FaultPlan()
        counter.on_read = trace
        engine.run_many(tasks, fault_plan=counter)
        fplan = FaultPlan(media_faults=[fault_at(trace, index=0)])
        out = engine.run_many(tasks, fault_plan=fplan)
        assert not out.failures and len(out.results) == len(self.TASKS)
        records = engine.last_state.timeline.records
        names = [record.name for record in records]
        cut = names.index("phase:recovery")
        attempt = sum(record.sim_ns for record in records[:cut])
        recovery = records[cut].sim_ns
        shares = [run.total_ns for run in out.results]
        assert attempt + recovery + sum(shares) == out.total_ns
        for run in out.results:
            assert sum(run.phase_ns.values()) == run.total_ns
            assert 0 < run.total_ns < out.total_ns - attempt - recovery

    def test_empty_task_list_rejected(self, corpus):
        engine = protected_engine(corpus)
        with pytest.raises(ValueError):
            engine.run_many([])


def persistent_damage(corpus, names, tracer=None):
    """A fault plan whose damage outlives every rebuild of ``names``.

    A stuck line on a consumed read fails the first build; a probe run
    shows where recovery puts its transaction log, and a wide stuck
    range just past it catches every rebuild the engine lays out there.
    Returns ``(engine, plan)``.
    """
    probe = protected_engine(corpus)
    trace = _ReadTrace()
    counter = FaultPlan()
    counter.on_read = trace
    probe.run_many([task_by_name(n) for n in names], fault_plan=counter)

    def first():
        return fault_at(trace, index=2, kind="stuck_line")

    probe.run_many(
        [task_by_name(n) for n in names],
        fault_plan=FaultPlan(media_faults=[first()]),
    )
    offset, size = probe.last_state.pool.get_region("__txlog__")
    wide = MediaFault("stuck_line", offset + size, b"\xff" * (1 << 18))
    engine = protected_engine(corpus, tracer=tracer)
    return engine, FaultPlan(media_faults=[first(), wide])


class TestDegradationContract:
    """One recovery budget on every task's path, solo or fused."""

    TASKS = ("word_count", "inverted_index", "term_vector")

    def test_unprotected_run_returns_typed_failure(self, corpus):
        # A device-reported uncorrectable read, with no guard attached to
        # recover from it: run() returns the typed failure, never raises.
        def uncorrectable(mem, offset, size):
            raise MediaError("uncorrectable read", offset=offset, kind="checksum")

        engine = NTadocEngine(corpus, EngineConfig(media_protect=False))
        plan = FaultPlan()
        plan.on_read = uncorrectable
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert isinstance(out, TaskFailure)
        assert out.kind == "unprotected"
        plan = FaultPlan()
        plan.on_read = uncorrectable
        fused = engine.run_many(
            [task_by_name(n) for n in self.TASKS], fault_plan=plan
        )
        assert not fused.results
        assert [f.kind for f in fused.failures] == ["unprotected"] * 3

    def test_persistent_stuck_line_spends_the_whole_budget(self, corpus):
        tracer = Tracer()
        engine, plan = persistent_damage(corpus, ["word_count"], tracer)
        out = engine.run(task_by_name("word_count"), fault_plan=plan)
        assert isinstance(out, TaskFailure)
        assert out.kind in ("checksum", "stuck", "lost")
        assert len(tracer.find("recover:media")) == MAX_RECOVERIES

    def test_fused_trio_shares_the_budget(self, corpus):
        # The fused plan's recovery counts against every sibling's path:
        # each path holds it plus MAX_RECOVERIES - 1 of its own.
        tracer = Tracer()
        tasks = [task_by_name(n) for n in self.TASKS]
        engine, plan = persistent_damage(corpus, self.TASKS, tracer)
        out = engine.run_many(tasks, fault_plan=plan)
        assert not out.results
        assert len(out.failures) == len(tasks)
        assert all(f.kind for f in out.failures)
        per_path = 1 + len(tasks) * (MAX_RECOVERIES - 1)
        assert len(tracer.find("recover:media")) == per_path

    def test_fused_recoveries_bounded_at_every_point(self, corpus):
        tasks = [task_by_name(n) for n in self.TASKS]
        engine = protected_engine(corpus)
        trace = _ReadTrace()
        counter = FaultPlan()
        counter.on_read = trace
        engine.run_many(tasks, fault_plan=counter)
        bound = 1 + len(tasks) * (MAX_RECOVERIES - 1)
        step = max(len(trace.reads) // 12, 1)
        for index in range(0, len(trace.reads), step):
            tracer = Tracer()
            traced = protected_engine(corpus, tracer=tracer)
            fault = fault_at(trace, index=index, kind="stuck_line")
            out = traced.run_many(tasks, fault_plan=FaultPlan(media_faults=[fault]))
            assert len(out.results) + len(out.failures) == len(tasks)
            assert len(tracer.find("recover:media")) <= bound
