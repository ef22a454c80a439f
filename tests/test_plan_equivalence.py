"""Fused-plan equivalence: run_many == sequential run(), bit-identical.

The shared-traversal planner (repro.core.plan) must never change what a
task computes -- only how many device passes pay for it.  "Bit-identical"
is the crash-sweep harness's definition: canonical sorted-key JSON of
the result object.

Also covered: plan statistics (one pool build, at most one DAG pass per
direction), per-task time attribution (a partition of the plan's single
charge), the baselines' sequential run_many, and a crash/resume smoke
case through the fused path.
"""

import pytest

from repro.analytics import (
    ALL_TASKS,
    InvertedIndex,
    RankedInvertedIndex,
    SequenceCount,
    Sort,
    TermVector,
    WordCount,
)
from repro.analytics.locate import WordLocate
from repro.analytics.search import WordSearch
from repro.baselines.uncompressed import UncompressedEngine
from repro.core.engine import EngineConfig, NTadocEngine
from repro.core.recovery import recover_pool
from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.errors import CrashPoint
from repro.harness.sweep import canonical_result
from repro.harness.runner import run_many_system
from repro.nvm.faults import FaultPlan
from repro.sequitur.compressor import compress_files


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(
        n_files=24, tokens_per_file=220, vocab_size=90, seed=1301
    )
    return compress_files(generate_corpus_files(spec))


def make_tasks(engine):
    """One instance of every task, including the query-shaped ones."""
    explens = engine._dag.expansion_lengths()
    return [
        WordCount(),
        Sort(),
        TermVector(),
        InvertedIndex(),
        SequenceCount(),
        RankedInvertedIndex(),
        WordSearch([2, 5, 9]),
        WordLocate(4, explens),
    ]


CONFIGS = {
    "auto": EngineConfig(),
    "topdown": EngineConfig(traversal="topdown"),
    "bottomup": EngineConfig(traversal="bottomup"),
    "operation": EngineConfig(persistence="operation"),
}


class TestFusedEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_all_tasks_fused_match_sequential(self, corpus, config_name):
        engine = NTadocEngine(corpus, CONFIGS[config_name])
        sequential = [engine.run(task) for task in make_tasks(engine)]
        plan = engine.run_many(make_tasks(engine))
        assert len(plan) == len(sequential)
        for solo, fused in zip(sequential, plan):
            assert canonical_result(fused.result) == canonical_result(
                solo.result
            ), f"{solo.task} diverged under config {config_name}"
            assert fused.fused and not solo.fused

    def test_each_task_solo_plan_matches_run(self, corpus):
        engine = NTadocEngine(corpus)
        for task, again in zip(make_tasks(engine), make_tasks(engine)):
            solo = engine.run(task)
            plan = engine.run_many([again])
            assert canonical_result(plan[0].result) == canonical_result(
                solo.result
            ), task.name

    @pytest.mark.parametrize(
        "combo",
        [
            (WordCount, InvertedIndex),
            (Sort, SequenceCount),
            (TermVector, RankedInvertedIndex),
            (WordCount, TermVector, SequenceCount, InvertedIndex),
        ],
    )
    def test_sampled_combos(self, corpus, combo):
        engine = NTadocEngine(corpus)
        tasks = [cls() for cls in combo]
        sequential = [engine.run(cls()) for cls in combo]
        plan = engine.run_many(tasks)
        for solo, fused in zip(sequential, plan):
            assert canonical_result(fused.result) == canonical_result(
                solo.result
            )


class TestPlanShape:
    def test_acceptance_trio_single_build_single_passes(self, corpus):
        engine = NTadocEngine(corpus)
        plan = engine.run_many([WordCount(), InvertedIndex(), TermVector()])
        stats = plan.stats
        assert stats.fused
        assert stats.pool_builds == 1
        assert all(count <= 1 for count in stats.dag_passes.values())
        assert stats.segment_sweeps <= 1
        assert stats.n_tasks == 3

    def test_whole_suite_stays_at_one_pass_per_direction(self, corpus):
        engine = NTadocEngine(corpus)
        plan = engine.run_many(make_tasks(engine))
        assert plan.stats.pool_builds == 1
        assert all(c <= 1 for c in plan.stats.dag_passes.values())

    def test_groups_name_every_task(self, corpus):
        engine = NTadocEngine(corpus)
        plan = engine.run_many([WordCount(), InvertedIndex()])
        named = [n for names in plan.stats.groups.values() for n in names]
        assert sorted(named) == ["inverted_index", "word_count"]

    def test_attribution_partitions_the_single_charge(self, corpus):
        engine = NTadocEngine(corpus)
        plan = engine.run_many([WordCount(), InvertedIndex(), TermVector()])
        assert plan.total_ns > 0
        attributed = sum(run.total_ns for run in plan)
        assert attributed == pytest.approx(plan.total_ns, rel=1e-9)
        for run in plan:
            assert run.shared_ns >= 0
            assert run.exclusive_ns >= 0
            assert run.total_ns == pytest.approx(
                run.shared_ns + run.exclusive_ns, rel=1e-9
            )

    def test_fused_plan_is_cheaper_than_sequential(self, corpus):
        engine = NTadocEngine(corpus)
        tasks = [WordCount(), InvertedIndex(), TermVector()]
        sequential_ns = sum(
            engine.run(type(task)()).total_ns for task in tasks
        )
        plan = engine.run_many(tasks)
        assert plan.total_ns < sequential_ns

    def test_by_task_lookup(self, corpus):
        engine = NTadocEngine(corpus)
        plan = engine.run_many([WordCount(), InvertedIndex()])
        assert plan.by_task("inverted_index").task == "inverted_index"
        with pytest.raises(KeyError):
            plan.by_task("frequency_hologram")

    def test_empty_plan_rejected(self, corpus):
        engine = NTadocEngine(corpus)
        with pytest.raises(ValueError):
            engine.run_many([])


class TestBaselinePlans:
    def test_uncompressed_run_many_is_sequential(self, corpus):
        engine = UncompressedEngine(corpus)
        solo = [engine.run(WordCount()), engine.run(InvertedIndex())]
        plan = engine.run_many([WordCount(), InvertedIndex()])
        assert not plan.stats.fused
        assert plan.stats.pool_builds == 2
        for s, p in zip(solo, plan):
            assert canonical_result(p.result) == canonical_result(s.result)
        assert plan.total_ns == pytest.approx(
            sum(run.total_ns for run in plan)
        )

    def test_naive_port_run_many_is_sequential(self, corpus):
        plan = run_many_system("naive_nvm", corpus, [WordCount(), Sort()])
        assert not plan.stats.fused
        assert plan.stats.pool_builds == 2

    def test_registry_fuses_ntadoc(self, corpus):
        plan = run_many_system("ntadoc", corpus, [WordCount(), Sort()])
        assert plan.stats.fused
        assert plan.stats.pool_builds == 1


class TestFusedCrashResume:
    """Crash a fused plan mid-traversal; resume must be bit-identical."""

    def test_crash_mid_fused_traversal_and_resume(self, corpus):
        tasks = [WordCount(), InvertedIndex(), TermVector()]
        engine = NTadocEngine(corpus)
        counter = FaultPlan()
        reference = engine.run_many(
            [WordCount(), InvertedIndex(), TermVector()], fault_plan=counter
        )
        reference_json = [canonical_result(r.result) for r in reference]
        profiles = counter.flush_profiles
        # Phase persistence emits 4 flushes; the marker after flush #2
        # checkpoints initialization.  Pick a write ordinal strictly
        # between the init checkpoint and the end of the run: the crash
        # lands mid-fused-traversal.
        assert len(profiles) == 4
        after_init = profiles[1]["writes_before"]
        total_writes = counter.events["write"]
        assert total_writes > after_init + 2
        crash_at = after_init + (total_writes - after_init) // 2

        plan = FaultPlan("write", crash_at)
        with pytest.raises(CrashPoint):
            engine.run_many(tasks, fault_plan=plan)
        mem = plan.memory
        mem.disarm_faults()
        mem.crash()
        report = recover_pool(mem)
        assert report.last_completed_phase == "initialization"
        assert report.pruned is not None

        resumed = engine.run_many(
            [WordCount(), InvertedIndex(), TermVector()], resume_from=report
        )
        assert [canonical_result(r.result) for r in resumed] == reference_json
        assert all(run.resumed for run in resumed)

    def test_resume_after_pre_checkpoint_crash_rebuilds(self, corpus):
        tasks = lambda: [WordCount(), Sort()]  # noqa: E731
        engine = NTadocEngine(corpus)
        reference = engine.run_many(tasks())
        plan = FaultPlan("write", 3)  # long before the init checkpoint
        with pytest.raises(CrashPoint):
            engine.run_many(tasks(), fault_plan=plan)
        mem = plan.memory
        mem.disarm_faults()
        mem.crash()
        # Nothing checkpointed: recovery either refuses (full restart) or
        # reports a rebuild; run_many(resume_from=...) must still produce
        # the uncrashed results by rebuilding.
        try:
            report = recover_pool(mem)
        except Exception:
            resumed = engine.run_many(tasks())
        else:
            resumed = engine.run_many(tasks(), resume_from=report)
        assert [canonical_result(r.result) for r in resumed] == [
            canonical_result(r.result) for r in reference
        ]


class TestTracedEquivalence:
    """Attaching a span tracer must not move a single charged nanosecond."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_traced_plan_is_bit_identical(self, corpus, config_name):
        from dataclasses import replace

        from repro.obs.tracer import Tracer

        base_config = CONFIGS[config_name]
        plain_engine = NTadocEngine(corpus, base_config)
        plain = plain_engine.run_many(make_tasks(plain_engine))

        tracer = Tracer()
        traced_engine = NTadocEngine(
            corpus, replace(base_config, tracer=tracer)
        )
        traced = traced_engine.run_many(make_tasks(traced_engine))

        assert traced.total_ns == plain.total_ns  # bit-identical, no approx
        assert traced.phase_ns == plain.phase_ns
        for solo, other in zip(plain.results, traced.results):
            assert canonical_result(other.result) == canonical_result(
                solo.result
            )
            assert other.total_ns == solo.total_ns
            assert other.exclusive_ns == solo.exclusive_ns
        # And the trace itself partitions the plan's single charge.
        assert tracer.total_sim_ns() == traced.total_ns

    def test_traced_solo_is_bit_identical(self, corpus):
        from dataclasses import replace

        from repro.obs.tracer import Tracer

        plain = NTadocEngine(corpus, CONFIGS["auto"]).run(WordCount())
        tracer = Tracer()
        traced = NTadocEngine(
            corpus, replace(CONFIGS["auto"], tracer=tracer)
        ).run(WordCount())
        assert traced.total_ns == plain.total_ns
        assert canonical_result(traced.result) == canonical_result(
            plain.result
        )


def test_all_tasks_registry_untouched():
    # The planner must not have narrowed the benchmark suite.
    assert len(ALL_TASKS) == 6
