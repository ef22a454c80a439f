"""Tests for engine internals: config validation, sizing, persistence
plumbing, strategy resolution, and measurement bookkeeping."""

import pytest

from repro.analytics.sequence_count import SequenceCount
from repro.analytics.word_count import WordCount
from repro.core.engine import (
    BOTTOMUP_RATIO,
    EngineConfig,
    NTadocEngine,
    check_pool_fits,
    run_task,
    serialized_size,
)
from repro.errors import ReproError
from repro.sequitur import serialization
from repro.sequitur.compressor import compress_files


@pytest.fixture(scope="module")
def corpus():
    files = [(f"f{i}", "epsilon zeta eta " * 12 + f"unique{i}") for i in range(6)]
    return compress_files(files)


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.device == "nvm"
        assert config.persistence == "phase"

    def test_bad_persistence_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(persistence="eventually")

    def test_bad_traversal_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(traversal="sideways")

    @pytest.mark.parametrize("field", ["device", "disk"])
    def test_unknown_device_rejected_at_construction(self, field):
        with pytest.raises(ValueError, match=f"unknown {field}"):
            EngineConfig(**{field: "floppy"})

    def test_naive_implies_both_degradations(self):
        config = EngineConfig(naive=True)
        assert config.use_scattered_layout
        assert config.use_growable_structures

    def test_single_ablation_flags(self):
        assert EngineConfig(scattered_layout=True).use_scattered_layout
        assert not EngineConfig(scattered_layout=True).use_growable_structures
        assert EngineConfig(growable_structures=True).use_growable_structures

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().device = "hdd"


class TestSizingAndBookkeeping:
    def test_pool_autosize_sufficient_for_all_tasks(self, corpus):
        from repro.analytics import ALL_TASKS

        for task_cls in ALL_TASKS:
            run = NTadocEngine(corpus).run(task_cls())
            assert run.pool_peak > 0

    def test_pool_bytes_override(self, corpus):
        run = NTadocEngine(
            corpus, EngineConfig(pool_bytes=1 << 22)
        ).run(WordCount())
        assert run.pool_peak < (1 << 22)

    def test_serialized_size_memoized(self, corpus):
        first = serialized_size(corpus)
        assert serialized_size(corpus) == first
        assert first == len(serialization.serialize(corpus))

    def test_check_pool_fits(self, corpus):
        run = NTadocEngine(corpus).run(WordCount())
        check_pool_fits(run)  # no raise
        run.pool_peak = 0
        with pytest.raises(ReproError):
            check_pool_fits(run)

    def test_run_task_convenience(self, corpus):
        run = run_task(corpus, WordCount())
        assert run.task == "word_count"


class TestStrategyResolution:
    def test_auto_topdown_for_few_files(self, corpus):
        run = NTadocEngine(corpus).run(WordCount())
        assert run.strategy == "topdown"

    def test_auto_bottomup_above_threshold(self):
        # Ten times the fixture's files over the same grammar: top-down's
        # per-file sweeps (files x grammar length) now outweigh the
        # word-list volume bottom-up builds (sum of the bounds) by more
        # than BOTTOMUP_RATIO, where the fixture's ratio sits below it.
        files = [(f"f{i}", "epsilon zeta eta " * 12 + f"unique{i}") for i in range(60)]
        many = compress_files(files)
        engine = NTadocEngine(many)
        ratio = many.n_files * many.grammar_length() / sum(engine._bounds)
        assert ratio > BOTTOMUP_RATIO
        assert engine.run(WordCount()).strategy == "bottomup"

    def test_pinned_strategy_wins(self, corpus):
        config = EngineConfig(traversal="bottomup")
        run = NTadocEngine(corpus, config).run(WordCount())
        assert run.strategy == "bottomup"


class TestPersistencePlumbing:
    def test_none_persistence_skips_flushes(self, corpus):
        none = NTadocEngine(
            corpus, EngineConfig(device="dram", persistence="none")
        ).run(WordCount())
        phase = NTadocEngine(corpus).run(WordCount())
        assert none.pool_stats.flushed_lines == 0
        assert phase.pool_stats.flushed_lines > 0

    def test_operation_persistence_flushes_more(self, corpus):
        # op_batch=1 commits every operation; on this tiny corpus the
        # default batching can collapse to a single commit, whose flush
        # count ties the phase path's data+marker barriers.
        phase = NTadocEngine(corpus).run(WordCount())
        op = NTadocEngine(
            corpus, EngineConfig(persistence="operation", op_batch=1)
        ).run(WordCount())
        assert op.pool_stats.flush_ops > phase.pool_stats.flush_ops
        assert op.total_ns > phase.total_ns

    def test_op_batch_amortizes(self, corpus):
        fine = NTadocEngine(
            corpus, EngineConfig(persistence="operation", op_batch=1)
        ).run(WordCount())
        coarse = NTadocEngine(
            corpus, EngineConfig(persistence="operation", op_batch=32)
        ).run(WordCount())
        assert fine.pool_stats.flush_ops > coarse.pool_stats.flush_ops
        assert fine.total_ns > coarse.total_ns
        assert fine.result == coarse.result


class TestWorkloadKnobs:
    def test_ngram_n_changes_headtail_width(self, corpus):
        engine2 = NTadocEngine(corpus, EngineConfig(ngram_n=2))
        engine4 = NTadocEngine(corpus, EngineConfig(ngram_n=4))
        assert engine2._headtail_k == 1
        assert engine4._headtail_k == 3
        run2 = engine2.run(SequenceCount())
        run4 = engine4.run(SequenceCount())
        # 4-grams are strictly rarer than bigrams.
        assert sum(run4.result.values()) < sum(run2.result.values())

    def test_bounds_are_clamped(self, corpus):
        engine = NTadocEngine(corpus)
        vocab = len(corpus.vocab)
        explens = engine._dag.expansion_lengths()
        for rule, bound in enumerate(engine._bounds):
            assert bound <= vocab
            assert bound <= explens[rule]

    def test_disk_device_affects_init(self, corpus):
        fast = NTadocEngine(corpus, EngineConfig(disk="ssd")).run(WordCount())
        slow = NTadocEngine(corpus, EngineConfig(disk="hdd")).run(WordCount())
        assert slow.init_ns > fast.init_ns
        assert slow.result == fast.result
