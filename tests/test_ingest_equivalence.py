"""Differential contract of the segmented ingest engine.

For every analytics task and every tested configuration::

    incremental(corpus + appends + deletes) == recompress(final corpus)

canonical-JSON, through seals, compactions, crash-reopen cycles (including
crashes planted *inside* a compaction), and Hypothesis-generated random
interleavings of the whole op alphabet.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.errors import CrashPoint, ReproError
from repro.ingest import (
    SegmentedEngine,
    canonical_json,
    reference_rendered,
    synthetic_trace,
)
from repro.ingest.merge import MERGEABLE_TASKS
from repro.nvm.faults import FaultPlan

CONFIGS = [
    pytest.param(lambda: EngineConfig(), id="default"),
    pytest.param(
        lambda: EngineConfig(media_protect=True, track_wear=True),
        id="media-protect",
    ),
    pytest.param(lambda: EngineConfig(traversal="bottomup"), id="bottomup"),
]

PHRASE = "compressed text analytics without decompression "


def _doc(i: int) -> tuple[str, str]:
    return f"doc{i:02d}.txt", PHRASE * 2 + f"unique u{i} shared s{i % 3}"


def _assert_differential(eng, tasks=MERGEABLE_TASKS):
    res = eng.run_tasks(list(tasks))
    ref = eng.corpus.recompressed()
    for task in tasks:
        assert canonical_json(res.rendered[task]) == canonical_json(
            reference_rendered(task, ref, eng.config)
        ), task
    return res


def _build(config, n_docs=9, threshold=30):
    eng = SegmentedEngine(config, seal_threshold_tokens=threshold)
    for i in range(n_docs):
        eng.append(*_doc(i))
    return eng


@pytest.mark.parametrize("make_config", CONFIGS)
class TestDifferential:
    def test_append_only(self, make_config):
        eng = _build(make_config())
        res = _assert_differential(eng)
        assert res.n_segments == len(eng.corpus.segments)

    def test_deletes_filter_at_merge(self, make_config):
        eng = _build(make_config())
        eng.seal()
        eng.delete("doc01.txt")  # sealed: tombstone
        eng.append("extra.txt", PHRASE + "buffered b1 b2")
        eng.delete("extra.txt")  # buffered: removed outright
        eng.append("kept.txt", PHRASE + "kept k1")
        _assert_differential(eng)

    def test_compaction_is_invisible_to_queries(self, make_config):
        eng = _build(make_config())
        eng.seal()
        eng.delete("doc03.txt")
        before = _assert_differential(eng)
        n_before = len(eng.corpus.segments)
        assert n_before > 1
        eng.compact()
        assert len(eng.corpus.segments) == 1
        after = _assert_differential(eng)
        for task in MERGEABLE_TASKS:
            assert canonical_json(before.rendered[task]) == canonical_json(
                after.rendered[task]
            )

    def test_crash_reopen_then_requery(self, make_config):
        eng = _build(make_config())
        eng.seal()
        eng.delete("doc02.txt")
        _assert_differential(eng)  # leave query scratch on the device
        mem, arts, cfg = eng.memory, dict(eng.artifacts), eng.config
        mem.crash()
        eng2 = SegmentedEngine.reopen(mem, arts, cfg)
        assert eng2.corpus.live_doc_names() == eng.corpus.live_doc_names()
        _assert_differential(eng2)

    def test_reopen_drops_unsealed_buffer(self, make_config):
        eng = _build(make_config(), n_docs=6)
        eng.seal()
        eng.append("volatile.txt", "never sealed so never durable")
        mem, arts, cfg = eng.memory, dict(eng.artifacts), eng.config
        mem.crash()
        eng2 = SegmentedEngine.reopen(mem, arts, cfg)
        assert "volatile.txt" not in eng2.corpus.live_doc_names()
        _assert_differential(eng2)

    def test_life_continues_after_reopen(self, make_config):
        eng = _build(make_config(), n_docs=6)
        eng.seal()
        mem, arts, cfg = eng.memory, dict(eng.artifacts), eng.config
        mem.crash()
        eng2 = SegmentedEngine.reopen(mem, arts, cfg)
        eng2.delete("doc04.txt")
        eng2.append("late.txt", PHRASE + "late l1 l2")
        eng2.seal()
        eng2.compact()
        _assert_differential(eng2)


@pytest.mark.parametrize(
    "make_config",
    [CONFIGS[0], CONFIGS[1]],  # plain + media-protect cover the reopen paths
)
def test_crash_mid_compaction_resumes(make_config):
    """Crash at every compaction flush: recovery lands on the pre- or
    post-compaction segment set, and the differential contract still
    holds on the reopened engine."""

    def workload():
        eng = _build(make_config(), n_docs=9, threshold=30)
        eng.seal()
        eng.delete("doc01.txt")
        eng.delete("doc07.txt")
        return eng

    eng = workload()
    pre = set(eng.pool.segment_names())
    counter = FaultPlan()
    eng.memory.arm_faults(counter)
    eng.compact()
    eng.memory.disarm_faults()
    post = set(eng.pool.segment_names())
    n_flushes = counter.events["flush"]
    assert n_flushes >= 2  # install flush + commit flush at minimum

    for ordinal in range(1, n_flushes + 1):
        eng = workload()
        eng.memory.arm_faults(FaultPlan("flush", ordinal))
        with pytest.raises(CrashPoint):
            eng.compact()
        mem = eng.memory
        mem.disarm_faults()
        mem.crash()
        reopened = SegmentedEngine.reopen(
            mem, dict(eng.artifacts), eng.config
        )
        names = set(reopened.pool.segment_names())
        assert names in (pre, post), f"flush {ordinal}: mixed state {names}"
        _assert_differential(reopened)


def _poison(mem, extents):
    """Poke occupied status bytes and junk keys (word id 1, count 1) over
    whole extents: what a previous owner's hash tables could leave."""
    pattern = b"\x01" + bytes(7)
    for off, size in extents:
        mem.poke(off, (pattern * (size // len(pattern) + 1))[:size])


@pytest.mark.parametrize(
    "make_config",
    [
        CONFIGS[0],
        # Without wear tracking, so that placement recycles extents.
        pytest.param(lambda: EngineConfig(media_protect=True), id="media-protect"),
        CONFIGS[2],
    ],
)
def test_poisoned_stale_extents_match_recompress(make_config):
    """Recycled and reopened extents hold poison, yet every checkpoint
    equals ``recompress_baseline``: the rebuilds and queries read only
    lines their bump allocations zeroed."""
    eng = SegmentedEngine(make_config(), seal_threshold_tokens=10**9)
    recycled = rebuilt = 0
    n = 0
    for round_no in range(1, 13):
        for _ in range(3):
            eng.append(*_doc(n))
            n += 1
        live = eng.corpus.live_doc_names()
        eng.delete(live[round_no % len(live)])
        poisoned = {off for off, _ in eng.pool._free_extents}
        eng.seal()
        new = eng._device[eng.corpus.segments[-1].name]
        if eng.pool.get_segment(new.segment.name)[0] in poisoned:
            recycled += 1
            assert new.pool.allocator.zero_watermark > new.pool.allocator.base
        if round_no % 4 == 0:
            mem, arts, cfg = eng.memory, dict(eng.artifacts), eng.config
            mem.crash()
            eng = SegmentedEngine.reopen(
                mem, arts, cfg, seal_threshold_tokens=10**9
            )
            _poison(mem, [eng.pool.get_segment(s) for s in eng.pool.segment_names()])
        stale = [d for d in eng._device.values() if d.pruned is None]
        res = eng.run_tasks(list(MERGEABLE_TASKS))
        baseline, _ = eng.recompress_baseline(list(MERGEABLE_TASKS))
        for task in MERGEABLE_TASKS:
            assert canonical_json(res.rendered[task]) == canonical_json(
                baseline[task]
            ), (round_no, task)
        for dseg in stale:
            if dseg.segment.n_live:
                rebuilt += 1
                alloc = dseg.pool.allocator
                assert alloc.base < alloc.zero_watermark < alloc.base + alloc.capacity
        if round_no % 2 == 0:
            eng.compact()
            _poison(eng.memory, eng.pool._free_extents)
    assert recycled and rebuilt, (recycled, rebuilt)


def test_long_lived_segment_keeps_its_pool_in_place():
    """A segment queried 200 times without compaction never runs out of
    its extent: each checkpoint's scratch is released when it ends, so
    the nested pool's top and peak are the same after every query, and
    sampled checkpoints still equal ``recompress_baseline``."""
    tasks = ["word_count", "inverted_index"]
    eng = SegmentedEngine(EngineConfig(), seal_threshold_tokens=10**9)
    for op in synthetic_trace(n_docs=40, doc_tokens=40, rounds=0, seed=7):
        if op.op == "append":
            eng.append(op.name, op.text)
    eng.seal()
    (dseg,) = eng._device.values()
    alloc = dseg.pool.allocator
    built, regions = alloc.top, dseg.pool.region_names()
    first = None
    for query_no in range(1, 201):
        res = eng.run_tasks(tasks)
        after = (alloc.top, alloc.allocated_bytes, alloc.peak_bytes)
        if first is None:
            first = after
            assert alloc.top == built and alloc.peak_bytes > alloc.allocated_bytes
        assert after == first, query_no
        assert dseg.pool.region_names() == regions  # no results_* left
        if query_no in (1, 2, 100, 200):
            baseline, _ = eng.recompress_baseline(tasks)
            for task in tasks:
                assert canonical_json(res.rendered[task]) == canonical_json(
                    baseline[task]
                ), (query_no, task)


def test_query_on_empty_corpus_raises():
    eng = SegmentedEngine(EngineConfig())
    with pytest.raises(ReproError):
        eng.run_tasks(["word_count"])
    eng.append("a.txt", "one two")
    eng.delete("a.txt")
    with pytest.raises(ReproError):
        eng.run_tasks(["word_count"])


def test_unknown_task_rejected():
    eng = SegmentedEngine(EngineConfig())
    eng.append("a.txt", "one two")
    with pytest.raises(ReproError):
        eng.run_tasks(["no_such_task"])


# ---------------------------------------------------------------------------
# Random interleavings
# ---------------------------------------------------------------------------

_WORDS = ["nvm", "text", "grammar", "rule", "seal", "merge", "scan", "pool"]


def _random_text(rng: random.Random) -> str:
    return " ".join(rng.choices(_WORDS, k=rng.randint(3, 12)))


def _apply_ops(eng, ops, rng, *, allow_crash):
    """Replay generated op codes; returns the (possibly reopened) engine."""
    counter = 0
    for code in ops:
        if code == "append":
            eng.append(f"gen{counter:04d}", _random_text(rng))
            counter += 1
        elif code == "delete":
            live = eng.corpus.live_doc_names()
            if live:
                eng.delete(live[rng.randrange(len(live))])
        elif code == "seal":
            eng.seal()
        elif code == "compact":
            if eng.corpus.segments:
                eng.compact()
        elif code == "query":
            if eng.corpus.n_live:
                _assert_differential(eng, tasks=("word_count", "sort"))
        elif code == "crash":
            if allow_crash:
                mem, arts, cfg = eng.memory, dict(eng.artifacts), eng.config
                mem.crash()
                eng = SegmentedEngine.reopen(
                    mem, arts, cfg, seal_threshold_tokens=20
                )
    return eng


_OP_CODES = st.sampled_from(
    # appends dominate so corpora actually grow
    ["append"] * 4 + ["delete", "seal", "compact", "query"]
)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(_OP_CODES, min_size=4, max_size=18),
    seed=st.integers(0, 2**16),
)
def test_random_interleavings_match_recompress(ops, seed):
    eng = SegmentedEngine(EngineConfig(), seal_threshold_tokens=20)
    eng = _apply_ops(eng, ops, random.Random(seed), allow_crash=False)
    if eng.corpus.n_live:
        _assert_differential(eng)


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(
            ["append"] * 4 + ["delete", "seal", "compact", "query", "crash"]
        ),
        min_size=4,
        max_size=16,
    ),
    seed=st.integers(0, 2**16),
)
def test_random_interleavings_with_crashes(ops, seed):
    eng = SegmentedEngine(EngineConfig(), seal_threshold_tokens=20)
    eng = _apply_ops(eng, ops, random.Random(seed), allow_crash=True)
    if eng.corpus.n_live:
        _assert_differential(eng)
