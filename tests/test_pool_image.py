"""The per-corpus pool image: builds that reuse it charge as builds that don't.

``CorpusAnalysis.pool_image`` keeps a :class:`~repro.core.pruning.PoolImage`
from the second pool build of a corpus on.  The image only supplies bytes,
so the first build (image made and dropped), the second (image made and
kept) and the third (image reused) must leave the pool memory identical:
clock, counters, device bytes, crash image, LRU order and the host decode
cache's rows, all with ``==``.
"""

from __future__ import annotations

import copy
from dataclasses import asdict

import pytest

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine, corpus_analysis
from repro.core.pruning import PoolImage
from repro.errors import CrashPoint
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan
from repro.nvm.memory import SimulatedMemory
from repro.pstruct.headtail import HeadTailStore
from repro.sequitur.compressor import compress_files

TEXTS = [
    ("a.txt", "the quick brown fox jumps over the lazy dog " * 12),
    ("b.txt", "the lazy dog sleeps while the quick fox runs " * 9),
    ("c.txt", "error retry timeout in the queue error retry " * 7),
    ("d.txt", "brown dog quick fox lazy timeout queue the " * 5),
]

VARIANTS = {
    "default": {},
    "small_cache": {"cache_bytes": 4096},
    "growable_structures": {"growable_structures": True},
    "scattered_layout": {"scattered_layout": True},
    "media_protect": {"media_protect": True},
    "reference": {"kernels": False},
}


def fresh_corpus():
    return compress_files(TEXTS)


def snapshot(mem: SimulatedMemory, pruned=None) -> tuple:
    """Every observable of a build that the image must not move."""
    crash = mem._flushed_image
    return (
        mem.clock.ns,
        asdict(mem.stats),
        bytes(mem._buf),
        None if crash is None else bytes(crash),
        list(mem._cache._lines.items()),  # content + LRU order
        mem._last_media_line,
        sorted(mem._dirty_lines),
        None if pruned is None else pruned._rows,
    )


def build_once(corpus, config: EngineConfig, fault_plan=None) -> tuple:
    """One cold pool build of ``corpus`` on a fresh engine and state."""
    engine = NTadocEngine(corpus, config)
    state = engine._new_state(fault_plan)
    on_rule = state.op_commit if config.persistence == "operation" else None
    pruned = None
    try:
        pruned = engine._build_pruned(state.pool, on_rule)
    except CrashPoint:
        state.pool_mem.crash()
    return snapshot(state.pool_mem, pruned)


def images_of(corpus, config: EngineConfig) -> dict:
    return corpus_analysis(corpus, max(config.ngram_n - 1, 1))._images


@pytest.mark.parametrize("persistence", ["phase", "operation"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_builds_from_the_image_charge_as_the_first(persistence, variant):
    corpus = fresh_corpus()
    config = EngineConfig(persistence=persistence, **VARIANTS[variant])
    bounded = not config.use_growable_structures
    first = build_once(corpus, config)
    assert images_of(corpus, config) == {bounded: None}
    second = build_once(corpus, config)
    image = images_of(corpus, config)[bounded]
    assert isinstance(image, PoolImage)
    third = build_once(corpus, config)
    assert images_of(corpus, config)[bounded] is image
    assert second == first
    assert third == first


@pytest.mark.parametrize("persistence", ["phase", "operation"])
@pytest.mark.parametrize("crash_index", [3, 40])
def test_builds_under_an_armed_fault_plan_crash_alike(persistence, crash_index):
    corpus = fresh_corpus()
    config = EngineConfig(persistence=persistence)
    runs = []
    for _ in range(3):
        plan = FaultPlan(crash_kind="write", crash_index=crash_index)
        runs.append((build_once(corpus, config, plan), plan.events, plan.serial))
    assert isinstance(images_of(corpus, config)[True], PoolImage)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_whole_runs_with_the_image_match_the_first():
    corpus = fresh_corpus()
    results = []
    for _ in range(3):
        engine = NTadocEngine(corpus, EngineConfig(persistence="operation"))
        plan = engine.run_many(
            [task_by_name(name) for name in ("word_count", "sequence_count")]
        )
        mem = engine.last_state.pool_mem
        results.append(
            (plan.total_ns, [r.result for r in plan.results], snapshot(mem)[:7])
        )
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_a_corpus_built_once_keeps_no_image():
    corpus = fresh_corpus()
    config = EngineConfig()
    build_once(corpus, config)
    assert images_of(corpus, config) == {True: None}


def test_bounded_and_unbounded_builds_never_share_an_image():
    corpus = fresh_corpus()
    bounded = EngineConfig()
    growable = EngineConfig(growable_structures=True)
    for _ in range(2):
        build_once(corpus, bounded)
        build_once(corpus, growable)
    images = images_of(corpus, bounded)
    assert set(images) == {True, False}
    assert images[True] is not images[False]
    assert images[True].meta != images[False].meta  # bounds vs zeros
    assert build_once(corpus, growable) != build_once(corpus, bounded)


def test_a_corpus_changed_in_place_gets_a_fresh_image():
    corpus = fresh_corpus()
    config = EngineConfig()
    for _ in range(2):
        build_once(corpus, config)
    old_image = images_of(corpus, config)[True]
    # Swap two distinct words of one body: same shape, new content key.
    key = corpus.content_key()
    body, i, j = next(
        (body, a, b)
        for body in corpus.rules
        for a, x in enumerate(body)
        for b, y in enumerate(body)
        if x < len(corpus.vocab) and y < len(corpus.vocab) and x != y
    )
    body[i], body[j] = body[j], body[i]
    assert corpus.content_key() != key
    changed = build_once(corpus, config)
    assert images_of(corpus, config) == {True: None}
    pristine = copy.deepcopy(corpus)
    del pristine._analysis_cache
    assert changed == build_once(pristine, config)
    build_once(corpus, config)
    assert images_of(corpus, config)[True].raw != old_image.raw


@pytest.mark.parametrize("cache_bytes", [1 << 20, 1024])
@pytest.mark.parametrize("k", [1, 3, 21])
@pytest.mark.parametrize("n_rules", [3, 97])
def test_hoisted_record_install_matches_per_record_writes(cache_bytes, k, n_rules):
    """HeadTailStore.install's hoisted loop (hits inline, misses and line
    straddles through ``write``) against the reference memory's writes.

    Three one-word records land inside one clean cached line that is not
    the most recently used, so only the inline hits touch it.
    """
    heads = [[(r * 7 + i) % 50 for i in range(r % (k + 2))] for r in range(n_rules)]
    tails = [[(r * 3 + i) % 50 for i in range(r % (k + 1))] for r in range(n_rules)]
    records = HeadTailStore.encode(heads, tails, k)
    snaps = []
    for reference in (False, True):
        mem = SimulatedMemory(
            DeviceProfile.by_name("nvm"), 1 << 16, cache_bytes=cache_bytes,
            reference=reference,
        )
        # Lines cached clean (0-6), two of them dirtied again (2-3).
        mem.write(0, bytes(range(200)) * 8)
        mem.flush()
        mem.write(700, b"\x05" * 300)
        allocator = PoolAllocator(mem, base=40, capacity=mem.size - 40)
        store = HeadTailStore.create(allocator, n_rules, k)
        store.install(records)
        snaps.append(snapshot(mem))
        assert [store.get(r) for r in range(n_rules)] == [
            (h[:k], t[-k:] if t else []) for h, t in zip(heads, tails)
        ]
    assert snaps[0] == snaps[1]
