"""The "auto" traversal rule picks the cheaper per-file counting strategy.

One input-derived rule (``NTadocEngine._resolve_strategy``: bottom-up
when files x grammar length exceeds ``BOTTOMUP_RATIO`` x the summed
Algorithm-2 bounds) decides every plan's strategy, solo or fused.  Over
the paper's profiles A-D and two segments shaped like the ones segmented
ingest seals (12 and 120 Zipf documents), the fused trio under ``auto``
must charge exactly one of the two pinned plans, never more than 10%
above the cheaper one (the gap measured at the crossover), and on A-D
less than its three tasks run as separate plans of one.
"""

from __future__ import annotations

import pytest

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets import corpus_for
from repro.ingest import synthetic_trace
from repro.sequitur import compress_files

TRIO = ("word_count", "inverted_index", "term_vector")
PROFILES = ("A", "B", "C", "D")
SEGMENTS = (12, 120)
#: How far above the cheaper pinned plan "auto" may land.
SLACK = 1.10


def _segment(n_docs: int):
    """A corpus of ``n_docs`` documents shaped like an ingest segment."""
    trace = synthetic_trace(n_docs=n_docs, doc_tokens=50, rounds=0, seed=n_docs)
    return compress_files([(op.name, op.text) for op in trace if op.op == "append"])


def _corpus(name: str):
    if name.startswith("seg"):
        return _segment(int(name[3:]))
    return corpus_for(name, 0.2)


def _trio(corpus, traversal: str):
    engine = NTadocEngine(corpus, EngineConfig(traversal=traversal))
    return engine.run_many([task_by_name(n) for n in TRIO])


@pytest.mark.parametrize(
    "name", [*PROFILES, *(f"seg{n}" for n in SEGMENTS)]
)
def test_auto_charges_the_cheaper_pinned_plan(name):
    corpus = _corpus(name)
    auto = _trio(corpus, "auto")
    pinned = {s: _trio(corpus, s) for s in ("topdown", "bottomup")}
    picked = NTadocEngine(corpus)._resolve_strategy()
    assert {run.strategy for run in auto} == {picked}
    assert auto.total_ns == pinned[picked].total_ns
    assert auto.total_ns <= SLACK * min(p.total_ns for p in pinned.values())
    for plan in (auto, *pinned.values()):
        assert plan.stats.pool_builds == 1
        assert all(n <= 1 for n in plan.stats.dag_passes.values())
        assert plan.stats.segment_sweeps == 1
    for strategy, plan in pinned.items():
        for a, b in zip(auto, plan):
            assert a.result == b.result, (strategy, a.task)


@pytest.mark.parametrize("profile", PROFILES)
def test_fused_trio_beats_its_plans_of_one(profile):
    corpus = corpus_for(profile, 0.2)
    fused = _trio(corpus, "auto")
    solo = [NTadocEngine(corpus).run(task_by_name(n)) for n in TRIO]
    assert fused.total_ns < sum(run.total_ns for run in solo)
    for plan_run, solo_run in zip(fused, solo):
        assert plan_run.result == solo_run.result
