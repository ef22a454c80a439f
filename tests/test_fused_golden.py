"""Golden charges of fused and per-file plans, down to LRU order and image.

``tests/golden/fused_runs.json`` holds, per run, the plan's ``total_ns``
(its ``repr``), its phase times, the pool device's ``MemoryStats``, a
digest of the pool cache's final ``(line, dirty)`` items in LRU order,
a digest of the pool device's final image, and a digest of the results.
Runs: the fused trio, ``ranked_inverted_index`` and ``sequence_count``
on profiles A-D at scale 0.2, under phase and operation persistence and
every traversal setting.  Every field is compared with ``==``: a change
to how the DAG walks are charged must not move one of them.

Regenerate (only on a tree whose charges are the reference)::

    PYTHONPATH=src python tests/test_fused_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets import corpus_for
from repro.harness.crashsweep import canonical_result

GOLDEN = Path(__file__).parent / "golden" / "fused_runs.json"
PROFILES = ("A", "B", "C", "D")
SCALE = 0.2
RUNS = {
    "trio": ("word_count", "inverted_index", "term_vector"),
    "ranked_inverted_index": ("ranked_inverted_index",),
    "sequence_count": ("sequence_count",),
}
PERSISTENCE = ("phase", "operation")
TRAVERSAL = ("auto", "topdown", "bottomup")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def _case(profile: str, run: str, persistence: str, traversal: str) -> dict:
    engine = NTadocEngine(
        corpus_for(profile, SCALE),
        EngineConfig(persistence=persistence, traversal=traversal),
    )
    plan = engine.run_many([task_by_name(name) for name in RUNS[run]])
    mem = engine.last_state.pool.memory
    results = [[r.result, r.ngram_names] for r in plan.results]
    return {
        "total_ns": repr(plan.total_ns),
        "phase_ns": {name: repr(ns) for name, ns in plan.phase_ns.items()},
        "stats": asdict(mem.stats),
        "lru": _digest(repr(list(mem._cache._lines.items())).encode()),
        "image": _digest(mem.peek(0, mem.size)),
        "results": _digest(canonical_result(results).encode()),
    }


def _keys():
    for profile in PROFILES:
        for run in RUNS:
            for persistence in PERSISTENCE:
                for traversal in TRAVERSAL:
                    yield f"{run}|{profile}|{persistence}|{traversal}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_keys())


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_fused_runs_match_golden(golden, profile, run):
    for persistence in PERSISTENCE:
        for traversal in TRAVERSAL:
            key = f"{run}|{profile}|{persistence}|{traversal}"
            assert _case(profile, run, persistence, traversal) == golden[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: test_fused_golden.py --capture")
    rows = {}
    for key in _keys():
        run, profile, persistence, traversal = key.split("|")
        rows[key] = _case(profile, run, persistence, traversal)
    text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} rows into {GOLDEN}")
