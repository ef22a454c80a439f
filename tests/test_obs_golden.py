"""Golden recording output: metrics, journal and black box stay byte-exact.

``tests/golden/obs_runs.json`` holds, per fault-free run, the texts
``ntadoc run TASKS DATASET --metrics json`` and ``--metrics prom`` print
(the registry's canonical snapshot and its Prometheus exposition), the
event journal's canonical JSON, and a SHA-256 of the pool's
``__flightrec__`` ring after the run.  Runs: ``word_count`` alone and the
fused trio on A@0.1 and B@0.1, plus a small segmented-ingest trace.
Every field is compared with ``==``: recording is observational, so a
change to how it is wired must not move one byte of what it records.

Regenerate (only on a tree whose recording output is the reference)::

    PYTHONPATH=src python tests/test_obs_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets import corpus_for
from repro.ingest import SegmentedEngine, replay_trace, synthetic_trace
from repro.nvm.flightrec import FLIGHTREC_REGION

GOLDEN = Path(__file__).parent / "golden" / "obs_runs.json"
TRIO = ("word_count", "inverted_index", "term_vector")
CASES = {
    f"{profile}@0.1/{'+'.join(tasks)}": (profile, tasks)
    for profile in ("A", "B")
    for tasks in (("word_count",), TRIO)
}
SEGMENTED = "segmented/synthetic"


def _ring_digest(pool) -> str:
    offset, size = pool.get_region(FLIGHTREC_REGION)
    return hashlib.sha256(pool.memory.peek(offset, size)).hexdigest()


def _record(engine, pool) -> dict[str, str]:
    return {
        "metrics_json": engine.metrics.to_json(),
        "metrics_prom": engine.metrics.expose(),
        "events_json": engine.journal.to_json(),
        "flightrec_sha256": _ring_digest(pool),
    }


def _engine_case(profile: str, tasks: tuple[str, ...]) -> dict[str, str]:
    engine = NTadocEngine(corpus_for(profile, 0.1), EngineConfig())
    if len(tasks) == 1:
        engine.run(task_by_name(tasks[0]))
    else:
        engine.run_many([task_by_name(name) for name in tasks])
    return _record(engine, engine.last_state.pool)


def _segmented_case() -> dict[str, str]:
    engine = SegmentedEngine(EngineConfig(), seal_threshold_tokens=256)
    ops = synthetic_trace(n_docs=12, rounds=2, seed=5)
    replay_trace(engine, ops, tasks=TRIO)
    engine.compact()
    engine.run_tasks(list(TRIO))
    return _record(engine, engine.pool)


def _capture() -> dict[str, dict[str, str]]:
    rows = {key: _engine_case(*case) for key, case in CASES.items()}
    rows[SEGMENTED] = _segmented_case()
    return rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(CASES))
def test_engine_recording_matches_golden(golden, key):
    assert _engine_case(*CASES[key]) == golden[key]


def test_segmented_recording_matches_golden(golden):
    assert _segmented_case() == golden[SEGMENTED]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: test_obs_golden.py --capture")
    GOLDEN.write_text(
        json.dumps(_capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
