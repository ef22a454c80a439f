"""Golden parity: a solo run keeps charging what it charged as its own path.

``tests/golden/solo_runs.json`` was captured from the tree in which every
task still had a dedicated solo implementation (``run_compressed`` plus a
``prepare`` hook) next to its planner bundle.  ``NTadocEngine.run`` is now
a plan of one, and every cell below must reproduce the captured row:
result digest, resolved strategy, DRAM/pool peaks and every
``MemoryStats`` counter ``==``; simulated ns (``total_ns``, ``phase_ns``,
``device_ns``) to 1e-12 relative, the float-summation-order slack of
attributing the same charges in a different order.

``auto`` cells are checked against the golden row of the strategy the
engine's rule picks.  Word count and sort answer from the top-down
weights unless the user pins bottom-up, so their ``auto`` cells follow
the top-down row whatever the rule picks (only the reported strategy
differs).

Regenerate (only ever on a tree whose solo charges are the reference)::

    PYTHONPATH=src python tests/test_solo_parity.py --capture
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analytics import ALL_TASKS
from repro.core.engine import EngineConfig, NTadocEngine
from repro.datasets import corpus_for
from repro.harness.crashsweep import canonical_result

GOLDEN = Path(__file__).parent / "golden" / "solo_runs.json"
PROFILES = ("A", "B", "C", "D")
SCALES = (0.1, 0.2)
STRATEGIES = ("topdown", "bottomup")
#: Config rows beyond the phase/operation grid, run at scale 0.1.
VARIANTS = {
    "naive": {"naive": True},
    "dram": {"device": "dram", "persistence": "none"},
    "media_protect": {"media_protect": True},
}
#: Tasks whose answer does not depend on the per-file counting strategy
#: under ``auto`` (see module docstring).
TOPDOWN_UNDER_AUTO = ("word_count", "sort")
REL = 1e-12


def _cells():
    """(key, profile, scale, task name, config kwargs) of every golden row."""
    for profile in PROFILES:
        for scale in SCALES:
            for persistence in ("phase", "operation"):
                for strategy in STRATEGIES:
                    for cls in ALL_TASKS:
                        key = f"{cls.name}|{profile}|{scale}|{persistence}|{strategy}"
                        yield key, profile, scale, cls.name, {
                            "persistence": persistence,
                            "traversal": strategy,
                        }
        for variant, kwargs in VARIANTS.items():
            for strategy in STRATEGIES:
                for cls in ALL_TASKS:
                    key = f"{cls.name}|{profile}|0.1|{variant}|{strategy}"
                    yield key, profile, 0.1, cls.name, {
                        **kwargs,
                        "traversal": strategy,
                    }


def _row(run) -> dict:
    digest = hashlib.sha256(
        canonical_result([run.result, run.ngram_names]).encode()
    ).hexdigest()[:16]
    return {
        "result": digest,
        "strategy": run.strategy,
        "phase_ns": run.phase_ns,
        "total_ns": run.total_ns,
        "dram_peak": run.dram_peak,
        "pool_peak": run.pool_peak,
        "stats": asdict(run.pool_stats),
    }


def _run(profile: str, scale: float, task: str, kwargs: dict):
    from repro.analytics import task_by_name

    corpus = corpus_for(profile, scale)
    return NTadocEngine(corpus, EngineConfig(**kwargs)).run(task_by_name(task))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0) or a == b


def _assert_matches(key: str, got: dict, want: dict, *, strategy=None) -> None:
    assert got["result"] == want["result"], key
    assert got["strategy"] == (strategy or want["strategy"]), key
    assert got["dram_peak"] == want["dram_peak"], key
    assert got["pool_peak"] == want["pool_peak"], key
    assert set(got["phase_ns"]) == set(want["phase_ns"]), key
    for phase, ns in want["phase_ns"].items():
        assert _close(got["phase_ns"][phase], ns), (key, phase)
    assert _close(got["total_ns"], want["total_ns"]), key
    for name, value in want["stats"].items():
        if name == "device_ns":
            assert _close(got["stats"][name], value), (key, name)
        else:
            assert got["stats"][name] == value, (key, name)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("profile", PROFILES)
def test_solo_runs_match_golden(golden, profile):
    cells = [c for c in _cells() if c[1] == profile]
    assert all(key in golden for key, *_ in cells)
    for key, _profile, scale, task, kwargs in cells:
        _assert_matches(key, _row(_run(profile, scale, task, kwargs)), golden[key])


@pytest.mark.parametrize("profile", PROFILES)
def test_auto_runs_match_the_picked_strategy(golden, profile):
    for scale in SCALES:
        corpus = corpus_for(profile, scale)
        for persistence in ("phase", "operation"):
            config = EngineConfig(persistence=persistence)
            picked = NTadocEngine(corpus, config)._resolve_strategy()
            for cls in ALL_TASKS:
                follows = "topdown" if cls.name in TOPDOWN_UNDER_AUTO else picked
                key = f"{cls.name}|{profile}|{scale}|{persistence}|{follows}"
                run = NTadocEngine(corpus, config).run(cls())
                _assert_matches(key, _row(run), golden[key], strategy=picked)


def _capture() -> None:
    rows = {
        key: _row(_run(profile, scale, task, kwargs))
        for key, profile, scale, task, kwargs in _cells()
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"captured {len(rows)} rows into {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        _capture()
    else:
        sys.exit("usage: test_solo_parity.py --capture")
