"""Golden charges of a steady ingest stream, round by round.

``tests/golden/ingest_runs.json`` holds, per round of a 24-round ingest
stream, the device clock (its ``repr``), the device's ``MemoryStats``, a
digest of the line cache's ``(line, dirty)`` items in LRU order, a
digest of the device image and a digest of the checkpoint results.  The
stream has the shape of perfbench's ``ingest-stream`` workload: 120 live
``synthetic_trace`` documents, every round appends and deletes 12 of
them, seals and runs a ``word_count`` + ``inverted_index`` checkpoint;
every 3rd round compacts, every 12th crashes and reopens first.  It runs
twice: on the default cache and on a 64 KiB cache, where the per-rule
word-list build evicts dirty lines mid-pass.  Every field is compared
with ``==``: a change to how the bottom-up word lists or the per-file
merges are charged must not move one of them.

Regenerate (only on a tree whose charges are the reference)::

    PYTHONPATH=src python tests/test_ingest_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig
from repro.ingest import SegmentedEngine, canonical_json, synthetic_trace

GOLDEN = Path(__file__).parent / "golden" / "ingest_runs.json"
SEED = 1
ROUNDS = 24
LIVE_DOCS = 120
DELTA_DOCS = 12
DOC_TOKENS = 50
CHECKPOINT = ["word_count", "inverted_index"]
COMPACT_EVERY = 3
REOPEN_EVERY = 12
NO_AUTO_SEAL = 10**9
CACHES = {"default": EngineConfig().cache_bytes, "64k": 1 << 16}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


class _Docs:
    """Uniquely named ``synthetic_trace`` documents."""

    def __init__(self) -> None:
        self.count = 0

    def make(self, seed: str, count: int) -> list[tuple[str, str]]:
        trace = synthetic_trace(
            n_docs=count, doc_tokens=DOC_TOKENS, rounds=0,
            seed=random.Random(seed).getrandbits(32),
        )
        docs = []
        for op in trace:
            if op.op == "append":
                docs.append((f"doc{self.count:06d}", op.text))
                self.count += 1
        return docs


def _row(engine, query) -> dict:
    mem = engine.memory
    rendered = {task: canonical_json(query.rendered[task]) for task in CHECKPOINT}
    return {
        "clock_ns": repr(mem.clock.ns),
        "stats": asdict(mem.stats),
        "lru": _digest(repr(list(mem._cache._lines.items())).encode()),
        "image": _digest(mem.peek(0, mem.size)),
        "results": _digest(json.dumps(rendered, sort_keys=True).encode()),
    }


def _stream(cache_bytes: int) -> list[dict]:
    config = EngineConfig(cache_bytes=cache_bytes)
    engine = SegmentedEngine(config, seal_threshold_tokens=NO_AUTO_SEAL)
    docs = _Docs()
    live: list[str] = []
    for name, text in docs.make(f"{SEED}/bulk", LIVE_DOCS):
        engine.append(name, text)
        live.append(name)
    engine.seal()
    engine.run_tasks(CHECKPOINT)
    rows = []
    for round_no in range(1, ROUNDS + 1):
        rng = random.Random(f"{SEED}/victims/{round_no}")
        victims = rng.sample(live, DELTA_DOCS)
        for name, text in docs.make(f"{SEED}/delta/{round_no}", DELTA_DOCS):
            engine.append(name, text)
            live.append(name)
        for name in victims:
            engine.delete(name)
            live.remove(name)
        engine.seal()
        if round_no % REOPEN_EVERY == 0:
            engine.memory.crash()
            engine = SegmentedEngine.reopen(
                engine.memory, engine.artifacts, config,
                seal_threshold_tokens=NO_AUTO_SEAL,
            )
        query = engine.run_tasks(CHECKPOINT)
        if round_no % COMPACT_EVERY == 0:
            engine.compact()
        rows.append(_row(engine, query))
    return rows


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_stream(golden):
    assert sorted(golden) == sorted(CACHES)
    assert all(len(rows) == ROUNDS for rows in golden.values())


@pytest.mark.parametrize("cache", sorted(CACHES))
def test_ingest_rounds_match_golden(golden, cache):
    for round_no, (got, want) in enumerate(zip(_stream(CACHES[cache]), golden[cache]), 1):
        assert got == want, f"{cache} round {round_no}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: test_ingest_golden.py --capture")
    rows = {cache: _stream(size) for cache, size in CACHES.items()}
    text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {sum(map(len, rows.values()))} rows into {GOLDEN}")
