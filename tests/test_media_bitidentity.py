"""Bit-identity guard: the media-resilience layer must be pay-for-play.

The values pinned here were captured on the tree *before* the media-fault
subsystem landed.  With ``media_protect`` / ``track_wear`` left at their
defaults and no faults armed, simulated time, the post-run pool image,
analytics results, and wear counters must all stay ``==`` to the pre-PR
behavior on the wc+ii+tv trio (same discipline as the PR-6 kernel
equivalence suite).
"""

from __future__ import annotations

import hashlib
import json

from repro.analytics import task_by_name
from repro.core.engine import EngineConfig, NTadocEngine
from repro.harness.crashsweep import _smoke_corpus, canonical_result
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan
from repro.nvm.memory import SimulatedMemory

TRIO = ("word_count", "inverted_index", "term_vector")

#: Captured from the pre-PR tree (see module docstring).  Any drift here
#: means the default charging path changed -- a bug, not a baseline bump.
#: (Exceptions: the term_vector *result* digest was re-pinned when its
#: count-tie break moved from word id to word string for segmented
#: ingest; the *image* digests were re-pinned when the always-on
#: ``__flightrec__`` region landed in the pool directory -- the header
#: blob now names it, while data placement (the region is top-pinned)
#: and every timing/result digest stayed bit-identical.  FUSED_BASELINE's
#: total_ns and image were re-pinned -- 56,443.8 -> 53,851.8 ns -- when
#: the planner's per-file counting strategy became the engine's
#: input-derived rule: on this 3-file corpus it picks top-down, where the
#: planner used to force bottom-up word lists.  Its result digests did
#: not move.)
SOLO_BASELINE = {
    "word_count": {
        "total_ns": 26243.2,
        "result": "d83ac6c281a770ec",
        "image": "47053bb530dde5a8",
    },
    "inverted_index": {
        "total_ns": 25991.200000000114,
        "result": "0edec4260e975e83",
        "image": "42292caf4fbe1f72",
    },
    "term_vector": {
        "total_ns": 26722.60000000008,
        "result": "888db5da8696ddaf",
        "image": "1c03bd4bb0c21809",
    },
}
FUSED_BASELINE = {
    "total_ns": 53851.80000000011,
    "image": "1f112d559e2cf59c",
    "results": ["d83ac6c281a770ec", "0edec4260e975e83", "888db5da8696ddaf"],
}
WEAR_BASELINE = {"digest": "d296fc5af4124c0e", "ns": 57856.0}


class _CapturePlan(FaultPlan):
    """Counting plan that also records the memory it observes."""

    def on_flush(self, mem, dirty_lines):
        self.memory = mem
        return super().on_flush(mem, dirty_lines)


def _image_digest(mem) -> str:
    """Digest of the device image outside the flight recorder.

    The ``__flightrec__`` black box (top-pinned, zero pre-PR) is masked
    out: its ring holds event slots by design, while everything below it
    must stay byte-for-byte what the pre-PR tree produced.
    """
    image = bytearray(mem.peek(0, mem.size))
    rec = mem._flightrec
    if rec is not None:
        lo, hi = rec.window
        image[lo:hi] = bytes(hi - lo)
    return hashlib.sha256(bytes(image)).hexdigest()[:16]


def _result_digest(result) -> str:
    return hashlib.sha256(canonical_result(result).encode()).hexdigest()[:16]


def test_solo_trio_bit_identical_to_pre_pr():
    corpus = _smoke_corpus()
    for name in TRIO:
        engine = NTadocEngine(corpus, EngineConfig())
        plan = _CapturePlan()
        run = engine.run(task_by_name(name), fault_plan=plan)
        expect = SOLO_BASELINE[name]
        assert run.total_ns == expect["total_ns"]
        assert _result_digest(run.result) == expect["result"]
        assert _image_digest(plan.memory) == expect["image"]
        assert plan.memory.wear is None  # track_wear stays off by default


def test_fused_trio_bit_identical_to_pre_pr():
    engine = NTadocEngine(_smoke_corpus(), EngineConfig())
    plan = _CapturePlan()
    outcome = engine.run_many([task_by_name(n) for n in TRIO], fault_plan=plan)
    assert outcome.total_ns == FUSED_BASELINE["total_ns"]
    assert _image_digest(plan.memory) == FUSED_BASELINE["image"]
    digests = [_result_digest(r.result) for r in outcome.results]
    assert digests == FUSED_BASELINE["results"]


def test_wear_counters_bit_identical_to_pre_pr():
    mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 18, track_wear=True)
    for i in range(0, 1 << 16, 64):
        mem.write(i, b"w" * 64)
    mem.flush()
    for i in range(0, 1 << 16, 256):
        mem.rmw_add(i, 8, 3)
    mem.flush()
    digest = hashlib.sha256(json.dumps(sorted(mem.wear.items())).encode()).hexdigest()[:16]
    assert digest == WEAR_BASELINE["digest"]
    assert mem.clock.ns == WEAR_BASELINE["ns"]
