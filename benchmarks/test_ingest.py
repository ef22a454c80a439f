"""Ingest benchmark: incremental segments vs recompress-from-scratch.

The segmented design's acceptance shape: on a streaming workload --
bulk load, then rounds of ~10% appends plus deletes, with analytics at
every checkpoint -- the incremental engine (compress only the delta,
query per-segment, merge) must beat a non-incremental system (recompress
the whole live corpus at every checkpoint, then query) by >= 3x in
*simulated* time, while producing canonically identical results.

Each run writes its measured numbers to ``BENCH_ingest.json`` at the
repo root (gitignored: the wall times depend on the host; CI uploads the
file as an artifact).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.ingest import SegmentedEngine, canonical_json
from repro.ingest.trace import replay_trace, synthetic_trace

_OUT = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

#: Streaming trace: bulk load then 5 rounds of 10% appends + deletes,
#: a seal and an analytics checkpoint per round (Zipf word frequencies,
#: so Sequitur finds repeated phrases on both sides of the comparison).
_TRACE = dict(n_docs=120, doc_tokens=50, rounds=5, delta_fraction=0.1, seed=7)

#: The CLI's default checkpoint tasks: one count task, one posting task.
_TASKS = ("word_count", "inverted_index")

_MIN_SPEEDUP = 3.0


def test_incremental_beats_recompress_by_3x():
    ops = synthetic_trace(**_TRACE)
    engine = SegmentedEngine(EngineConfig(), seal_threshold_tokens=10**9)

    # The baseline recompresses the *current* live corpus at each
    # checkpoint on its own clock, so the two sides pay for identical
    # corpus states; equality of the rendered results is asserted along
    # the way (the differential contract, on the benchmark workload).
    baseline_ns = 0.0
    checkpoints = 0

    def on_checkpoint(index, result):
        nonlocal baseline_ns, checkpoints
        base_rendered, base_ns = engine.recompress_baseline(list(_TASKS))
        baseline_ns += base_ns
        checkpoints += 1
        for task in _TASKS:
            assert canonical_json(result.rendered[task]) == canonical_json(
                base_rendered[task]
            ), task

    replay_trace(engine, ops, tasks=_TASKS, on_checkpoint=on_checkpoint)
    incremental_ns = engine.clock.ns
    speedup = baseline_ns / incremental_ns

    _OUT.write_text(
        json.dumps(
            {
                "workload": {
                    **_TRACE,
                    "tasks": list(_TASKS),
                    "checkpoints": checkpoints,
                    "final_live_docs": engine.corpus.n_live,
                    "final_segments": len(engine.corpus.segments),
                    "tombstoned": engine.corpus.n_tombstoned,
                },
                "incremental_sim_ns": round(incremental_ns, 1),
                "recompress_sim_ns": round(baseline_ns, 1),
                "sim_speedup": round(speedup, 3),
                "min_speedup": _MIN_SPEEDUP,
            },
            indent=2,
        )
        + "\n"
    )

    assert checkpoints == _TRACE["rounds"] + 1
    # Acceptance threshold: the incremental engine compresses ~10% of
    # the corpus per round; the baseline recompresses all of it.
    assert speedup >= _MIN_SPEEDUP, (
        f"incremental ingest only {speedup:.2f}x vs recompress-from-scratch"
    )
