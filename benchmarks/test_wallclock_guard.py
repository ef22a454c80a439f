"""Wall-clock guard for the fast device access path.

The run-partitioned fast path (the ``SimulatedMemory`` default; the
per-line reference loop is ``reference=True``) exists purely to make the simulator cheap to execute; its
simulated time is bit-identical to the per-line reference loop
(``tests/test_batch_equivalence.py`` proves that).  This guard pins the
*wall-clock* half of the contract: replaying the same multi-line
workload through both implementations, the batch path must stay
decisively faster -- a regression here silently multiplies every
benchmark's runtime.

Each run writes its measured wall times to ``BENCH_batch.json`` at the
repo root (gitignored: the numbers depend on the host; CI uploads the
file as an artifact).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory

_OUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

_SIZE = 1 << 22        # 4 MiB device
_CACHE = 1 << 14       # 16 KiB cache -> constant eviction traffic
_SPAN = 1 << 16        # 64 KiB ops: 256 NVM lines each
_OPS = 120


def _workload(mem: SimulatedMemory) -> None:
    payload = b"\x5a" * _SPAN
    limit = mem.size - _SPAN
    for i in range(_OPS):
        offset = (i * 37 * mem.profile.line_size) % limit
        mem.write(offset, payload)
        mem.read(offset, _SPAN)
        # Hot re-reads of a cache-resident block -- the all-hit shape
        # where run charging beats the per-line loop the hardest.
        for _ in range(4):
            mem.read(offset, _CACHE // 2)
        if i % 16 == 15:
            mem.flush()
    mem.flush()


def _timed(reference: bool) -> tuple[float, float]:
    mem = SimulatedMemory(
        DeviceProfile.nvm(), _SIZE, cache_bytes=_CACHE, reference=reference
    )
    start = time.perf_counter()
    _workload(mem)
    return time.perf_counter() - start, mem.clock.ns


def test_batched_path_faster_same_simulated_time():
    # Interleave repetitions so transient machine load hits both paths;
    # keep the best (least-disturbed) time for each.
    ref_wall, fast_wall = float("inf"), float("inf")
    ref_ns = fast_ns = None
    for _ in range(3):
        wall, ns = _timed(reference=True)
        ref_wall = min(ref_wall, wall)
        ref_ns = ns
        wall, ns = _timed(reference=False)
        fast_wall = min(fast_wall, wall)
        fast_ns = ns

    # The two implementations must agree exactly on simulated time.
    assert fast_ns == ref_ns

    speedup = ref_wall / fast_wall
    _OUT.write_text(
        json.dumps(
            {
                "workload": {
                    "device": "nvm",
                    "size_bytes": _SIZE,
                    "cache_bytes": _CACHE,
                    "span_bytes": _SPAN,
                    "ops": _OPS,
                },
                "reference_wall_s": round(ref_wall, 6),
                "batched_wall_s": round(fast_wall, 6),
                "wall_speedup": round(speedup, 3),
                "simulated_ns": fast_ns,
            },
            indent=2,
        )
        + "\n"
    )
    # Loose bound: the fast path wins by ~2x on this shape locally;
    # 1.4x tolerates noisy shared CI machines while still catching a
    # fast path that degenerated to per-line work.
    assert speedup > 1.4, f"batch fast path only {speedup:.2f}x faster"
