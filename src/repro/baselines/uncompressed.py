"""Uncompressed text analytics on a device (the Fig. 5 baseline).

Per the paper's methodology (Section VI-A): "In the baseline
configuration, the text analysis task was performed on NVM.  No
specialized compression techniques or methods designed for NVM were
employed, except for the dictionary conversion of the original text into
numerical representations."

Concretely: the initialization phase streams the (much larger)
uncompressed token array from disk and lays it out on the device; the
traversal phase scans it file by file, counting into device-resident
structures.  The same persistence strategies apply, so comparisons
against N-TADOC are strategy-for-strategy fair.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.analytics.base import AnalyticsTask, UncompressedTaskContext
from repro.core.engine import EngineConfig, RunResult, _dictionary_bytes
from repro.core.grammar import CompressedCorpus
from repro.metrics.ledger import MemoryLedger
from repro.metrics.timer import PhaseTimeline
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory, charge_sequential_io
from repro.nvm.persist import PhasePersistence
from repro.nvm.pool import NvmPool
from repro.pstruct import layout

#: Tokens fetched per device read while scanning.
_SCAN_CHUNK = 1024


def expanded_files(corpus: CompressedCorpus) -> list[list[int]]:
    """Per-file token lists of a corpus (memoized on the corpus object)."""
    cached = getattr(corpus, "_expanded_files", None)
    if cached is None:
        cached = corpus.expand_files()
        corpus._expanded_files = cached  # type: ignore[attr-defined]
    return cached


class UncompressedEngine:
    """Scan-based analytics over dictionary-encoded tokens on a device."""

    system_name = "uncompressed"

    def __init__(
        self, corpus: CompressedCorpus, config: EngineConfig | None = None
    ) -> None:
        self.corpus = corpus
        self.config = config or EngineConfig()
        self._files = expanded_files(corpus)
        self._total_tokens = sum(len(f) for f in self._files)

    def run(self, task: AnalyticsTask) -> RunResult:
        config = self.config
        clock = SimulatedClock()
        profile = DeviceProfile.by_name(config.device)
        data_bytes = self._total_tokens * 4
        # Token array + counters + a generous result region (ranked-index
        # results can exceed the input size on many-file corpora).
        pool_bytes = config.pool_bytes or (
            data_bytes * 4 + len(self.corpus.vocab) * 24 + (1 << 22)
        )
        mem = SimulatedMemory(
            profile, pool_bytes, clock, cache_bytes=config.cache_bytes, name="pool"
        )
        dram_mem = SimulatedMemory(
            DeviceProfile.dram(), 1 << 24, clock, name="dram-scratch"
        )
        dram_alloc = PoolAllocator(dram_mem, base=0, capacity=dram_mem.size)
        pool = NvmPool(mem)
        ledger = MemoryLedger()
        timeline = PhaseTimeline(clock)
        disk = DeviceProfile.by_name(config.disk)
        phase_persist = (
            PhasePersistence(pool) if config.persistence == "phase" else None
        )
        op_commit = self._make_op_commit(pool)

        with timeline.phase("initialization"):
            # The whole uncompressed dataset crosses the disk.
            charge_sequential_io(clock, disk, data_bytes)
            ledger.charge("dram", "dictionary", _dictionary_bytes(self.corpus))
            offsets: list[int] = []
            data_off = pool.alloc_region("tokens", max(data_bytes, 4))
            cursor = data_off
            for tokens in self._files:
                offsets.append(cursor)
                for start in range(0, len(tokens), _SCAN_CHUNK):
                    chunk = tokens[start : start + _SCAN_CHUNK]
                    mem.write(cursor, struct.pack(f"<{len(chunk)}I", *chunk))
                    cursor += len(chunk) * 4
            self._persist_phase(pool, phase_persist, "initialization")

        def read_file(file_index: int) -> Iterator[list[int]]:
            base = offsets[file_index]
            length = len(self._files[file_index])
            for start in range(0, length, _SCAN_CHUNK):
                count = min(_SCAN_CHUNK, length - start)
                yield layout.read_u32_array(mem, base + start * 4, count)

        ctx = UncompressedTaskContext(
            allocator=pool.allocator,
            dram=dram_mem,
            dram_allocator=dram_alloc,
            clock=clock,
            ledger=ledger,
            vocab=self.corpus.vocab,
            file_names=self.corpus.file_names,
            read_file=read_file,
            file_lengths=[len(f) for f in self._files],
            ngram_n=config.ngram_n,
            term_vector_k=config.term_vector_k,
            op_commit=op_commit if config.persistence == "operation" else (lambda: None),
        )

        with timeline.phase("traversal"):
            result = task.run_uncompressed(ctx)
            result_bytes = task.result_size_bytes(result)
            self._write_result_blob(pool, result_bytes)
            self._persist_phase(pool, phase_persist, "traversal")
            charge_sequential_io(clock, disk, result_bytes, write=True)

        dram_peak = ledger.peak("dram") + dram_alloc.peak_bytes
        pool_peak = pool.allocator.peak_bytes
        if config.device == "dram":
            dram_peak += pool_peak
        return RunResult(
            task=task.name,
            system=self.system_name,
            result=result,
            phase_ns=timeline.as_dict(),
            total_ns=timeline.total_sim_ns(),
            dram_peak=dram_peak,
            pool_peak=pool_peak,
            pool_device=config.device,
            strategy="scan",
            ngram_names=ctx.ngram_names,
            pool_stats=mem.stats,
        )

    def run_many(self, tasks: list[AnalyticsTask]):
        """Task-by-task execution (the baseline has no shared-traversal
        planner: every task pays its own data layout and scan).

        Returns a :class:`~repro.core.plan.PlanResult` so harness code
        can treat every system's multi-task entry point uniformly.
        """
        from repro.core.plan import (
            PlanResult,
            merge_sequential_results,
            sequential_plan_stats,
        )

        tasks = list(tasks)
        if not tasks:
            raise ValueError("run_many needs at least one task")
        results = [self.run(task) for task in tasks]
        phase_ns, total_ns = merge_sequential_results(results)
        return PlanResult(
            results=results,
            stats=sequential_plan_stats(len(tasks)),
            phase_ns=phase_ns,
            total_ns=total_ns,
        )

    # The persistence helpers mirror NTadocEngine's.

    def _make_op_commit(self, pool: NvmPool):
        if self.config.persistence != "operation":
            return lambda: None
        marker_off = pool.alloc_region("__opmarker__", 8)
        mem = pool.memory

        def op_commit() -> None:
            # Data durable before the marker advances (flushes can tear).
            mem.flush()
            count = layout.read_u64(mem, marker_off)
            layout.write_u64(mem, marker_off, count + 1)
            mem.flush()

        return op_commit

    def _persist_phase(self, pool, phase_persist, name: str) -> None:
        if phase_persist is not None:
            # Data (and directory) first, marker second -- flushes are
            # not atomic, so a marker riding the data flush could persist
            # ahead of the data it checkpoints.
            pool.flush()
            phase_persist.complete_phase(name)
        elif self.config.persistence == "operation":
            pool.flush()

    def _write_result_blob(self, pool: NvmPool, result_bytes: int) -> None:
        if result_bytes <= 0:
            return
        region = f"results_{len(pool.region_names())}"
        offset = pool.alloc_region(region, result_bytes)
        mem = pool.memory
        chunk = bytes(4096)
        written = 0
        while written < result_bytes:
            step = min(4096, result_bytes - written)
            mem.write(offset + written, chunk[:step])
            written += step
