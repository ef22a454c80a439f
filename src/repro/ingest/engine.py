"""Device-side segmented engine: one pool-v4 directory, many segment DAGs.

A :class:`SegmentedEngine` owns ONE simulated device for the whole
corpus lifetime.  Each sealed segment gets a whole extent from the outer
v4 pool (:meth:`~repro.nvm.pool.NvmPool.create_segment`, wear-aware),
hosting a *nested* pool with that segment's built pruned DAG.  Built
DAGs persist across queries -- the core of the incremental advantage:
a checkpoint query re-streams and traverses, but never recompresses or
rebuilds segments that did not change.

Durability is split between two structures:

* the **pool directory** (v4 ping-pong header) is the *physical* truth:
  which extents exist and where;
* the ``__manifest__`` region is the *logical* truth: which segments are
  part of the corpus, and each segment's tombstone set.  Every manifest
  update is CRC-sealed and committed through the PR-3
  :class:`~repro.nvm.persist.TransactionLog`.

Mutation ordering keeps ``manifest`` |subseteq| ``media directory`` at
every crash point:

* **seal**: compress delta -> install extent + build DAG ->
  ``pool.flush()`` (data + directory durable) -> manifest transaction.
* **compact**: install merged segment -> ``pool.flush()`` -> ONE
  transaction {manifest switch; retire old extents} -> ``pool.flush()``.

Reopen (:meth:`SegmentedEngine.reopen`) recovers the directory, rolls
back an interrupted transaction, reads the manifest, and *reconciles*:
directory segments absent from the manifest are half-installed wreckage
and are retired.  So a committed compaction survives any later crash,
and a half-done one vanishes -- crashsweep-verified.

The append buffer is host-volatile (a memtable without a WAL): a crash
loses buffered docs and buffered deletes; a seal is durable once
:meth:`seal` returns.  Query-time execution does no checkpointing of its
own -- the durability boundaries of this layer are the mutations.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.analytics import task_by_name
from repro.core.engine import (
    EngineConfig,
    NTadocEngine,
    _RunState,
    serialized_size,
)
from repro.core.pruning import PrunedDag
from repro.errors import RecoveryError, ReproError
from repro.ingest.merge import (
    MERGEABLE_TASKS,
    merge_segment_results,
    render_result,
)
from repro.ingest.segments import SealedSegment, SegmentedCorpus
from repro.metrics.ledger import MemoryLedger
from repro.metrics.timer import PhaseTimeline
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import (
    SimulatedClock,
    SimulatedMemory,
    charge_sequential_io,
)
from repro.nvm.persist import TransactionLog
from repro.nvm.pool import NvmPool
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.obs.recorder import Recorder, attached

#: Pool region holding the CRC-sealed logical segment manifest.
MANIFEST_REGION = "__manifest__"
MANIFEST_BYTES = 1 << 16

#: Simulated CPU ops Sequitur spends per input token (compression is the
#: dominant cost the segmented design avoids re-paying; the constant is
#: deliberately round -- both sides of every benchmark use it).
COMPRESS_OPS_PER_TOKEN = 600

#: Headroom an engine estimate reserves beyond structure sizes; segment
#: extents replace it with a smaller slack (each query's scratch and
#: result regions are released when the query ends -- ``run_tasks``
#: scopes them -- so the big cushion would only waste extents).
_ENGINE_HEADROOM = 1 << 22
_SEGMENT_SLACK = 1 << 18


@dataclass
class _DeviceSegment:
    """Device residency of one sealed segment."""

    segment: SealedSegment
    engine: NTadocEngine
    pool: NvmPool
    #: Built pruned DAG, kept across queries; ``None`` until the first
    #: query after install-from-reopen (rebuilt lazily, charged).
    pruned: PrunedDag | None = None


@dataclass
class IngestQueryResult:
    """Outcome of one checkpoint query over every live segment."""

    tasks: list[str]
    #: task name -> canonical rendered result (JSON-safe; the exact
    #: object the differential invariant compares).
    rendered: dict[str, Any]
    #: Simulated ns this query charged (per-segment runs + merge).
    query_ns: float
    #: Engine clock after the query (lifetime total).
    total_ns: float
    #: Per-segment simulated ns attributed by the fused plans.
    segment_ns: dict[str, float] = field(default_factory=dict)
    n_segments: int = 0


class SegmentedEngine:
    """Incremental append/delete/query engine over a segmented pool.

    Args:
        config: Engine configuration shared by every per-segment run
            (``media_protect=True`` arms one outer
            :class:`~repro.nvm.scrub.MediaGuard` covering every nested
            pool -- nested pools are never guarded themselves).
        pool_bytes: Size of the one simulated device backing all
            segments.
        seal_threshold_tokens: Append-buffer size that triggers an
            automatic seal.
        token_mode: Tokenizer granularity for the shared dictionary.
        compress_ops_per_token: Simulated compression cost constant.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        pool_bytes: int = 1 << 26,
        seal_threshold_tokens: int = 512,
        token_mode: str = "words",
        compress_ops_per_token: int = COMPRESS_OPS_PER_TOKEN,
    ) -> None:
        self.config = config or EngineConfig()
        self.compress_ops_per_token = compress_ops_per_token
        #: One recorder for the whole segmented corpus: nested
        #: per-segment engines share it, so fused-query counters and
        #: segment events land in one place.
        self.recorder = Recorder(self.config.tracer, self.config.metrics)
        self.clock = SimulatedClock()
        profile = DeviceProfile.by_name(self.config.device)
        self.memory = SimulatedMemory(
            profile,
            pool_bytes,
            self.clock,
            cache_bytes=self.config.cache_bytes,
            name="pool",
            reference=not self.config.kernels,
            track_wear=self.config.track_wear,
        )
        self.pool = NvmPool(
            self.memory,
            segmented=True,
            media_protect=self.config.media_protect,
        )
        self.guard = None
        if self.config.media_protect:
            from repro.nvm.scrub import MediaGuard

            self.guard = MediaGuard(self.pool)
        self.txlog = TransactionLog(
            self.pool, capacity=1 << 14, auto_capacity=True
        )
        self.manifest_off = self.pool.alloc_region(
            MANIFEST_REGION, MANIFEST_BYTES
        )
        # Zero fill = length 0, CRC32(b"") == 0: a valid empty manifest.
        self.memory.fill(self.manifest_off, MANIFEST_BYTES, 0)
        self._bind_machinery()
        with attached(self.recorder):
            obs_events.emit(
                "engine_start",
                device=self.config.device,
                persistence=self.config.persistence,
                segmented=True,
            )
        self.corpus = SegmentedCorpus(
            token_mode=token_mode,
            seal_threshold_tokens=seal_threshold_tokens,
        )
        self._device: dict[str, _DeviceSegment] = {}
        #: Host stand-ins for the charged on-disk compressed artifacts,
        #: one per sealed segment ever created; :meth:`reopen` needs them
        #: the way ``recover_pool`` callers need the source corpus.
        self.artifacts: dict[str, SealedSegment] = {}
        self.pool.flush()

    # ------------------------------------------------------------------
    # Observability (the recorder and black box; see docs/observability.md)
    # ------------------------------------------------------------------

    def _bind_machinery(self) -> None:
        """Create the DRAM scratch device and bind the recorder to it and
        the pool (the black box resumes its on-media sequence numbers
        after a reopen)."""
        self._dram = SimulatedMemory(
            DeviceProfile.dram(),
            1 << 24,
            self.clock,
            name="dram-scratch",
            reference=not self.config.kernels,
        )
        self.recorder.bind(
            self.clock,
            {"pool": self.memory, "dram": self._dram},
            pool=self.pool,
            snapshot=self._flight_snapshot,
        )

    def _flight_snapshot(self) -> dict[str, Any]:
        """The black box's per-flush ``metrics_snapshot`` slot."""
        stats = self.memory.stats
        return {
            "events": len(self.recorder.journal.events),
            "flush_ops": stats.flush_ops,
            "bytes_written": stats.bytes_written,
            "segments": len(getattr(self, "_device", ())),
        }

    @property
    def metrics(self):
        """The always-on metrics registry (None when metrics are off)."""
        return self.recorder.registry

    @property
    def journal(self):
        """The always-on event journal (None when metrics are off)."""
        return self.recorder.journal

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def append(self, name: str, text: str) -> SealedSegment | None:
        """Buffer one document; auto-seal past the threshold.

        Returns the sealed segment when this append triggered a seal.
        """
        self.corpus.append(name, text)
        self.clock.cpu(max(len(text) // 8, 1))  # tokenize/stage the doc
        if self.corpus.should_seal:
            return self.seal()
        return None

    def delete(self, name: str) -> None:
        """Delete a live document.

        A buffered doc is dropped from the (volatile) buffer; a sealed
        doc gets a tombstone, made durable by a manifest commit.
        """
        kind, _ = self.corpus.delete(name)
        self.clock.cpu(1)
        if kind == "segment":
            self._commit_manifest()

    def seal(self) -> SealedSegment | None:
        """Compress the append buffer into a durable device segment.

        Charges the delta-only compression, the compressed artifact's
        disk write, the DAG build into a fresh extent, and the directory
        + manifest durability protocol.  Returns None on an empty buffer.
        """
        segment = self.corpus.seal()
        if segment is None:
            return None
        with attached(self.recorder):
            with obs.span("ingest:seal", category="ingest") as span:
                tokens = sum(len(f) for f in segment.corpus.expand_files())
                self.clock.cpu(self.compress_ops_per_token * max(tokens, 1))
                charge_sequential_io(
                    self.clock,
                    DeviceProfile.by_name(self.config.disk),
                    serialized_size(segment.corpus),
                    write=True,
                )
                self._install_segment(segment)
                self.artifacts[segment.name] = segment
                self.pool.flush()  # extent data + v4 directory durable first
                # Emitted before the manifest commit so the record rides
                # the commit's flush into the black box.
                obs_events.emit(
                    "segment_sealed",
                    segment=segment.name,
                    docs=segment.n_docs,
                    tokens=tokens,
                )
                self._commit_manifest()  # then the logical switch
                if span is not None:
                    span.attrs["segment"] = segment.name
                    span.attrs["tokens"] = tokens
            obs_metrics.inc("ntadoc_segments_sealed_total")
        return segment

    def compact(self, upto: int | None = None) -> SealedSegment | None:
        """Merge the first ``upto`` segments into one recompressed segment.

        Seal-new-then-retire-old: the merged segment becomes durable
        (data + directory) while the old ones still exist, then ONE
        transaction flips the manifest and retires the old extents --
        so a crash anywhere leaves either the old set or the new set,
        never a mix.  Retired extents become wear-aware reuse candidates.

        Returns the merged segment (None when the range was all
        tombstones and simply vanished).
        """
        retired, merged = self.corpus.compact(upto)
        with attached(self.recorder):
            with obs.span("ingest:compact", category="ingest") as span:
                if merged is not None:
                    tokens = sum(len(f) for f in merged.corpus.expand_files())
                    self.clock.cpu(
                        self.compress_ops_per_token * max(tokens, 1)
                    )
                    charge_sequential_io(
                        self.clock,
                        DeviceProfile.by_name(self.config.disk),
                        serialized_size(merged.corpus),
                        write=True,
                    )
                    self._install_segment(merged)
                    self.artifacts[merged.name] = merged
                self.pool.flush()  # merged segment durable; old still live
                obs_events.emit(
                    "segment_compacted",
                    merged=merged.name if merged is not None else None,
                    retired=[old.name for old in retired],
                )
                with self.txlog.transaction() as tx:
                    tx.write(self.manifest_off, self._manifest_blob())
                    for old in retired:
                        self.pool.retire_segment(old.name)
                        self._device.pop(old.name, None)
                        obs_events.emit("segment_retired", segment=old.name)
                self.pool.flush()  # retired directory durable
                if span is not None:
                    span.attrs["retired"] = len(retired)
            obs_metrics.inc("ntadoc_segments_compacted_total")
            obs_metrics.inc("ntadoc_segments_retired_total", len(retired))
        return merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def run_tasks(self, task_names: list[str]) -> IngestQueryResult:
        """Run analytics tasks over every live segment and merge.

        Buffered docs are sealed first (a checkpoint covers everything
        appended so far).  Each segment executes the tasks as ONE fused
        plan against its persistent nested pool; per-segment partials
        merge in shared-id space with tombstone filtering, then render
        to the canonical string space.

        Raises:
            ReproError: for an unknown task or an empty corpus.
        """
        for name in task_names:
            if name not in MERGEABLE_TASKS:
                raise ReproError(f"no merge rule for task {name!r}")
        self.seal()
        if self.corpus.n_live == 0:
            raise ReproError("cannot query an empty corpus")
        with attached(self.recorder):
            start_ns = self.clock.ns
            parts: dict[str, list] = {name: [] for name in task_names}
            ngram_names: dict[int, tuple[int, ...]] = {}
            segment_ns: dict[str, float] = {}
            queried = 0
            for segment in self.corpus.segments:
                if segment.n_live == 0:
                    continue  # fully tombstoned: contributes nothing
                dseg = self._device[segment.name]
                state = self._query_state(dseg)
                # The query's scratch and result blobs die with the scope;
                # the DAG (rebuilt above after a reopen) stays below it.
                with dseg.pool.scope():
                    outcome = dseg.engine.run_many_on(
                        [task_by_name(name) for name in task_names], state
                    )
                segment_ns[segment.name] = outcome.total_ns
                queried += 1
                for run in outcome.results:
                    parts[run.task].append((segment, run.result))
                    ngram_names.update(run.ngram_names)
            vocab = self.corpus.dictionary.words()
            doc_names = self.corpus.live_doc_names()
            rendered: dict[str, Any] = {}
            with obs.span(
                "ingest:merge", category="ingest", segments=queried
            ):
                for name in task_names:
                    merged = merge_segment_results(
                        name, parts[name], self.config, self.clock
                    )
                    rendered[name] = render_result(
                        name, merged, vocab, doc_names, ngram_names
                    )
            obs_metrics.inc("ntadoc_ingest_queries_total")
            obs_metrics.observe(
                "ntadoc_ingest_query_ns", self.clock.ns - start_ns
            )
        return IngestQueryResult(
            tasks=list(task_names),
            rendered=rendered,
            query_ns=self.clock.ns - start_ns,
            total_ns=self.clock.ns,
            segment_ns=segment_ns,
            n_segments=queried,
        )

    def recompress_baseline(
        self, task_names: list[str]
    ) -> tuple[dict[str, Any], float]:
        """The from-scratch competitor at the current corpus state.

        Recompresses every live doc with a fresh dictionary, charges the
        full compression + artifact write on an independent clock, runs
        each task solo through a plain :class:`NTadocEngine`, and renders
        canonically.  Returns ``(rendered, simulated_ns)``; the rendered
        dict is the right-hand side of the differential invariant and
        the ns figure is the benchmark denominator... numerator's rival.
        """
        self.seal()
        corpus = self.corpus.recompressed()
        clock = SimulatedClock()
        tokens = sum(len(f) for f in corpus.expand_files())
        clock.cpu(self.compress_ops_per_token * max(tokens, 1))
        charge_sequential_io(
            clock,
            DeviceProfile.by_name(self.config.disk),
            serialized_size(corpus),
            write=True,
        )
        total_ns = clock.ns
        rendered: dict[str, Any] = {}
        # The baseline runs on clocks of its own; the engine's tracer
        # would file its phases among this engine's roots.
        config = dataclasses.replace(self.config, tracer=None)
        for name in task_names:
            run = NTadocEngine(corpus, config).run(task_by_name(name))
            rendered[name] = render_result(
                name, run.result, corpus.vocab, corpus.file_names, run.ngram_names
            )
            total_ns += run.total_ns
        return rendered, total_ns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def segment_table(self) -> list[dict[str, Any]]:
        """One row per live segment (CLI ``ntadoc ingest`` prints this)."""
        rows = []
        for segment in self.corpus.segments:
            offset, size = self.pool.get_segment(segment.name)
            rows.append(
                {
                    "name": segment.name,
                    "offset": offset,
                    "bytes": size,
                    "docs": segment.n_docs,
                    "live": segment.n_live,
                    "tombstoned": len(segment.tombstones),
                    "grammar_symbols": segment.corpus.grammar_length(),
                    "mean_wear": round(
                        self.pool._extent_mean_wear(offset, size), 3
                    ),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Reopen (crash recovery)
    # ------------------------------------------------------------------

    @classmethod
    def reopen(
        cls,
        memory: SimulatedMemory,
        artifacts: dict[str, SealedSegment],
        config: EngineConfig | None = None,
        *,
        seal_threshold_tokens: int = 512,
        token_mode: str = "words",
        compress_ops_per_token: int = COMPRESS_OPS_PER_TOKEN,
    ) -> "SegmentedEngine":
        """Recover a segmented engine from a (possibly crashed) device.

        Procedure: reload the v4 directory, roll back any interrupted
        manifest transaction, read the manifest, and reconcile --
        directory segments the manifest does not name are half-installed
        wreckage and are retired; a manifest segment missing from the
        directory violates the ordering invariant and is an error.  The
        host corpus is rebuilt from ``artifacts`` (the charged on-disk
        compressed segments) with tombstones taken from the manifest,
        and the shared dictionary from the segments' prefix-consistent
        vocab snapshots.  Segment DAG pools rebuild lazily (charged) on
        the next query.

        With media protection, the pre-crash seal mirror may describe
        writes the crash discarded, so integrity is detached and the
        on-media seal table re-baselined: protection re-accumulates as
        post-reopen flushes reseal dirty lines.

        Raises:
            RecoveryError: when the manifest names a segment the
                directory lost, or the manifest checksum fails.
        """
        memory.disarm_faults()
        memory.detach_integrity()
        memory.detach_flight_recorder()
        engine = object.__new__(cls)
        engine.config = config or EngineConfig()
        engine.compress_ops_per_token = compress_ops_per_token
        engine.recorder = Recorder(engine.config.tracer, engine.config.metrics)
        engine.clock = memory.clock
        engine.memory = memory
        pool = NvmPool(memory)
        pool.load_directory()
        engine.pool = pool
        engine._bind_machinery()
        with attached(engine.recorder):
            with obs.span("ingest:reopen", category="ingest") as span:
                engine.guard = None
                if pool.media_protect:
                    from repro.nvm.scrub import MediaGuard, SEAL_REGION

                    if pool.has_region(SEAL_REGION):
                        off, size = pool.get_region(SEAL_REGION)
                        memory.fill(off, size, 0)
                    engine.guard = MediaGuard(pool)
                engine.txlog = TransactionLog(pool, auto_capacity=True)
                recovered = 0
                if engine.txlog.needs_recovery():
                    recovered = engine.txlog.recover()
                engine.manifest_off = pool.get_region(MANIFEST_REGION)[0]
                entries = engine._read_manifest()
                named = {name for name, _, _ in entries}
                orphans = [n for n in pool.segment_names() if n not in named]
                if orphans:
                    # Half-installed wreckage from a crash between the
                    # directory flush and the manifest commit: physically
                    # retire it.
                    with engine.txlog.transaction():
                        for orphan in orphans:
                            pool.retire_segment(orphan)
                if span is not None:
                    span.attrs["segments"] = len(entries)
                    span.attrs["orphans"] = len(orphans)
                obs_events.emit(
                    "reopen",
                    severity="warning" if orphans or recovered else "info",
                    segments=len(entries),
                    orphans_retired=len(orphans),
                    txlog_records_undone=recovered,
                )
                obs_metrics.inc("ntadoc_reopens_total")
        segments: list[SealedSegment] = []
        for name, n_docs, tombs in entries:
            if not pool.has_segment(name):
                raise RecoveryError(
                    f"manifest names segment {name!r} but the directory "
                    "lost it (ordering invariant violated)"
                )
            art = artifacts.get(name)
            if art is None or art.corpus.n_files != n_docs:
                raise RecoveryError(
                    f"no matching compressed artifact for segment {name!r}"
                )
            segments.append(SealedSegment(name, art.corpus, set(tombs)))
        engine.corpus = SegmentedCorpus.from_segments(
            segments,
            token_mode=token_mode,
            seal_threshold_tokens=seal_threshold_tokens,
        )
        engine.artifacts = dict(artifacts)
        engine._device = {}
        for seg in segments:
            engine._device[seg.name] = _DeviceSegment(
                segment=seg,
                engine=engine._segment_engine(seg.corpus),
                pool=pool.segment_pool(seg.name),
                pruned=None,  # rebuilt (charged) on the next query
            )
        engine.pool.flush()
        return engine

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _segment_engine(self, corpus) -> NTadocEngine:
        """A per-segment engine recording into this engine's recorder."""
        eng = NTadocEngine(corpus, self.config)
        eng.recorder = self.recorder
        return eng

    def _install_segment(self, segment: SealedSegment) -> None:
        """Create the segment's extent and build its DAG pool (charged)."""
        eng = self._segment_engine(segment.corpus)
        estimate = eng._estimate_pool_bytes(n_tasks=len(MERGEABLE_TASKS))
        size = estimate - _ENGINE_HEADROOM + _SEGMENT_SLACK
        self.pool.create_segment(segment.name, size)
        seg_pool = self.pool.segment_pool(segment.name)
        pruned = self._build_segment_dag(eng, seg_pool, segment.corpus)
        seg_pool.save_directory()  # nested header rides the outer flush
        self._device[segment.name] = _DeviceSegment(
            segment=segment, engine=eng, pool=seg_pool, pruned=pruned
        )

    def _build_segment_dag(self, eng: NTadocEngine, seg_pool: NvmPool, corpus):
        config = self.config
        return PrunedDag.build(
            seg_pool,
            corpus,
            eng._dag,
            bounds=None if config.use_growable_structures else eng._bounds,
            headtail_k=eng._headtail_k,
            heads=eng._heads,
            tails=eng._tails,
            per_rule=config.use_scattered_layout,
        )

    def _query_state(self, dseg: _DeviceSegment) -> _RunState:
        """Fresh per-query machinery around a segment's persistent pool.

        Lazily rebuilds the pruned DAG after a reopen (the charged cost
        of coming back from a crash); otherwise the cached build is
        reused and the fused plan skips the pool build entirely.  The
        rebuild writes over the pre-crash bytes of the extent: reopen
        opened its nested pool as stale, so every allocation of the
        rebuild and of later queries reads zero.
        """
        if dseg.pruned is None:
            with obs.span(
                "ingest:rebuild", category="ingest", segment=dseg.segment.name
            ):
                dseg.pruned = self._build_segment_dag(
                    dseg.engine, dseg.pool, dseg.segment.corpus
                )
                dseg.pool.save_directory()
        ledger = MemoryLedger()
        self.recorder.bind(
            self.clock, {"pool": self.memory, "dram": self._dram}, ledger
        )
        return _RunState(
            clock=self.clock,
            pool_mem=self.memory,
            dram_mem=self._dram,
            dram_alloc=PoolAllocator(
                self._dram, base=0, capacity=self._dram.size
            ),
            pool=dseg.pool,
            ledger=ledger,
            timeline=PhaseTimeline(self.clock),
            disk=DeviceProfile.by_name(self.config.disk),
            phase_persist=None,
            op_commit=lambda: None,
            pruned=dseg.pruned,
        )

    def _encode_manifest(self) -> bytes:
        parts = [struct.pack("<I", len(self.corpus.segments))]
        for segment in self.corpus.segments:
            encoded = segment.name.encode("utf-8")
            tombs = sorted(segment.tombstones)
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack("<II", segment.n_docs, len(tombs)))
            parts.append(struct.pack(f"<{len(tombs)}I", *tombs))
        return b"".join(parts)

    def _manifest_blob(self) -> bytes:
        """CRC-sealed manifest image; the caller tx.write()s it."""
        payload = self._encode_manifest()
        blob = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        if len(blob) > MANIFEST_BYTES:
            raise ReproError(
                f"manifest ({len(blob)} B) exceeds its region "
                f"({MANIFEST_BYTES} B); compact more aggressively"
            )
        self.clock.cpu(len(blob) // 8 + 1)
        return blob

    def _commit_manifest(self) -> None:
        with self.txlog.transaction() as tx:
            tx.write(self.manifest_off, self._manifest_blob())

    def _read_manifest(self) -> list[tuple[str, int, list[int]]]:
        """``(name, n_docs, tombstones)`` per manifest entry.

        Raises:
            RecoveryError: on a checksum mismatch (the transaction log
                guarantees this never happens after a rollback; tripping
                it means real corruption, not a crash artifact).
        """
        header = self.memory.read(self.manifest_off, 8)
        length, crc = struct.unpack("<II", header)
        if length == 0:
            return []
        if length > MANIFEST_BYTES - 8:
            raise RecoveryError(f"manifest length {length} out of bounds")
        payload = self.memory.read(self.manifest_off + 8, length)
        if zlib.crc32(payload) != crc:
            raise RecoveryError("manifest checksum mismatch")
        (count,) = struct.unpack_from("<I", payload, 0)
        pos = 4
        entries: list[tuple[str, int, list[int]]] = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", payload, pos)
            pos += 2
            name = payload[pos : pos + name_len].decode("utf-8")
            pos += name_len
            n_docs, n_tombs = struct.unpack_from("<II", payload, pos)
            pos += 8
            tombs = list(struct.unpack_from(f"<{n_tombs}I", payload, pos))
            pos += 4 * n_tombs
            entries.append((name, n_docs, tombs))
        return entries
