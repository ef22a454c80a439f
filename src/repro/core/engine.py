"""The N-TADOC engine: phases, devices, persistence, and task execution.

The engine stitches every subsystem together along the paper's workflow
(Section IV-A):

* **initialization phase** -- stream the compressed corpus from disk,
  derive the DAG metadata, run the bottom-up summation, build the pruned
  DAG pool (and head/tail store) on the configured device, and persist.
* **graph traversal phase** -- hand the task a
  :class:`~repro.analytics.base.CompressedTaskContext`, collect its
  result, write the result blob into the pool, persist, and charge the
  write-back to disk.

All timing is simulated nanoseconds from the shared clock; the same
engine class also realizes the paper's baselines by configuration:

=====================  ==============================================
Paper system           EngineConfig
=====================  ==============================================
N-TADOC (Fig. 5a)      device="nvm", persistence="phase"
N-TADOC (Fig. 5b)      device="nvm", persistence="operation"
TADOC on DRAM (Fig. 6) device="dram", persistence="none"
N-TADOC on SSD/HDD     device="ssd"/"hdd" (Fig. 7)
naive NVM port         device="nvm", naive=True (Section III-B)
=====================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.dag import Dag
from repro.core.grammar import CompressedCorpus
from repro.core.pruning import PoolImage, PrunedDag
from repro.core.summation import head_tail_lists, summate_all
from repro.errors import MediaError, OutOfMemoryError, ReproError
from repro.metrics.ledger import MemoryLedger
from repro.metrics.timer import PhaseTimeline
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory, charge_sequential_io
from repro.nvm.persist import PhasePersistence
from repro.nvm.pool import NvmPool
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.obs.recorder import Recorder, attached
from repro.pstruct import layout
from repro.pstruct.layout import next_power_of_two
from repro.sequitur import serialization

if TYPE_CHECKING:  # avoid a circular import; tasks import core.grammar
    from repro.analytics.base import AnalyticsTask
    from repro.core.recovery import RecoveryReport
    from repro.nvm.faults import FaultPlan

#: Estimated DRAM bytes per dictionary word (string + index overhead).
_DICT_WORD_OVERHEAD = 60

#: "auto" traversal goes bottom-up once top-down's per-file sweeps
#: (files x grammar length) exceed this multiple of the word-list volume
#: (sum of the Algorithm-2 bounds); see NTadocEngine._resolve_strategy.
BOTTOMUP_RATIO = 40

#: Media recoveries (scrub + quarantine + rebuild) on any one task's path
#: before it fails typed; see NTadocEngine._degrade.
MAX_RECOVERIES = 2


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one engine run.

    Attributes:
        device: Pool device profile name ("nvm", "dram", "reram", "pcm",
            "ssd", "hdd").
        persistence: "phase" (flush at phase ends), "operation" (commit
            marker + flush after every logical operation), or "none".
        traversal: "auto" lets the Section VI-E rule pick the per-file
            counting strategy (:meth:`NTadocEngine._resolve_strategy`);
            "topdown"/"bottomup" pin it.
        disk: Device profile used for initial load and final write-back.
        naive: Direct-port mode (Section III-B): scattered allocations,
            per-rule indirected layout, growable structures ignoring the
            Algorithm-2 bounds.
        ngram_n: Sequence length for sequence tasks (head/tail width is
            derived from it).
        term_vector_k: Vector length for the term-vector task.
        pool_bytes: Pool size override; auto-sized when None.
        cache_bytes: CPU-cache model capacity for the pool device.
        op_batch: With operation-level persistence, how many logical
            operations one commit covers (libpmemobj transactions batch
            updates for throughput; the naive port commits singly).
        scattered_layout: Ablation flag -- scattered per-rule allocation
            without the adjacent pool layout (one of the two ingredients
            of ``naive``).
        growable_structures: Ablation flag -- ignore the Algorithm-2
            bounds and grow structures on demand (the other ingredient).
        tracer: Opt-in :class:`~repro.obs.tracer.Tracer` attached for
            the run's duration (spans, op counters, device attribution).
            ``None`` (the default) records nothing and charges nothing;
            either way the simulated costs are bit-identical.  Excluded
            from equality/hashing so configs stay comparable.
    """

    device: str = "nvm"
    persistence: str = "phase"
    traversal: str = "auto"
    disk: str = "ssd"
    naive: bool = False
    ngram_n: int = 2
    term_vector_k: int = 10
    pool_bytes: int | None = None
    cache_bytes: int = 1 << 21
    op_batch: int = 8
    scattered_layout: bool = False
    growable_structures: bool = False
    #: Fast access path for the simulated memories (the default).
    #: ``False`` builds reference memories: per-line charging, no
    #: kernels.  Simulated time/stats are bit-identical either way; only
    #: wall-clock changes.  See docs/kernels.md.
    kernels: bool = True
    tracer: Any = field(default=None, compare=False, repr=False)
    #: Arm end-to-end media protection: the pool saves as layout v3, a
    #: :class:`~repro.nvm.scrub.MediaGuard` CRC-seals every persisted
    #: chunk, and every read is verified (corruption surfaces as a typed
    #: :class:`~repro.errors.MediaError` instead of garbage).  Off by
    #: default -- an unprotected run is bit-identical to pre-guard
    #: behavior in simulated time, pool image, and wear counters.
    media_protect: bool = False
    #: Count per-line media program events on the pool device
    #: (:func:`~repro.nvm.wear.wear_report`, wear-triggered fault arming
    #: via ``FaultPlan(wear_death=True)``).
    track_wear: bool = False
    #: Always-on observability (the default): the engine keeps a
    #: :class:`~repro.obs.metrics.MetricsRegistry` and an
    #: :class:`~repro.obs.events.EventJournal` across runs, and persists
    #: the most recent events into the pool's ``__flightrec__`` black-box
    #: region.  Recording is uncharged by contract -- a metrics-on run
    #: charges simulated ns bit-identically (``==``) to a metrics-off
    #: run, and the pool images differ only inside ``__flightrec__``
    #: (both pinned by tests).  ``False`` records nothing.
    metrics: bool = True

    def __post_init__(self) -> None:
        if self.persistence not in ("phase", "operation", "none"):
            raise ValueError(f"unknown persistence {self.persistence!r}")
        if self.traversal not in ("auto", "topdown", "bottomup"):
            raise ValueError(f"unknown traversal {self.traversal!r}")
        if not isinstance(self.kernels, bool):
            raise ValueError(f"kernels must be a bool, not {self.kernels!r}")
        for role, name in (("device", self.device), ("disk", self.disk)):
            try:
                DeviceProfile.by_name(name)
            except KeyError:
                raise ValueError(f"unknown {role} {name!r}") from None

    @property
    def use_scattered_layout(self) -> bool:
        """Naive mode implies the scattered, indirected layout."""
        return self.naive or self.scattered_layout

    @property
    def use_growable_structures(self) -> bool:
        """Naive mode implies unbounded, growable structures."""
        return self.naive or self.growable_structures


@dataclass
class RunResult:
    """Outcome of one (engine, task) execution."""

    task: str
    system: str
    result: Any
    phase_ns: dict[str, float]
    total_ns: float
    dram_peak: int
    pool_peak: int
    pool_device: str
    strategy: str
    ngram_names: dict[int, tuple[int, ...]] = field(default_factory=dict)
    pool_stats: Any = None
    #: True when this run resumed from a RecoveryReport instead of a
    #: fresh pool (its analytics output must match the uncrashed run's).
    resumed: bool = False
    #: True when this result came out of a fused multi-task plan; its
    #: timing fields are then *attributions* of the plan's single charge.
    fused: bool = False
    #: This task's even share of the plan's shared substrate cost
    #: (pool build, fused sweeps); 0 for a solo run.
    shared_ns: float = 0.0
    #: Simulated ns spent exclusively in this task's own hooks
    #: (fused plans only; 0 for a solo run).
    exclusive_ns: float = 0.0

    @property
    def failed(self) -> bool:
        """False -- symmetry with :class:`TaskFailure` for the harness."""
        return False

    @property
    def init_ns(self) -> float:
        return self.phase_ns.get("initialization", 0.0)

    @property
    def traversal_ns(self) -> float:
        return self.phase_ns.get("traversal", 0.0)


@dataclass
class TaskFailure:
    """Structured report of one task the engine could not complete.

    Returned by :meth:`NTadocEngine.run` (and listed in
    ``PlanResult.failures`` by :meth:`NTadocEngine.run_many`) when media
    damage survives every recovery attempt, or strikes an engine without
    a guard.  It is never raised: graceful degradation returns it in
    place of a :class:`RunResult` so sibling tasks keep running and the
    caller gets a typed, inspectable outcome instead of a silent wrong
    answer.
    """

    task: str
    #: Human-readable message of the terminal error.
    error: str
    #: MediaError kind ("checksum"/"stuck"/"lost"), or "oom" when the
    #: pool ran out of room for a rebuild, or "unprotected" when media
    #: faults fired without a guard to recover with.
    kind: str | None = None
    offset: int | None = None
    line: int | None = None
    #: The last :class:`~repro.nvm.scrub.ScrubReport`, if a scrub ran.
    scrub: Any = None
    #: Regions renamed out of the way during recovery attempts.
    quarantined_regions: list[str] = field(default_factory=list)
    #: Simulated ns elapsed on the run's clock when the task was failed
    #: (includes the recovery attempts -- they are real, charged work).
    total_ns: float = 0.0

    @property
    def failed(self) -> bool:
        return True


def serialized_size(corpus: CompressedCorpus) -> int:
    """Byte size of the corpus's on-disk form (memoized on the corpus)."""
    cached = getattr(corpus, "_serialized_size", None)
    if cached is None:
        cached = len(serialization.serialize(corpus))
        corpus._serialized_size = cached  # type: ignore[attr-defined]
    return cached


def _dictionary_bytes(corpus: CompressedCorpus) -> int:
    """DRAM footprint of the word dictionary."""
    return sum(len(w) for w in corpus.vocab) + _DICT_WORD_OVERHEAD * len(
        corpus.vocab
    )


@dataclass(frozen=True)
class CorpusAnalysis:
    """Corpus-derived DAG metadata shared by every engine over a corpus.

    Deriving this (DAG view, topological orders, Algorithm-2 bounds,
    head/tail lists) is pure Python work on the corpus alone, so it is
    memoized *on the corpus object* keyed by the head/tail width **and
    the corpus content fingerprint**: a comparison run building one
    engine per system stops re-deriving it, and repeated engine builds
    in tests are cheap, while a corpus whose rules were mutated in place
    (segmented ingest appends, compaction rewrites) can never be served
    stale DAG/topo/bounds -- the fingerprint mismatch forces a fresh
    derivation.  Engines still *charge* the derivation cost per run --
    the memo only removes host work, never simulated cost.

    From the second pool build of a corpus on, the analysis also keeps
    the build's :class:`~repro.core.pruning.PoolImage` (one with the
    Algorithm-2 bounds and one without), so later builds only rebase and
    write its bytes; see :meth:`pool_image`.
    """

    dag: Dag
    topo: list[int]
    reverse_topo: list[int]
    topo_position: list[int]
    bounds: list[int]
    heads: list
    tails: list
    headtail_k: int
    #: Per ``bounded`` flag: ``None`` after the first build, the kept
    #: image from the second on.
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pool_image(self, bounded: bool) -> PoolImage:
        """The image a pool build of this corpus writes.

        ``bounded`` says whether the metadata records carry the bounds.
        The first build's image is made and dropped, so a corpus built
        once keeps nothing; the second build's is kept and every later
        build reuses it.
        """
        images = self._images
        image = images.get(bounded)
        if image is None:
            image = PoolImage(
                self.dag.corpus,
                self.dag,
                self.bounds if bounded else None,
                self.headtail_k,
                self.heads,
                self.tails,
            )
            images[bounded] = image if bounded in images else None
        return image


def corpus_analysis(corpus: CompressedCorpus, headtail_k: int) -> CorpusAnalysis:
    """Memoized :class:`CorpusAnalysis` for ``corpus`` at one head/tail width."""
    cache = getattr(corpus, "_analysis_cache", None)
    if cache is None:
        cache = {}
        corpus._analysis_cache = cache  # type: ignore[attr-defined]
    # Key on content, not object identity: a cached entry made before an
    # in-place mutation (ingest append, compaction) must not be served.
    content = corpus.content_key()
    cached = cache.get(headtail_k)
    analysis = cached[1] if cached is not None and cached[0] == content else None
    if analysis is None:
        dag = Dag(corpus)
        topo = dag.topological_order()
        topo_position = [0] * corpus.n_rules
        for position, rule in enumerate(topo):
            topo_position[rule] = position
        # Algorithm 2 bounds, clamped by two further safe upper bounds on
        # a rule's distinct-word count: its expansion length and the
        # vocabulary size (an implementation refinement over the paper's
        # raw summation; see DESIGN.md).
        raw_bounds = summate_all(dag)
        explens = dag.expansion_lengths()
        vocab_size = max(len(corpus.vocab), 1)
        bounds = [
            min(bound, explen, vocab_size)
            for bound, explen in zip(raw_bounds, explens)
        ]
        heads, tails = head_tail_lists(dag, headtail_k)
        analysis = CorpusAnalysis(
            dag=dag,
            topo=topo,
            reverse_topo=list(reversed(topo)),
            topo_position=topo_position,
            bounds=bounds,
            heads=heads,
            tails=tails,
            headtail_k=headtail_k,
        )
        cache[headtail_k] = (content, analysis)
    return analysis


@dataclass
class _RunState:
    """Per-plan simulated machinery (a solo run is a plan of one)."""

    clock: SimulatedClock
    pool_mem: SimulatedMemory
    dram_mem: SimulatedMemory
    dram_alloc: Any
    pool: NvmPool
    ledger: MemoryLedger
    timeline: PhaseTimeline
    disk: DeviceProfile
    phase_persist: PhasePersistence | None
    op_commit: Any
    pruned: PrunedDag | None = None
    #: The attached MediaGuard when ``media_protect`` is on, else None.
    guard: Any = None


class NTadocEngine:
    """Runs analytics tasks on a compressed corpus under one configuration.

    The heavyweight per-corpus derivations (DAG view, topological orders,
    bounds, head/tail lists) are computed once in Python and *charged*
    per run.  The device-resident state is rebuilt, and charged, per run
    so every run is measured from a cold pool; from a corpus's second
    build on, the bytes it writes come from the analysis's
    :class:`~repro.core.pruning.PoolImage` instead of being re-derived.
    """

    system_name = "ntadoc"

    def __init__(
        self, corpus: CompressedCorpus, config: EngineConfig | None = None
    ) -> None:
        self.corpus = corpus
        self.config = config or EngineConfig()
        k = max(self.config.ngram_n - 1, 1)
        analysis = corpus_analysis(corpus, k)
        self._analysis = analysis
        self._dag = analysis.dag
        self._topo = analysis.topo
        self._reverse_topo = analysis.reverse_topo
        self._topo_position = analysis.topo_position
        self._bounds = analysis.bounds
        self._headtail_k = k
        #: Machinery of the most recent run or plan (faultsweep pokes at
        #: the pool/guard after the run to verify scrub idempotence; the
        #: CLI reads wear counters and pool images off it).
        self.last_state: _RunState | None = None
        #: The engine's instruments: the configured tracer, plus the
        #: always-on registry and journal, which live as long as the
        #: engine and accumulate across runs.
        self.recorder = Recorder(self.config.tracer, self.config.metrics)

    @property
    def metrics(self):
        """The always-on metrics registry (None when metrics are off)."""
        return self.recorder.registry

    @property
    def journal(self):
        """The always-on event journal (None when metrics are off)."""
        return self.recorder.journal

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def _estimate_pool_bytes(self, n_tasks: int = 1) -> int:
        corpus = self.corpus
        glen = corpus.grammar_length()
        n = corpus.n_rules
        base = 4096 + n * 64 + glen * 16
        headtail = n * (4 + 8 * self._headtail_k)
        wordlists = sum(
            next_power_of_two(int(max(b, 1) / 0.7) + 1) * 17 + 64
            for b in self._bounds
        )
        counters = len(corpus.vocab) * 24 + 4096
        queue = n * 8 + 4096
        results = glen * 16 + len(corpus.vocab) * 16 + 65536
        estimate = base + headtail + wordlists + counters + queue + results
        # A fused plan shares the pool across its tasks: every extra task
        # may add its own counters, bitmaps, and result blob.
        estimate += (max(n_tasks, 1) - 1) * (counters + results + n * 16)
        if self.config.naive or self.config.scattered_layout or self.config.growable_structures:
            # Scatter gaps (up to 8 lines per allocation) plus growth garbage.
            line = DeviceProfile.by_name(self.config.device).line_size
            estimate = estimate * 3 + (4 * n + 4096) * 9 * line
        return estimate * 2 + (1 << 22)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _new_state(
        self,
        fault_plan: "FaultPlan | None" = None,
        n_tasks: int = 1,
        report: "RecoveryReport | None" = None,
    ) -> _RunState:
        """Simulated machinery for one plan.

        Cold by default.  Given a crashed run's ``report``, it wraps the
        recovered pool instead: that pool's clock keeps ticking (recovery
        cost is part of the measured time), any armed fault plan is
        disarmed, and the surviving pruned DAG is reused.
        """
        from repro.nvm.allocator import PoolAllocator

        config = self.config
        guard = None
        if report is None:
            clock = SimulatedClock()
            profile = DeviceProfile.by_name(config.device)
            pool_bytes = config.pool_bytes or self._estimate_pool_bytes(n_tasks)
            cache_bytes = config.cache_bytes
            if not profile.byte_addressable:
                # Block devices sit behind the OS page cache; the paper caps
                # the memory budget at 20% of the dataset.
                cache_bytes = max(cache_bytes, pool_bytes // 5)
            pool_mem = SimulatedMemory(
                profile,
                pool_bytes,
                clock,
                cache_bytes=cache_bytes,
                name="pool",
                reference=not config.kernels,
                track_wear=config.track_wear,
            )
            if fault_plan is not None:
                pool_mem.arm_faults(fault_plan)
            pool = NvmPool(
                pool_mem,
                scatter=config.use_scattered_layout,
                media_protect=config.media_protect,
            )
            if config.media_protect:
                from repro.nvm.scrub import MediaGuard

                guard = MediaGuard(pool)
        else:
            pool = report.pool
            pool_mem = pool.memory
            pool_mem.disarm_faults()
            clock = pool_mem.clock
        dram_mem = SimulatedMemory(
            DeviceProfile.dram(),
            1 << 24,
            clock,
            name="dram-scratch",
            reference=not config.kernels,
        )
        ledger = MemoryLedger()
        self.recorder.bind(
            clock,
            {"pool": pool_mem, "dram": dram_mem},
            ledger,
            pool=pool,
            snapshot=self._flight_snapshot(pool_mem),
        )
        with attached(self.recorder):
            obs_events.emit(
                "engine_start",
                device=config.device,
                persistence=config.persistence,
            )
            obs_events.emit(
                "kernel_backend",
                backend=type(pool_mem.kernels).__name__
                if pool_mem.kernels is not None
                else "scalar",
                mode=config.kernels,
            )
        return _RunState(
            clock=clock,
            pool_mem=pool_mem,
            dram_mem=dram_mem,
            dram_alloc=PoolAllocator(dram_mem, base=0, capacity=dram_mem.size),
            pool=pool,
            ledger=ledger,
            timeline=PhaseTimeline(clock),
            disk=DeviceProfile.by_name(config.disk),
            phase_persist=(
                PhasePersistence(pool) if config.persistence == "phase" else None
            ),
            op_commit=self._make_op_commit(pool),
            pruned=None if report is None else report.pruned,
            guard=guard,
        )

    def _flight_snapshot(self, pool_mem: SimulatedMemory):
        """Provider for the per-flush ``metrics_snapshot`` slot: a small
        dict of headline counters (must stay well under one slot)."""
        stats = pool_mem.stats
        journal = self.journal

        def provider() -> dict[str, Any]:
            return {
                "events": len(journal.events) if journal is not None else 0,
                "flush_ops": stats.flush_ops,
                "bytes_read": stats.bytes_read,
                "bytes_written": stats.bytes_written,
                "cache_hits": stats.cache_hits,
            }

        return provider

    def _record_run_metrics(
        self, state: _RunState, stats_start, records_start: int, label: str
    ) -> None:
        """Fold one execution's device-traffic delta into the registry.

        Sampled once per run at flush/phase granularity (never per
        access), which keeps the always-on overhead negligible.
        ``records_start`` scopes the timeline to this execution: a
        reused state (degraded-mode re-runs) keeps earlier attempts'
        phase records.
        """
        registry = self.metrics
        if registry is None:
            return
        delta = state.pool_mem.stats.delta(stats_start)
        registry.inc("ntadoc_runs_total", kind=label)
        registry.inc("ntadoc_pool_bytes_read_total", delta.bytes_read)
        registry.inc("ntadoc_pool_bytes_written_total", delta.bytes_written)
        registry.inc("ntadoc_pool_cache_hits_total", delta.cache_hits)
        registry.inc("ntadoc_pool_cache_misses_total", delta.cache_misses)
        registry.inc("ntadoc_pool_flush_ops_total", delta.flush_ops)
        registry.inc("ntadoc_pool_flushed_lines_total", delta.flushed_lines)
        for phase, ns in state.timeline.items(records_start):
            registry.observe("ntadoc_phase_ns", ns, phase=phase)

    def _charge_init_stream(self, state: _RunState) -> None:
        """Per-run initialization charges that precede any pool work:
        stream the compressed artifact from disk, house the dictionary in
        DRAM, and pay the metadata derivation (DAG build, topo sort,
        Algorithm 2, head/tail preprocessing) -- linear grammar passes."""
        corpus = self.corpus
        charge_sequential_io(state.clock, state.disk, serialized_size(corpus))
        state.ledger.charge("dram", "dictionary", _dictionary_bytes(corpus))
        glen = corpus.grammar_length()
        state.clock.cpu(4 * glen + 6 * corpus.n_rules)

    def _build_pruned(self, pool: NvmPool, on_rule=None) -> PrunedDag:
        """Build the device-resident pruned DAG pool (once per plan).

        The bytes come from the corpus analysis's pool image; the charged
        writes are :meth:`PrunedDag.install`'s.
        """
        config = self.config
        return PrunedDag.install(
            pool,
            self._analysis.pool_image(bounded=not config.use_growable_structures),
            per_rule=config.use_scattered_layout,
            on_rule=on_rule,
        )

    def _make_context(self, state: _RunState):
        """The shared task context over ``state``'s pruned DAG pool."""
        from repro.analytics.base import CompressedTaskContext

        config = self.config
        corpus = self.corpus
        return CompressedTaskContext(
            pruned=state.pruned,
            allocator=state.pool.allocator,
            dram=state.dram_mem,
            dram_allocator=state.dram_alloc,
            clock=state.clock,
            ledger=state.ledger,
            vocab=corpus.vocab,
            file_names=corpus.file_names,
            topo_order=self._topo,
            reverse_topo=self._reverse_topo,
            topo_position=self._topo_position,
            strategy=self._resolve_strategy(),
            strategy_forced=config.traversal != "auto",
            growable=config.use_growable_structures,
            ngram_n=config.ngram_n,
            term_vector_k=config.term_vector_k,
            op_commit=(
                state.op_commit
                if config.persistence == "operation"
                else (lambda: None)
            ),
        )

    def _peaks(self, state: _RunState) -> tuple[int, int]:
        """(dram_peak, pool_peak) of one finished run or plan."""
        dram_peak = state.ledger.peak("dram") + state.dram_alloc.peak_bytes
        pool_peak = state.pool.allocator.peak_bytes
        if self.config.device == "dram":
            dram_peak += pool_peak
        return dram_peak, pool_peak

    def run(
        self,
        task: "AnalyticsTask",
        *,
        fault_plan: "FaultPlan | None" = None,
        resume_from: "RecoveryReport | None" = None,
    ) -> "RunResult | TaskFailure":
        """Execute ``task`` through both phases; return the measurement.

        A solo run is a plan of one: the same code path as :meth:`run_many`,
        reported with the plan's own phase times and no shared/exclusive
        split.  Media damage degrades gracefully (:meth:`_degrade`): the
        result is bit-identical to a fault-free run's, or a typed
        :class:`TaskFailure`.

        Args:
            task: The analytics task to run.
            fault_plan: Optional fault-injection schedule armed on the
                pool device for the whole run (crash-sweep harness).
            resume_from: Resume from a crashed run's
                :class:`~repro.core.recovery.RecoveryReport` instead of
                building a fresh pool; completed phases are skipped and
                the analytics output is bit-identical to an uncrashed
                run's.
        """
        return _one(self._start([task], fault_plan, resume_from))

    def run_many(
        self,
        tasks: "list[AnalyticsTask]",
        *,
        fault_plan: "FaultPlan | None" = None,
        resume_from: "RecoveryReport | None" = None,
    ):
        """Execute many tasks against ONE pool build and fused traversals.

        The planner (:mod:`repro.core.plan`) runs at most one DAG pass
        per traversal direction and one root-segment sweep, dispatching
        shared per-rule and per-file records to every task that declared
        a need for them.  Per-task results are bit-identical to solo
        :meth:`run` calls; simulated time is charged once and attributed
        per task (an even share of the shared substrate plus each task's
        exclusive hook time).  Under media damage the plan degrades to
        plans of one (:meth:`_degrade`); tasks that still cannot finish are
        listed in ``PlanResult.failures``.

        Args:
            tasks: The analytics tasks to fuse, in submission order.
            fault_plan: Optional fault-injection schedule armed on the
                pool device for the whole plan (crash-sweep harness).
            resume_from: Resume a crashed plan from its recovered pool;
                per-task outputs match an uncrashed plan's.

        Returns:
            A :class:`~repro.core.plan.PlanResult`.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("run_many needs at least one task")
        return self._start(tasks, fault_plan, resume_from)

    def run_many_on(self, tasks: "list[AnalyticsTask]", state: _RunState):
        """Execute a fused plan against caller-prepared machinery.

        The segmented-ingest layer (:mod:`repro.ingest`) reuses one
        nested pool and one built pruned DAG per sealed segment across
        many queries; it constructs the :class:`_RunState` itself (with
        a fresh per-query timeline) and calls this instead of
        :meth:`run_many`.  When ``state.pruned`` already exists the pool
        build is skipped.
        """
        tasks = list(tasks)
        if not tasks:
            raise ValueError("run_many_on needs at least one task")
        return self._execute(tasks, state)

    def _start(self, tasks, fault_plan, resume_from):
        """One plan on new machinery: a cold pool, or a recovered one.

        The machinery is kept as :attr:`last_state` (the previous one is
        dropped first, so the engine never holds two pools).  A cold pool
        runs through :meth:`_degrade`.  Resuming skips completed phases:
        with initialization checkpointed, only the per-run CPU/stream
        charges are re-paid and the traversal phase re-executes against
        the surviving pruned DAG.  Traversal is overwrite-idempotent
        (weights reset, structures rebuilt at the restored allocator
        top), so the analytics output is bit-identical to an uncrashed
        run's.  When not even initialization survived, the plan starts
        over on a cold pool.
        """
        self.last_state = None
        if resume_from is not None and not (
            resume_from.needs_full_rebuild or resume_from.pruned is None
        ):
            self.last_state = self._new_state(report=resume_from)
            return self._execute(tasks, self.last_state, resumed=True)
        self.last_state = self._new_state(fault_plan, len(tasks))
        return self._degrade(tasks, self.last_state, MAX_RECOVERIES)

    def _execute(
        self, tasks: "list[AnalyticsTask]", state: _RunState, *, resumed: bool = False
    ):
        """Both phases of one plan against prepared machinery.

        Builds the pruned DAG pool unless ``state.pruned`` already exists
        (a resumed run, degraded-mode siblings after a media recovery,
        the segmented layer's cached segment DAGs).  A resumed plan does
        not re-write the initialization checkpoint: it persisted before
        the crash.
        """
        from repro.core.plan import execute_fused

        flags = {"resumed": True} if resumed else {}
        stats_start = state.pool_mem.stats.snapshot()
        records_start = len(state.timeline.records)
        with attached(self.recorder):
            obs_events.emit(
                "phase_start",
                phase="initialization",
                tasks=[task.name for task in tasks],
                **flags,
            )
            with state.timeline.phase("initialization"):
                # The compressed artifact is streamed from disk and the
                # in-DRAM derivations paid on every run, resumed or not.
                with obs.span("init:stream", category="engine"):
                    self._charge_init_stream(state)
                if state.pruned is None:
                    with obs.span("init:pool_build", category="engine"):
                        state.pruned = self._build_pruned(
                            state.pool,
                            state.op_commit
                            if self.config.persistence == "operation"
                            else None,
                        )

            ctx = self._make_context(state)

            # Task-specific precomputation belongs to the initialization
            # phase (Table II's accounting), as does its checkpoint.
            with state.timeline.phase("initialization"):
                fused = self._fuse_tasks(ctx, tasks)
                if resumed:
                    obs_events.emit(
                        "phase_commit", phase="initialization", resumed=True
                    )
                else:
                    self._persist_phase(
                        state.pool, state.phase_persist, "initialization"
                    )

            obs_events.emit("phase_start", phase="traversal", **flags)
            with state.timeline.phase("traversal"):
                outcome = execute_fused(ctx, fused)
                self._write_plan_results(state, fused, outcome.results)
                self._persist_phase(state.pool, state.phase_persist, "traversal")
            for task in tasks:
                obs_events.emit("task_complete", task=task.name, **flags)
        label = "resumed" if resumed else "solo" if len(tasks) == 1 else "fused"
        self._record_run_metrics(state, stats_start, records_start, label)
        return self._finish_plan(state, ctx, fused, outcome, resumed=resumed)

    def _fuse_tasks(self, ctx, tasks: "list[AnalyticsTask]") -> list:
        """Collect every task's fused declaration (initialization phase).

        Fuse-time preparation (e.g. the sequence tasks' rule profiles) is
        dataset-dependent precomputation, which Table II books under
        initialization; its simulated time is attributed exclusively to
        the declaring task.
        """
        fused = []
        for task in tasks:
            with obs.span(f"task:{task.name}:fuse", category="task"):
                start = ctx.clock.ns
                f = task.fuse(ctx)
                f.init_ns += ctx.clock.ns - start
            fused.append(f)
        return fused

    def _write_plan_results(self, state: _RunState, fused: list, results: list) -> None:
        """Write each task's result blob and charge its disk write-back
        (both attributed exclusively to the producing task)."""
        for f, result in zip(fused, results):
            with obs.span(f"task:{f.task.name}:write_back", category="task"):
                start = state.clock.ns
                result_bytes = f.task.result_size_bytes(result)
                self._write_result_blob(state.pool, result_bytes)
                charge_sequential_io(
                    state.clock, state.disk, result_bytes, write=True
                )
                f.exclusive_ns += state.clock.ns - start

    def _finish_plan(
        self, state: _RunState, ctx, fused: list, outcome, *, resumed: bool = False
    ):
        """Assemble the PlanResult: per-task attribution of one charge."""
        from repro.core.plan import PlanResult, PlanStats, plan_groups

        phase_ns = state.timeline.as_dict()
        total_ns = state.timeline.total_sim_ns()
        n = len(fused)
        init_total = phase_ns.get("initialization", 0.0)
        trav_total = phase_ns.get("traversal", 0.0)
        shared_init = max(init_total - sum(f.init_ns for f in fused), 0.0)
        shared_trav = max(trav_total - sum(f.exclusive_ns for f in fused), 0.0)
        dram_peak, pool_peak = self._peaks(state)
        results = []
        for f, result in zip(fused, outcome.results):
            task_phases = {
                "initialization": shared_init / n + f.init_ns,
                "traversal": shared_trav / n + f.exclusive_ns,
            }
            if self.metrics is not None:
                self.metrics.observe(
                    "ntadoc_task_ns",
                    task_phases["initialization"] + task_phases["traversal"],
                    task=f.task.name,
                )
            results.append(
                RunResult(
                    task=f.task.name,
                    system=self.system_name,
                    result=result,
                    phase_ns=task_phases,
                    total_ns=task_phases["initialization"]
                    + task_phases["traversal"],
                    dram_peak=dram_peak,
                    pool_peak=pool_peak,
                    pool_device=self.config.device,
                    strategy=ctx.strategy,
                    ngram_names=ctx.ngram_names,
                    pool_stats=state.pool_mem.stats,
                    resumed=resumed,
                    fused=True,
                    shared_ns=(shared_init + shared_trav) / n,
                    exclusive_ns=f.init_ns + f.exclusive_ns,
                )
            )
        stats = PlanStats(
            n_tasks=n,
            pool_builds=1,
            dag_passes=outcome.dag_passes,
            segment_sweeps=outcome.segment_sweeps,
            groups=plan_groups(fused),
            fused=True,
        )
        return PlanResult(
            results=results, stats=stats, phase_ns=phase_ns, total_ns=total_ns
        )

    # ------------------------------------------------------------------
    # Graceful degradation under media faults
    # ------------------------------------------------------------------

    def _degrade(
        self,
        tasks: "list[AnalyticsTask]",
        state: _RunState,
        budget: int,
        quarantined: "list[str] | tuple[str, ...]" = (),
        scrub: Any = None,
    ):
        """Run a plan; on media damage, scrub once and re-run each task
        as a plan of one with ``budget - 1``.

        A :class:`~repro.errors.MediaError` anywhere in the plan triggers
        recovery instead of propagating: scrub the pool (heal transients,
        remap stuck lines, quarantine unrecoverable chunks), rename the
        damaged build's regions out of the way (never freed -- the
        exact-size free list would recycle damaged extents into fresh
        structures), and rebuild from the source corpus.  Each task then
        completes or fails alone, so siblings finish around damage that
        is gone for good.  A task whose budget is spent, whose scrub
        itself fails, or whose rebuild is crowded out by quarantined
        extents becomes a :class:`TaskFailure` -- never a silent wrong
        answer.  Without a guard (``media_protect=False``) there is
        nothing to recover with: every task fails as ``"unprotected"``.

        ``quarantined`` and ``scrub`` carry the regions renamed and the
        last :class:`~repro.nvm.scrub.ScrubReport` down the recursion
        into the failure reports.  Returns a
        :class:`~repro.core.plan.PlanResult`.
        """
        quarantined = list(quarantined)
        kind = None
        try:
            return self._execute(tasks, state)
        except MediaError as exc:
            error = exc
            if state.guard is None:
                kind = "unprotected"
            elif budget > 0:
                try:
                    scrub = self._recover_media(state, quarantined)
                    error = None
                except MediaError as scrub_exc:
                    # The device is failing faster than the scrub can walk
                    # it (e.g. wear death on the recovery's own
                    # bookkeeping lines).  Still a typed outcome.
                    error = scrub_exc
        except OutOfMemoryError as exc:
            # Only rebuilds crowded out by quarantined extents are a
            # resilience outcome; a fresh-pool OOM is a sizing bug.
            if not any(
                name.startswith("__quarantined")
                for name in state.pool.region_names()
            ):
                raise
            error, kind = exc, "oom"
        results: list[RunResult] = []
        failures: list[TaskFailure] = []
        for task in tasks:
            if error is not None:
                failures.append(
                    self._fail_task(task, state, error, kind, scrub, quarantined)
                )
                continue
            start = len(state.timeline.records)
            out = _one(self._degrade([task], state, budget - 1, quarantined, scrub))
            if out.failed:
                failures.append(out)
                continue
            # The task's share of the plan is its own re-run (and any
            # recovery inside it), not the timeline that came before.
            results.append(
                replace(
                    out,
                    phase_ns=state.timeline.as_dict(start),
                    total_ns=state.timeline.total_sim_ns(start),
                )
            )
        return self._degraded_plan(state, results, failures)

    def scrub_and_quarantine(self):
        """Scrub the last run's pool and quarantine its build.

        The faultsweep harness's post-run leg: a full scrub pass catches
        *latent* damage the run never read, and the quarantine-rename
        forces the next :meth:`rerun_resilient` to rebuild from source
        instead of trusting chunks the scrub's write test touched.
        Returns the :class:`~repro.nvm.scrub.ScrubReport`.

        Raises:
            ReproError: without a preceding media-protected run.
            MediaError: when the device fails faster than the scrub can
                walk it (damage landing on the scrub's own bookkeeping
                reads) -- still a typed, detected outcome.
        """
        state = self.last_state
        if state is None or state.guard is None:
            raise ReproError(
                "no media-protected run to scrub; run a task with "
                "EngineConfig(media_protect=True) first"
            )
        return self._recover_media(state, [])

    def rerun_resilient(self, task: "AnalyticsTask") -> "RunResult | TaskFailure":
        """Re-run ``task`` on the last run's machinery.

        The faultsweep harness's re-analyze leg: after
        :meth:`scrub_and_quarantine` the pool holds only healed (or
        quarantined) chunks, and a successful re-run must be bit-identical
        to a fault-free run's analytics output.

        Raises:
            ReproError: without a preceding run.
        """
        if self.last_state is None:
            raise ReproError("no run to re-analyze")
        return _one(self._degrade([task], self.last_state, MAX_RECOVERIES))

    def _recover_media(self, state: _RunState, quarantined: list[str]):
        """Scrub the pool and quarantine the damaged build (force rebuild).

        Returns the :class:`~repro.nvm.scrub.ScrubReport`.  Every
        non-infrastructure region of the failed build is renamed to a
        ``__quarantined{n}__`` name: the rebuild must not collide with
        surviving names, and the damaged extents must never re-enter the
        allocator's free list.  Remap-table updates ride a transaction
        log so a crash mid-recovery stays recoverable by the PR-3 triad.
        """
        from repro.nvm.persist import TransactionLog

        pool = state.pool
        with attached(self.recorder):
            with state.timeline.phase("recovery"):
                with obs.span("recover:media", category="recovery") as span:
                    txlog = TransactionLog(
                        pool, capacity=1 << 14, auto_capacity=True
                    )
                    report = state.guard.scrub(txlog=txlog)
                    seq = sum(
                        1
                        for name in pool.region_names()
                        if name.startswith("__quarantined")
                    )
                    for name in list(pool.region_names()):
                        if name.startswith("__") or name.startswith("results_"):
                            continue
                        qname = f"__quarantined{seq}__{name}"
                        pool.rename_region(name, qname)
                        quarantined.append(qname)
                        seq += 1
                    state.pruned = None
                    if span is not None:
                        span.attrs["mismatches"] = report.mismatches
                        span.attrs["quarantined_regions"] = len(quarantined)
                    obs_events.emit(
                        "media_recovery",
                        severity="warning",
                        mismatches=report.mismatches,
                        quarantined_regions=len(quarantined),
                    )
                    obs_metrics.inc("ntadoc_media_recoveries_total")
        return report

    def _fail_task(
        self,
        task: "AnalyticsTask",
        state: _RunState,
        exc: Exception,
        kind: str | None,
        scrub: Any,
        quarantined: list[str],
    ) -> TaskFailure:
        return TaskFailure(
            task=task.name,
            error=str(exc),
            kind=kind if kind is not None else getattr(exc, "kind", None),
            offset=getattr(exc, "offset", None),
            line=getattr(exc, "line", None),
            scrub=scrub,
            quarantined_regions=list(quarantined),
            total_ns=state.clock.ns,
        )

    def _degraded_plan(
        self,
        state: _RunState,
        results: "list[RunResult]",
        failures: "list[TaskFailure]",
    ):
        from repro.core.plan import PlanResult, PlanStats

        stats = PlanStats(
            n_tasks=len(results) + len(failures),
            pool_builds=1,
            fused=False,
        )
        return PlanResult(
            results=results,
            stats=stats,
            phase_ns=state.timeline.as_dict(),
            total_ns=state.timeline.total_sim_ns(),
            failures=failures,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_strategy(self) -> str:
        """The per-file counting strategy of every plan on this engine.

        A pinned ``traversal`` wins.  Otherwise Section VI-E's trade-off,
        decided from the input alone: top-down re-sweeps the whole DAG
        once per file (files x |grammar| entry reads), bottom-up builds
        every rule's word list once (about the sum of the Algorithm-2
        bounds) and merges per file.  See docs/cost_model.md for the
        crossover this ratio was fitted to.
        """
        if self.config.traversal != "auto":
            return self.config.traversal
        corpus = self.corpus
        sweeps = corpus.n_files * corpus.grammar_length()
        if sweeps > BOTTOMUP_RATIO * sum(self._bounds):
            return "bottomup"
        return "topdown"

    def _make_op_commit(self, pool: NvmPool):
        """Operation-level persistence: commit marker + flush per batch."""
        if self.config.persistence != "operation":
            return lambda: None
        if pool.has_region("__opmarker__"):  # resumed run
            marker_off = pool.get_region("__opmarker__")[0]
        else:
            marker_off = pool.alloc_region("__opmarker__", 8)
        mem = pool.memory
        batch = max(1, self.config.op_batch)
        pending = 0

        def op_commit() -> None:
            nonlocal pending
            pending += 1
            if pending < batch:
                return
            pending = 0
            # The batch's data must be durable before the commit marker
            # advances -- flushes are not atomic, so marker and data on
            # one flush could persist in either order.
            mem.flush()
            count = layout.read_u64(mem, marker_off)
            layout.write_u64(mem, marker_off, count + 1)
            mem.flush()

        return op_commit

    def _persist_phase(
        self, pool: NvmPool, phase_persist: PhasePersistence | None, name: str
    ) -> None:
        if phase_persist is not None:
            with obs.span(f"persist:phase:{name}", category="persist"):
                # Data (and directory) first, marker second: flushes are
                # not atomic, so a marker riding the same flush as its
                # data could persist ahead of it and checkpoint a phase
                # whose writes never reached media.
                pool.flush()
                # Emitted between the data flush and the marker flush so
                # the commit record rides the marker's flush into the
                # black box -- the on-media tail tracks the checkpoint
                # to within one torn flush.
                obs_events.emit("phase_commit", phase=name)
                phase_persist.complete_phase(name)
        elif self.config.persistence == "operation":
            with obs.span(f"persist:phase:{name}", category="persist"):
                obs_events.emit("phase_commit", phase=name)
                pool.flush()

    def _write_result_blob(self, pool: NvmPool, result_bytes: int) -> None:
        """Write the serialized result into the pool (sequential stream)."""
        if result_bytes <= 0:
            return
        region = f"results_{len(pool.region_names())}"
        offset = pool.alloc_region(region, result_bytes)
        mem = pool.memory
        # One zero-fill per 4 KiB stripe keeps the historical access shape
        # (write_ops, per-call spans) while fill avoids materializing data.
        written = 0
        while written < result_bytes:
            step = min(4096, result_bytes - written)
            mem.fill(offset + written, step)
            written += step


def _one(plan) -> "RunResult | TaskFailure":
    """The outcome of a plan of one: its failure, or its result reported
    as a solo run (the plan's own phase times, no shared/exclusive
    split)."""
    if plan.failures:
        return plan.failures[0]
    (run,) = plan.results
    return replace(
        run,
        phase_ns=plan.phase_ns,
        total_ns=plan.total_ns,
        fused=False,
        shared_ns=0.0,
        exclusive_ns=0.0,
    )


def run_task(
    corpus: CompressedCorpus,
    task: "AnalyticsTask",
    config: EngineConfig | None = None,
) -> RunResult:
    """One-shot convenience: build an engine and run a single task."""
    return NTadocEngine(corpus, config).run(task)


def check_pool_fits(result: RunResult) -> None:
    """Sanity guard used by the harness.

    Raises:
        ReproError: if the run reported a zero-byte pool footprint, which
            would indicate the engine did no device-resident work.
    """
    if result.pool_peak <= 0:
        raise ReproError("engine run left no footprint on the pool device")
