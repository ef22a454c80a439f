"""The benchmark's three workloads: seeded inputs, timed operations, oracles.

Every workload builds its inputs from the run's seed, runs operations in
*periods* (a fixed, seeded batch of operations whose composition never
changes, so medians do not drift with how many operations fit in the
time budget), and checks every operation against an oracle that does
not share the code path under test:

* ``query-mix`` and ``cold-pipeline`` compare each N-TADOC result with
  :class:`~repro.baselines.UncompressedEngine` run over a root-only
  corpus tokenized straight from the source text (no Sequitur), in the
  rendered word/document-name space of :mod:`repro.ingest.merge`;
* ``ingest-stream`` compares each checkpoint with
  ``SegmentedEngine.recompress_baseline`` and with the same uncompressed
  oracle over the benchmark's own record of the live documents.

The timed part of an operation is :meth:`Workload.run_op`; set-up,
oracle work and checks are untimed.  Calls into the program go through
``self.spans.span(...)`` so a traced pass can record them.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.analytics import ALL_TASKS, task_by_name
from repro.baselines import UncompressedEngine
from repro.core.engine import EngineConfig, NTadocEngine, serialized_size
from repro.core.grammar import SEP_BASE, CompressedCorpus
from repro.datasets.generator import generate_corpus_files
from repro.datasets.profiles import PROFILES
from repro.ingest import SegmentedEngine, canonical_json, synthetic_trace
from repro.ingest.merge import render_result
from repro.nvm.stats import MemoryStats
from repro.sequitur import Dictionary, compress_files, tokenize

TRIO = ("word_count", "inverted_index", "term_vector")
SOLO = tuple(cls.name for cls in ALL_TASKS)
#: Query kinds: the six paper tasks run solo, and the fused trio.
KINDS = SOLO + ("trio",)
PERSISTENCE = ("phase", "operation")


def sub_seed(seed: int, *labels: object) -> int:
    """A derived seed; string seeding of ``random.Random`` is stable
    across processes (it does not depend on ``PYTHONHASHSEED``)."""
    return random.Random(":".join(map(str, (seed, *labels)))).randrange(1 << 31)


#: Pool files are generated this many times longer, then cut to the
#: profile's mean length (a shortfall, for about 2% of files, stays).
LENGTH_HEADROOM = 2
#: A profile's pool holds this many times the files its sources draw.
POOL_FACTOR = 2


def profile_sources(profile: str, seed: int, count: int = 1) -> list[list]:
    """``count`` disjoint sources of a paper profile, drawn by the seed.

    Each profile has one fixed pool of documents, generated from
    ``dataclasses.replace(PROFILES[p].spec, ...)`` with the profile's own
    seed, ``POOL_FACTOR`` times the files the sources need.  The run's
    seed picks which documents each source holds, and their order.  A
    generator seed per run would also redraw the profile's vocabulary,
    phrases and templates: then one source's compression ratio, peaks
    and latencies move by 10-25% from seed to seed, more than any bound
    this benchmark could hold.  Every file is cut to the profile's mean
    length, so the seed changes content, not size.  Never ``corpus_for``:
    its in-process memo and disk cache would skip Sequitur.
    """
    spec = PROFILES[profile].spec
    pool = generate_corpus_files(
        dataclasses.replace(
            spec,
            n_files=spec.n_files * count * POOL_FACTOR,
            tokens_per_file=spec.tokens_per_file * LENGTH_HEADROOM,
        )
    )
    texts = [" ".join(text.split()[: spec.tokens_per_file]) for _, text in pool]
    drawn = random.Random(sub_seed(seed, "profile", profile)).sample(
        texts, spec.n_files * count
    )
    return [
        [
            (f"doc_{i:05d}.txt", text)
            for i, text in enumerate(drawn[k * spec.n_files : (k + 1) * spec.n_files])
        ]
        for k in range(count)
    ]


def text_bytes(files) -> int:
    return sum(len(text.encode("utf-8")) for _, text in files)


def flat_corpus(files) -> CompressedCorpus:
    """Root-only corpus over the tokenized source: the oracle's input,
    built without Sequitur so a compression bug cannot hide in it."""
    dictionary = Dictionary()
    root: list[int] = []
    for index, (_, text) in enumerate(files):
        root.extend(dictionary.encode(tokenize(text)))
        root.append(SEP_BASE + index)
    return CompressedCorpus(
        rules=[root], vocab=dictionary.words(), file_names=[n for n, _ in files]
    )


def rendered(task: str, run, corpus) -> str:
    """Canonical JSON of one run's result in word/document-name space."""
    return canonical_json(
        render_result(
            task, run.result, corpus.vocab, corpus.file_names, run.ngram_names
        )
    )


class Reference:
    """Uncompressed-engine oracle for one source and persistence mode."""

    def __init__(self, files, persistence: str, tasks=SOLO) -> None:
        self.corpus = flat_corpus(files)
        engine = UncompressedEngine(self.corpus, EngineConfig(persistence=persistence))
        self.expected: dict[str, str] = {}
        self.sim_ns: dict[str, float] = {}
        for task in tasks:
            run = engine.run(task_by_name(task))
            self.expected[task] = rendered(task, run, self.corpus)
            self.sim_ns[task] = run.total_ns

    def grammar_errors(self, corpus: CompressedCorpus) -> list[str]:
        """Sequitur round trip: the grammar must expand to the source."""
        if corpus.vocab != self.corpus.vocab:
            return ["compressed vocabulary differs from the tokenized source"]
        if corpus.expand_files() != self.corpus.expand_files():
            return ["compressed corpus does not expand to its source"]
        return []


@dataclass
class EngineCall:
    """One call into ``repro.core`` and the counters it returned."""

    kind: str
    init_ns: float
    traversal_ns: float
    lines: int
    dram_peak: int = 0
    pool_peak: int = 0
    plan: Any = None  # PlanStats for plan calls; solo run() returns none


@dataclass
class Op:
    """What one timed operation did, as the program reported it."""

    label: str
    source_bytes: int  # text analysed (or appended) by the operation
    sim_ns: float = 0.0  # simulated ns the operation charged
    query_sim_ns: float = 0.0  # of which the analytics queries
    unc_sim_ns: float = 0.0  # uncompressed engine, same queries
    dram_peak: int = 0
    pool_peak: int = 0
    artifact_bytes: int = 0  # compressed artifact size ...
    artifact_source_bytes: int = 0  # ... and the source bytes it holds
    stats: MemoryStats = field(default_factory=MemoryStats)
    calls: list[EngineCall] = field(default_factory=list)
    segments: int = 0  # ingest: live segments the checkpoint queried
    media_bytes_written: int = 0  # ingest: device write-backs and flushes
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    calibration_ms: float = 0.0  # calibration loop around the operation
    scaled_s: float = 0.0  # wall_s at the reference machine's speed
    payload: Any = None  # raw results, dropped once checked


def engine_call(kind: str, result) -> EngineCall:
    """EngineCall from a RunResult or a PlanResult of a fresh engine."""
    first = result.results[0] if hasattr(result, "stats") else result
    stats = first.pool_stats
    return EngineCall(
        kind=kind,
        init_ns=result.phase_ns.get("initialization", 0.0),
        traversal_ns=result.phase_ns.get("traversal", 0.0),
        lines=stats.lines_read + stats.lines_written,
        dram_peak=first.dram_peak,
        pool_peak=first.pool_peak,
        plan=getattr(result, "stats", None),
    )


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    #: Operations per period.
    period = 1
    #: Wall seconds of one period, untimed checks included, on the
    #: reference machine (2-core x86_64); sets how many periods a run's
    #: time budget buys.
    nominal_period_s = 1.0
    #: True when operations mutate the set-up state, so every pass that
    #: must repeat the same operations starts from a fresh set-up.
    stateful = False

    def __init__(self, seed: int, spans) -> None:
        self.seed = seed
        self.spans = spans

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_reference(self) -> None:
        """Untimed oracle work that does not depend on operations."""

    def run_op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, index: int, op: Op) -> None:
        raise NotImplementedError


class QueryMix(Workload):
    """Queries on pre-compressed profiles B and D (see README.md)."""

    name = "query-mix"
    #: A period runs each combination once; a run has several periods,
    #: so the median and the tail do not rest on one sample of a kind.
    period = 2 * len(KINDS) * len(PERSISTENCE)
    nominal_period_s = 8.0

    def setup(self) -> None:
        self.files: dict[str, list] = {}
        self.corpora: dict[str, CompressedCorpus] = {}
        for profile in ("B", "D"):
            with self.spans.span("datasets.generate"):
                (files,) = profile_sources(profile, self.seed)
            with self.spans.span("sequitur.compress_files"):
                corpus = compress_files(files)
            with self.spans.span("core.run:word_count"):
                NTadocEngine(corpus).run(task_by_name("word_count"))
            self.files[profile], self.corpora[profile] = files, corpus

    def prepare_reference(self) -> None:
        self.refs = {
            (profile, persistence): Reference(self.files[profile], persistence)
            for profile in self.corpora
            for persistence in PERSISTENCE
        }
        self.grammar_errors = [
            error
            for profile, corpus in self.corpora.items()
            for error in self.refs[profile, "phase"].grammar_errors(corpus)
        ]
        self.source = {p: text_bytes(f) for p, f in self.files.items()}

    def _combo(self, index: int) -> tuple[str, str, str]:
        combos = [
            (profile, kind, persistence)
            for profile in ("B", "D")
            for kind in KINDS
            for persistence in PERSISTENCE
        ]
        period, slot = divmod(index, self.period)
        random.Random(sub_seed(self.seed, self.name, period)).shuffle(combos)
        return combos[slot]

    def run_op(self, index: int) -> Op:
        profile, kind, persistence = self._combo(index)
        corpus = self.corpora[profile]
        op = Op(f"{profile}/{kind}/{persistence}", self.source[profile])
        with self.spans.span("core.engine_init"):
            engine = NTadocEngine(
                corpus, EngineConfig(device="nvm", persistence=persistence)
            )
        if kind == "trio":
            with self.spans.span("core.run_many:trio"):
                result = engine.run_many([task_by_name(t) for t in TRIO])
            runs = result.results
        else:
            with self.spans.span(f"core.run:{kind}"):
                result = engine.run(task_by_name(kind))
            runs = [result]
        op.payload = (profile, persistence, runs)
        op.calls.append(engine_call(kind, result))
        op.sim_ns = op.query_sim_ns = result.total_ns
        op.dram_peak, op.pool_peak = runs[0].dram_peak, runs[0].pool_peak
        op.stats = runs[0].pool_stats
        op.artifact_bytes = serialized_size(corpus)
        op.artifact_source_bytes = self.source[profile]
        return op

    def check(self, index: int, op: Op) -> None:
        profile, persistence, runs = op.payload
        ref = self.refs[profile, persistence]
        op.errors.extend(self.grammar_errors)
        for run in runs:
            if rendered(run.task, run, self.corpora[profile]) != ref.expected[run.task]:
                op.errors.append(f"{op.label}: {run.task} differs from the oracle")
        op.unc_sim_ns = math.fsum(ref.sim_ns[run.task] for run in runs)


class ColdPipeline(Workload):
    """Raw text -> Sequitur -> fused trio, memo always cold (README.md)."""

    name = "cold-pipeline"
    #: Distinct sources per profile; a period runs each source once.
    #: Several sources average out how well one draw compresses.  C
    #: operations take about twice as long as A ones.  With three A
    #: operations per two C ones, two periods (30 samples) put the median
    #: inside the A cluster and the tail (around the 11th-slowest) inside the C
    #: cluster, away from the gap between the two.
    SOURCES = {"A": 9, "C": 6}
    period = sum(SOURCES.values())
    nominal_period_s = 11.0

    def setup(self) -> None:
        # Every operation re-compresses its source from scratch into new
        # objects, so no memo (corpus analysis, serialized size) survives
        # from one operation to the next.
        self.files = {}
        for profile, count in self.SOURCES.items():
            with self.spans.span("datasets.generate"):
                sources = profile_sources(profile, self.seed, count)
            for index, files in enumerate(sources):
                self.files[profile, index] = files

    def prepare_reference(self) -> None:
        self.refs = {key: Reference(f, "phase", TRIO) for key, f in self.files.items()}
        self.source = {key: text_bytes(f) for key, f in self.files.items()}

    def run_op(self, index: int) -> Op:
        period, slot = divmod(index, self.period)
        order = sorted(self.files)
        random.Random(sub_seed(self.seed, self.name, period)).shuffle(order)
        key = order[slot]
        op = Op(f"{key[0]}{key[1]}/trio/phase", self.source[key])
        with self.spans.span("sequitur.compress_files"):
            corpus = compress_files(self.files[key])
        with self.spans.span("core.engine_init"):
            engine = NTadocEngine(corpus, EngineConfig(device="nvm"))
        with self.spans.span("core.run_many:trio"):
            plan = engine.run_many([task_by_name(t) for t in TRIO])
        op.payload = (key, corpus, plan.results)
        op.calls.append(engine_call("trio", plan))
        op.sim_ns = op.query_sim_ns = plan.total_ns
        op.dram_peak, op.pool_peak = plan[0].dram_peak, plan[0].pool_peak
        op.stats = plan[0].pool_stats
        op.artifact_source_bytes = self.source[key]
        return op

    def check(self, index: int, op: Op) -> None:
        key, corpus, runs = op.payload
        ref = self.refs[key]
        op.errors.extend(ref.grammar_errors(corpus))
        for run in runs:
            if rendered(run.task, run, corpus) != ref.expected[run.task]:
                op.errors.append(f"{op.label}: {run.task} differs from the oracle")
        op.unc_sim_ns = math.fsum(ref.sim_ns[t] for t in TRIO)
        op.artifact_bytes = serialized_size(corpus)


#: ingest-stream shape, the one benchmarks/test_ingest.py measures: the
#: live set stays at LIVE_DOCS documents of DOC_TOKENS words, and every
#: round appends and deletes DELTA_DOCS (10%) of them.
LIVE_DOCS = 120
DELTA_DOCS = 12
DOC_TOKENS = 50
CHECKPOINT = ["word_count", "inverted_index"]
COMPACT_EVERY = 3
#: A multiple of COMPACT_EVERY, so exactly one round in COMPACT_EVERY is
#: slow (compaction, sometimes with a reopen): the median is a plain
#: round, and the tail (around the 11th-slowest) a compaction round.
REOPEN_EVERY = 12
NO_AUTO_SEAL = 10**9


class IngestStream(Workload):
    """Steady-state append/delete/seal/checkpoint rounds (README.md)."""

    name = "ingest-stream"
    period = REOPEN_EVERY
    nominal_period_s = 5.4
    stateful = True

    def _docs(self, seed: int, count: int) -> list[tuple[str, str]]:
        """``count`` new documents: the appends of ``synthetic_trace``'s
        bulk load (its Zipf text over its default vocabulary), renamed so
        names stay unique across rounds."""
        docs = []
        trace = synthetic_trace(
            n_docs=count, doc_tokens=DOC_TOKENS, rounds=0, seed=seed
        )
        for op in trace:
            if op.op == "append":
                name = f"doc{len(self.doc_bytes):06d}"
                self.doc_bytes[name] = len(op.text.encode("utf-8"))
                docs.append((name, op.text))
        return docs

    def setup(self) -> None:
        #: Source bytes of every document ever appended.
        self.doc_bytes: dict[str, int] = {}
        self.config = EngineConfig()
        #: The benchmark's own record of the live documents, in order.
        self.live: dict[str, str] = {}
        self.engine = SegmentedEngine(self.config, seal_threshold_tokens=NO_AUTO_SEAL)
        for name, text in self._docs(sub_seed(self.seed, "bulk"), LIVE_DOCS):
            with self.spans.span("ingest.append"):
                self.engine.append(name, text)
            self.live[name] = text
        with self.spans.span("ingest.seal"):
            self.engine.seal()
        with self.spans.span("ingest.run_tasks"):
            self.engine.run_tasks(CHECKPOINT)

    def _probe(self, calls: list[EngineCall]):
        """Wrap ``NTadocEngine.run_many_on`` (the per-segment plans behind
        ``run_tasks``) to read the counters each plan returns."""
        original = NTadocEngine.__dict__["run_many_on"]
        spans = self.spans

        def run_many_on(engine, tasks, state):
            before = state.pool_mem.stats.snapshot()
            with spans.span("core.run_many_on"):
                plan = original(engine, tasks, state)
            delta = state.pool_mem.stats.delta(before)
            calls.append(
                EngineCall(
                    kind="segment",
                    init_ns=plan.phase_ns.get("initialization", 0.0),
                    traversal_ns=plan.phase_ns.get("traversal", 0.0),
                    lines=delta.lines_read + delta.lines_written,
                    dram_peak=plan[0].dram_peak,
                    pool_peak=plan[0].pool_peak,
                    plan=plan.stats,
                )
            )
            return plan

        return original, run_many_on

    def run_op(self, index: int) -> Op:
        round_no = index + 1
        rng = random.Random(sub_seed(self.seed, self.name, round_no))
        victims = rng.sample(list(self.live), DELTA_DOCS)
        delta_seed = sub_seed(self.seed, self.name, round_no, "delta")
        delta = self._docs(delta_seed, DELTA_DOCS)
        engine, spans = self.engine, self.spans
        memory = engine.memory
        op = Op(f"round/{round_no}", text_bytes(delta))
        clock_start, stats_start = memory.clock.ns, memory.stats.snapshot()
        original, probe = self._probe(op.calls)
        NTadocEngine.run_many_on = probe
        try:
            for name, text in delta:
                with spans.span("ingest.append"):
                    engine.append(name, text)
            for name in victims:
                with spans.span("ingest.delete"):
                    engine.delete(name)
            with spans.span("ingest.seal"):
                engine.seal()
            names_before = None
            if round_no % REOPEN_EVERY == 0:
                names_before = engine.corpus.live_doc_names()
                with spans.span("nvm.crash"):
                    memory.crash()
                with spans.span("ingest.reopen"):
                    engine = self.engine = SegmentedEngine.reopen(
                        memory,
                        engine.artifacts,
                        self.config,
                        seal_threshold_tokens=NO_AUTO_SEAL,
                    )
            with spans.span("ingest.run_tasks"):
                query = engine.run_tasks(CHECKPOINT)
            if round_no % COMPACT_EVERY == 0:
                with spans.span("ingest.compact"):
                    engine.compact()
        finally:
            NTadocEngine.run_many_on = original
        for name in victims:
            del self.live[name]
        self.live.update(delta)
        op.payload = (query, names_before, engine.corpus.live_doc_names())
        op.sim_ns = memory.clock.ns - clock_start
        op.query_sim_ns = query.query_ns
        op.stats = memory.stats.delta(stats_start)
        op.dram_peak = max(call.dram_peak for call in op.calls)
        op.pool_peak = max(call.pool_peak for call in op.calls)
        op.segments = query.n_segments
        op.media_bytes_written = (
            op.stats.writebacks + op.stats.flushed_lines
        ) * memory.profile.line_size
        return op

    def check(self, index: int, op: Op) -> None:
        query, names_before, names_after = op.payload
        expected_names = list(self.live)
        if names_after != expected_names:
            op.errors.append(f"{op.label}: live documents differ from the record")
        if names_before is not None and names_before != names_after:
            op.errors.append(f"{op.label}: reopen changed the live documents")
        baseline, _ = self.engine.recompress_baseline(CHECKPOINT)
        ref = Reference(list(self.live.items()), self.config.persistence, CHECKPOINT)
        for task in CHECKPOINT:
            got = canonical_json(query.rendered[task])
            if got != canonical_json(baseline[task]):
                op.errors.append(f"{op.label}: {task} differs from recompress_baseline")
            if got != ref.expected[task]:
                op.errors.append(f"{op.label}: {task} differs from the oracle")
        op.unc_sim_ns = math.fsum(ref.sim_ns.values())
        segments = self.engine.corpus.segments
        op.artifact_bytes = sum(serialized_size(s.corpus) for s in segments)
        op.artifact_source_bytes = sum(
            self.doc_bytes[name] for s in segments for name in s.corpus.file_names
        )


WORKLOADS = {cls.name: cls for cls in (QueryMix, ColdPipeline, IngestStream)}
