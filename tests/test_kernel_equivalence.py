"""Differential equivalence suite for the bulk-kernel subsystem.

The kernels (``repro.kernels``) promise the charge-from-plan /
execute-vectorized contract: simulated time, per-device stats, wear,
LRU order and the device buffer image are **bit-identical** (``==``, no
tolerances) whether a workload runs on a reference memory
(``SimulatedMemory(reference=True)``: per-line charging, scalar loops)
or on the default fast memory with its kernels.  This suite holds that
promise three ways:

* property-based op programs over the persistent containers and over
  the pruned DAG's host decode cache and its warm walks (pokes,
  crashes, armed read corruption and declined clock windows included),
  replayed against one memory per mode and compared
  snapshot-for-snapshot,
* an engine-level fused trio run compared across every mode,
* the crash-sweep harness run with kernels on and off, whose reports
  (recovery costs included) must render identically.
"""

from __future__ import annotations

import struct
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics import task_by_name
from repro.analytics.inverted_index import InvertedIndex
from repro.analytics.perfile import segment_word_counts
from repro.analytics.term_vector import TermVector
from repro.analytics.word_count import WordCount
from repro.core.dag import Dag
from repro.core.engine import EngineConfig, NTadocEngine
from repro.core.pruning import META_RECORD_SIZE, PrunedDag
from repro.core.summation import summate_all
from repro.core.traversal import (
    compute_wordlists_bottomup,
    full_sweep_weights_for_segment,
    local_weights_for_segment,
    merge_segment_counts,
)
from repro.datasets import corpus_for
from repro.errors import CapacityError
from repro.harness.crashsweep import SweepConfig, render_report, run_sweep
from repro.ingest import SegmentedEngine, synthetic_trace
from repro.kernels import dagops, hashops
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan, ReadCorruption
from repro.nvm.memory import SimulatedMemory
from repro.nvm.pool import NvmPool
from repro.obs.tracer import Tracer
from repro.pstruct.phashtable import PHashTable
from repro.pstruct.pqueue import PQueue
from repro.pstruct.pvector import PVector
from repro.sequitur.compressor import compress_files

def snapshot(mem: SimulatedMemory) -> tuple:
    """Every observable the contract pins, as one comparable tuple."""
    s = mem.stats
    return (
        mem.clock.ns,
        bytes(mem._buf),
        mem.wear,
        mem._last_media_line,
        list(mem._cache._lines.items()),  # content + LRU order
        s.device_ns,
        s.cache_hits,
        s.cache_misses,
        s.writebacks,
        s.lines_read,
        s.lines_written,
        s.read_ops,
        s.write_ops,
        s.bytes_read,
        s.bytes_written,
    )


# -- hash-table op programs ------------------------------------------------

_KEYS = st.integers(min_value=0, max_value=47)
_VALS = st.integers(min_value=-40, max_value=2000)
_PAIRS = st.lists(st.tuples(_KEYS, _VALS), max_size=40)

_TABLE_OP = st.one_of(
    st.tuples(st.just("add_many"), _PAIRS),
    st.tuples(st.just("insert_many"), _PAIRS),
    st.tuples(st.just("get_many"), st.lists(_KEYS, max_size=30)),
    st.tuples(st.just("merge"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("accumulate"), st.just(None)),
    st.tuples(st.just("items"), st.just(None)),
    st.tuples(st.just("items_prefix"), st.integers(min_value=0, max_value=220)),
    st.tuples(st.just("delete"), _KEYS),
)


def _run_table_program(reference: bool, cache_bytes: int, ops) -> tuple:
    mem = SimulatedMemory(
        DeviceProfile.nvm(), 1 << 20, cache_bytes=cache_bytes, reference=reference
    )
    alloc = PoolAllocator(mem, 0, 1 << 19)
    source = PHashTable.create(alloc, 64)
    target = PHashTable.create(alloc, 48)
    source.add_many((k, k % 7 + 1) for k in range(40))
    # Spans several 512-slot scan chunks, so a partial drain can stop
    # in any of them.
    wide = PHashTable.create(alloc, 2000)
    wide.add_many((k * 7919, k) for k in range(200))
    observed: list = []
    for name, arg in ops:
        try:
            if name == "add_many":
                target.add_many(arg)
            elif name == "insert_many":
                target.insert_many(arg)
            elif name == "get_many":
                observed.append(target.get_many(arg, default=-1))
            elif name == "merge":
                target.merge_from(source, scale=arg)
            elif name == "accumulate":
                counts: dict = {}
                target.accumulate_into(counts, mem.clock)
                observed.append(counts)
            elif name == "items":
                observed.append(list(target.items()))
            elif name == "items_prefix":
                observed.append(list(islice(wide.items(), arg)))
                observed.append(list(islice(target.items(), arg)))
            elif name == "delete":
                observed.append(target.delete(arg))
        except CapacityError as exc:
            # The kernel raises mid-batch with the scalar path's partial
            # state; message and every later observation must agree too.
            observed.append(("capacity", str(exc)))
    observed.append(target.to_dict())
    observed.append((len(target), target._tombstones))
    return snapshot(mem), observed


class TestHashTableDifferential:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(_TABLE_OP, max_size=12),
        cache_bytes=st.sampled_from([1 << 10, 1 << 13, 1 << 20]),
    )
    def test_programs_replay_identically(self, ops, cache_bytes):
        reference = _run_table_program(True, cache_bytes, ops)
        assert _run_table_program(False, cache_bytes, ops) == reference

    def test_capacity_error_partial_state_matches(self):
        pairs = [(k, 1) for k in range(200)]

        def run(reference):
            mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 20, reference=reference)
            alloc = PoolAllocator(mem, 0, 1 << 19)
            table = PHashTable.create(alloc, 8)
            with pytest.raises(CapacityError) as err:
                table.add_many(pairs)
            return snapshot(mem), str(err.value), table.to_dict(), len(table)

        assert run(False) == run(True)


# -- vector / queue bulk ops ----------------------------------------------


def _run_container_program(reference: bool, values, elem_size: int) -> tuple:
    mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 20, reference=reference)
    alloc = PoolAllocator(mem, 0, 1 << 19)
    vec = PVector.create(alloc, capacity=512, elem_size=elem_size)
    vec.extend(values)
    queue = PQueue.create(alloc, capacity=256)
    queue.push_many([v % 1000 for v in values[:200]])
    drained = queue.pop_many(150)
    observed = (
        list(vec.read_range(0, len(vec))),
        vec.to_list(),
        list(vec),
        drained,
        queue.pop_many(100),
    )
    return snapshot(mem), observed


class TestContainerDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1), max_size=120
        ),
        elem_size=st.sampled_from([4, 8]),
    )
    def test_vector_and_queue_replay_identically(self, values, elem_size):
        reference = _run_container_program(True, values, elem_size)
        assert _run_container_program(False, values, elem_size) == reference


# -- pruned DAG decode cache and the hoisted sweep ----------------------------

_DAG_FILES = [
    (f"doc{i}", " ".join(f"w{(i * 7 + j * j) % 23}" for j in range(60)))
    for i in range(6)
]
_ACCESSORS = (
    "meta",
    "subrules",
    "words",
    "entries",
    "bound_and_entries",
    "weight_and_subrules",
    "weight_and_words",
    "raw_body",
)
#: Rule / pair / file picks (reduced modulo the real counts).  Small, so
#: programs often revisit what they poked; 7 as an accessor's rule
#: probes the range check instead.
_PICK = st.integers(min_value=0, max_value=7)
_DAG_OP = st.one_of(
    st.tuples(st.sampled_from(_ACCESSORS), _PICK),
    st.tuples(st.just("read_all"), st.just(None)),
    st.tuples(
        st.just("add_weight_many"),
        st.lists(st.tuples(_PICK, st.integers(min_value=0, max_value=50)), max_size=12),
    ),
    st.tuples(st.just("reset_weights"), st.just(None)),
    st.tuples(st.just("sweep"), _PICK),
    st.tuples(st.just("fold"), _PICK),
    st.tuples(st.just("local"), _PICK),
    st.tuples(st.just("edge"), st.integers(min_value=12, max_value=40)),
    st.tuples(st.just("poke"), st.tuples(_PICK, _PICK, st.integers(100, 109))),
    st.tuples(st.just("crash"), st.just(None)),
    st.tuples(st.just("arm"), st.tuples(_PICK, _PICK)),
    st.tuples(st.just("disarm"), st.just(None)),
)


def _build_dag(reference: bool, profile, cache_bytes: int):
    corpus = compress_files(_DAG_FILES)
    dag = Dag(corpus)
    mem = SimulatedMemory(
        profile, 1 << 20, cache_bytes=cache_bytes, reference=reference
    )
    pool = NvmPool(mem)
    pruned = PrunedDag.build(pool, corpus, dag, bounds=summate_all(dag))
    pool.flush()
    return corpus, dag, mem, pruned


def _freq_offset(mem, pruned, rule_arg: int, pair_arg: int) -> int | None:
    """Device offset of one entry's frequency field (ids stay valid)."""
    rule = rule_arg % pruned.n_rules
    record = mem.peek(pruned._meta_off + rule * META_RECORD_SIZE, META_RECORD_SIZE)
    entry_off, _, n_sub, n_words = struct.unpack_from("<QQII", record)
    if not n_sub + n_words:
        return None
    return entry_off + (pair_arg % (n_sub + n_words)) * 8 + 4


#: Reads every rule, then sweeps, folds and walks every file twice, so
#: the warm walks serve from the first op of the program on.
_WARM_UP = [("read_all", None)] + [
    (name, pick) for _ in range(2) for pick in range(6) for name in ("fold", "local")
]


def _run_dag_program(reference: bool, profile, cache_bytes: int, ops) -> tuple:
    corpus, dag, mem, pruned = _build_dag(reference, profile, cache_bytes)
    topo = dag.topological_order()
    position = [0] * pruned.n_rules
    for rank, rule in enumerate(topo):
        position[rule] = rank
    ctx = SimpleNamespace(
        strategy="topdown", pruned=pruned, topo_order=topo, clock=mem.clock
    )
    root = corpus.rules[0]
    segments = [root[a:b] for a, b in corpus.file_segments()]
    n = pruned.n_rules
    observed: list = []
    for name, arg in ops:
        if name in _ACCESSORS:
            rule = n if arg == 7 else arg % n
            try:
                observed.append(getattr(pruned, name)(rule))
            except IndexError as exc:
                observed.append(("IndexError", str(exc)))
        elif name == "read_all":
            observed.append([pruned.bound_and_entries(rule) for rule in range(n)])
            observed.append([pruned.meta(rule) for rule in range(n)])
        elif name == "add_weight_many":
            pruned.add_weight_many([(rule % n, delta) for rule, delta in arg])
        elif name == "reset_weights":
            pruned.reset_weights()
        elif name == "sweep":
            segment = segments[arg % len(segments)]
            observed.append(full_sweep_weights_for_segment(pruned, segment, topo))
        elif name == "fold":
            segment = segments[arg % len(segments)]
            observed.append(segment_word_counts(ctx, segment))
        elif name == "local":
            segment = segments[arg % len(segments)]
            observed.append(local_weights_for_segment(pruned, segment, position))
        elif name == "edge":
            # Just under a power of two: the next window crosses it and
            # must decline.
            mem.clock.ns = 2.0**arg - 5.0
        elif name == "poke":
            offset = _freq_offset(mem, pruned, arg[0], arg[1])
            if offset is not None:
                mem.poke(offset, arg[2].to_bytes(4, "little"))
        elif name == "crash":
            mem.crash()
        elif name == "arm":
            offset = _freq_offset(mem, pruned, *arg)
            sites = [] if offset is None else [ReadCorruption(offset, b"\x01")]
            mem.arm_faults(FaultPlan(corruptions=sites))
        elif name == "disarm":
            mem.disarm_faults()
        observed.append(mem.clock.ns)
    return snapshot(mem), observed


class TestPrunedDagCacheDifferential:
    """The host decode cache and the hoisted sweep against the device path.

    A fast memory serves accessors from the cache and runs the sweep
    hoisted; a reference memory reads every byte.  Pokes, crashes and
    armed read corruptions change the image underneath the cache, which
    must stand down or drop itself so that values and charges stay
    ``==``.
    """

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(_DAG_OP, max_size=30),
        profile=st.sampled_from([DeviceProfile.nvm(), DeviceProfile.dram()]),
        cache_bytes=st.sampled_from([512, 2048, 1 << 20]),
    )
    def test_programs_replay_identically(self, ops, profile, cache_bytes):
        reference = _run_dag_program(True, profile, cache_bytes, ops)
        assert _run_dag_program(False, profile, cache_bytes, ops) == reference

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(_DAG_OP, max_size=20),
        profile=st.sampled_from([DeviceProfile.nvm(), DeviceProfile.dram()]),
        cache_bytes=st.sampled_from([256, 2048, 1 << 20]),
    )
    def test_warm_programs_replay_identically(self, ops, profile, cache_bytes):
        """The warm walks, after a warm-up: a one-line NVM cache (256 B)
        forces the per-access loop mid-program, and ``edge`` ops force
        declined clock windows."""
        ops = _WARM_UP + ops
        reference = _run_dag_program(True, profile, cache_bytes, ops)
        assert _run_dag_program(False, profile, cache_bytes, ops) == reference

    @pytest.mark.parametrize("edge", [None, 20])
    def test_fixed_warm_program_replays_identically(self, edge):
        ops = _WARM_UP + [("edge", edge)] * (edge is not None) + _WARM_UP[1:]
        for cache_bytes in (256, 1 << 20):
            reference = _run_dag_program(True, DeviceProfile.nvm(), cache_bytes, ops)
            got = _run_dag_program(False, DeviceProfile.nvm(), cache_bytes, ops)
            assert got == reference

    @pytest.mark.parametrize("edge", [12, 16, 20])
    def test_straddling_sweep_is_served_split(self, monkeypatch, edge):
        """A warm sweep whose window crosses ``2**edge`` is served: closed
        form up to the crossing step, that step one add at a time, the
        rest closed form, ``==`` to the per-access sweep."""
        served: list = []
        real = dagops.warm_sweep

        def spy(*args):
            served.append(real(*args))
            return served[-1]

        monkeypatch.setattr(dagops, "warm_sweep", spy)
        ops = [("sweep", pick) for pick in range(3)] + [("edge", edge), ("sweep", 3)]
        reference = _run_dag_program(True, DeviceProfile.nvm(), 1 << 20, ops)
        got = _run_dag_program(False, DeviceProfile.nvm(), 1 << 20, ops)
        assert got == reference
        assert served == [True, True, True]
        before, after = got[1][-3], got[1][-1]
        assert before < 2.0**edge < after

    def test_poke_drops_the_sweep_summary(self):
        _, _, _, pruned = _build_dag(False, DeviceProfile.nvm(), 1 << 20)
        rule = next(r for r in range(pruned.n_rules) if r and pruned.subrules(r))
        sweeps = [("sweep", pick) for _ in range(3) for pick in range(6)]
        ops = sweeps + [("poke", (rule, 0, 107))] + sweeps
        reference = _run_dag_program(True, DeviceProfile.nvm(), 1 << 20, ops)
        assert _run_dag_program(False, DeviceProfile.nvm(), 1 << 20, ops) == reference

    def test_poke_into_warm_cache_is_seen(self):
        _, _, mem, pruned = _build_dag(False, DeviceProfile.nvm(), 1 << 20)
        rule = next(r for r in range(pruned.n_rules) if pruned.subrules(r))
        sub, _ = pruned.subrules(rule)[0]  # warm
        entry_off = pruned.meta(rule)[0]
        mem.poke(entry_off + 4, (77).to_bytes(4, "little"))
        assert pruned.subrules(rule)[0] == (sub, 77)

    def test_armed_plan_stands_the_hoisted_sweep_down(self):
        _, dag, mem, pruned = _build_dag(False, DeviceProfile.nvm(), 1 << 20)
        topo = dag.topological_order()
        assert pruned.hoisted_sweep(topo, [0] * pruned.n_rules)
        mem.arm_faults(FaultPlan())
        start = mem.clock.ns
        assert not pruned.hoisted_sweep(topo, [0] * pruned.n_rules)
        assert mem.clock.ns == start


class TestWarmWalksEngage:
    """On a warm D-shaped plan the three warm walks serve.

    ``==`` alone cannot see a refactor that silently stops serving (the
    per-access loop charges the same), so this counts what each walk
    returns.
    """

    def test_topdown_plan_serves_warm(self, monkeypatch):
        outcomes: Counter = Counter()
        for name in ("warm_sweep", "warm_word_fold", "warm_local_weights"):
            real = getattr(dagops, name)

            def spy(*args, _real=real, _name=name):
                result = _real(*args)
                outcomes[_name, result is not None and result is not False] += 1
                return result

            monkeypatch.setattr(dagops, name, spy)
        corpus = corpus_for("D", 0.2)
        names = ("word_count", "inverted_index", "term_vector", "ranked_inverted_index")
        tasks = [task_by_name(name) for name in names]
        NTadocEngine(corpus, EngineConfig(traversal="topdown")).run_many(tasks)
        files = corpus.n_files
        assert files >= 4
        # The first sweep runs cold (no summary yet); every later one is
        # served, split where its window straddles a power of two.  A
        # fold or local walk whose window straddles one declines; the
        # run's clock passes few of those, so at most one of each does.
        assert outcomes["warm_sweep", True] == files - 1
        assert outcomes["warm_sweep", False] == 0
        assert outcomes["warm_word_fold", True] >= files - 1
        assert outcomes["warm_local_weights", True] >= files - 1


# -- fused bottom-up build and warm per-file merge -------------------------

_DOC_WORDS = st.lists(st.sampled_from([f"w{i}" for i in range(9)]), min_size=1, max_size=14)


def _run_bottomup_program(
    reference: bool, docs, cache_bytes: int, pad: int, reuse: bool,
    edge: int | None, commit_every: int, crash: bool,
) -> tuple:
    """Build every word list, then merge every file twice.

    ``pad`` shifts the tables so that capacity-2 and -4 tables' fields
    straddle lines; ``reuse`` leaves freed junk-filled blocks of table
    sizes for the allocator to hand back (the zero-fill path); the
    visitor writes a mark and ``op_commit`` flushes every
    ``commit_every`` rules; ``edge`` sets the clock just under
    ``2**edge`` before the build and before each merge round; ``crash``
    moves the image epoch between the two rounds.
    """
    corpus = compress_files([(f"d{i}", " ".join(words)) for i, words in enumerate(docs)])
    dag = Dag(corpus)
    mem = SimulatedMemory(
        DeviceProfile.nvm(), 1 << 20, cache_bytes=cache_bytes, reference=reference
    )
    pool = NvmPool(mem)
    pruned = PrunedDag.build(pool, corpus, dag, bounds=summate_all(dag))
    pool.flush()
    alloc = pool.allocator
    alloc.alloc(pad)
    if reuse:
        for size in (24, 34, 68, 136, 272):
            offset = alloc.alloc(size)
            mem.write(offset, bytes([0xA5]) * size)
            alloc.free(offset, size)
    marks = alloc.alloc(64)
    seen: list = []
    commits = [0]

    def visit(rule, words, subs) -> None:
        seen.append((rule, words, subs))
        mem.write(marks + rule % 64, b"\x01")

    def op_commit() -> None:
        commits[0] += 1
        if commits[0] % commit_every == 0:
            mem.flush()

    if edge is not None:
        mem.clock.ns = 2.0**edge - 3.0
    reverse_topo = list(reversed(dag.topological_order()))
    tables = compute_wordlists_bottomup(
        pruned, alloc, reverse_topo, op_commit=op_commit, visitors=(visit,)
    )
    root = corpus.rules[0]
    segments = [root[a:b] for a, b in corpus.file_segments()]
    observed: list = [seen, [len(table) for table in tables]]
    for round_no in range(2):
        if crash and round_no:
            mem.crash()
        if edge is not None:
            mem.clock.ns = 2.0 ** (edge + round_no + 1) - 3.0
        for segment in segments:
            observed.append(merge_segment_counts(pruned, segment, tables, mem.clock))
            observed.append(mem.clock.ns)
    state = snapshot(mem)
    observed.append([list(table.items()) for table in tables])
    return state, observed


class TestFusedBottomupDifferential:
    """The fused word-list build and the warm merge against the per-rule
    chain on a reference memory: small tables whose fields straddle
    lines, reused blocks, visitors and per-rule commits, one-line to
    1 MiB caches, and clocks just under a power of two."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        docs=st.lists(_DOC_WORDS, min_size=1, max_size=5),
        cache_bytes=st.sampled_from([256, 2048, 1 << 20]),
        pad=st.integers(min_value=1, max_value=300),
        reuse=st.booleans(),
        edge=st.one_of(st.none(), st.integers(min_value=10, max_value=24)),
        commit_every=st.sampled_from([1, 3]),
        crash=st.booleans(),
    )
    def test_programs_replay_identically(
        self, docs, cache_bytes, pad, reuse, edge, commit_every, crash
    ):
        args = (docs, cache_bytes, pad, reuse, edge, commit_every, crash)
        reference = _run_bottomup_program(True, *args)
        assert _run_bottomup_program(False, *args) == reference

    def test_traced_ops_match_the_per_rule_chain(self, monkeypatch):
        """The fused pass records the ``phashtable`` ops the per-rule
        chain's ``traced_op`` wrappers record on the same fast memory:
        one ``add_many`` per word batch and one ``merge_from`` per child
        (a scalar ``merge_from`` records no nested ``add_many``)."""
        corpus = corpus_for("B", 0.1)
        ops = []
        for fused in (False, True):
            with monkeypatch.context() as patch:
                if not fused:
                    patch.setattr(PHashTable, "build_bottomup", lambda *args, **kwargs: None)
                tracer = Tracer()
                config = EngineConfig(traversal="bottomup", tracer=tracer)
                NTadocEngine(corpus, config).run_many(
                    [task_by_name(name) for name in ("word_count", "term_vector")]
                )
            ops.append({name: hist for name, hist in tracer.ops.items()
                        if name.startswith("phashtable:")})
        assert ops[1] == ops[0]
        assert ops[0]["phashtable:merge_from"].count > 0

    def test_traced_op_counts_match_the_reference_memory(self):
        """The op histograms do not depend on the access path: the
        reference memories (all-scalar ``merge_from``) record as many
        ``phashtable`` ops of each name as the default kernels."""
        corpus = corpus_for("B", 0.1)
        counts = []
        for kernels in (False, True):
            tracer = Tracer()
            config = EngineConfig(traversal="bottomup", tracer=tracer, kernels=kernels)
            NTadocEngine(corpus, config).run_many(
                [task_by_name(name) for name in ("word_count", "term_vector")]
            )
            counts.append({name: hist.count for name, hist in tracer.ops.items()
                           if name.startswith("phashtable:")})
        assert counts[1] == counts[0]
        assert counts[0]["phashtable:merge_from"] > 0


class TestFusedBuildEngages:
    """On a B-shaped bottom-up plan and on an ingest segment, every rule
    goes through the fused pass and every per-file merge is served warm.

    ``==`` cannot see a refactor that silently stops serving (the per-rule
    chain charges the same), so this counts what each path does.
    """

    @pytest.fixture
    def outcomes(self, monkeypatch) -> Counter:
        outcomes: Counter = Counter()
        build = hashops.build_wordlists
        warm = hashops.warm_merge
        chain = PrunedDag.bound_and_entries

        def spy_build(*args):
            tables, scans = build(*args)
            outcomes["builds"] += 1
            outcomes["rules"] += sum(table is not None for table in tables)
            return tables, scans

        def spy_warm(*args):
            counts = warm(*args)
            outcomes["warm", counts is not None] += 1
            return counts

        def spy_chain(self, rule):
            outcomes["chain"] += 1
            return chain(self, rule)

        monkeypatch.setattr(hashops, "build_wordlists", spy_build)
        monkeypatch.setattr(hashops, "warm_merge", spy_warm)
        monkeypatch.setattr(PrunedDag, "bound_and_entries", spy_chain)
        return outcomes

    def test_bottomup_plan_is_fused_and_warm(self, outcomes):
        corpus = corpus_for("B", 0.2)
        engine = NTadocEngine(corpus, EngineConfig(traversal="bottomup"))
        engine.run_many([task_by_name(name) for name in ("word_count", "inverted_index", "term_vector")])
        assert outcomes["builds"] == 1
        assert outcomes["rules"] == engine.last_state.pruned.n_rules
        assert outcomes["chain"] == 0
        assert outcomes["warm", True] == corpus.n_files
        assert outcomes["warm", False] == 0

    def test_ingest_segment_is_fused_and_warm(self, outcomes):
        engine = SegmentedEngine(EngineConfig(), seal_threshold_tokens=10**9)
        for op in synthetic_trace(n_docs=120, doc_tokens=50, rounds=0, seed=1):
            if op.op == "append":
                engine.append(op.name, op.text)
        engine.seal()
        engine.run_tasks(["word_count", "inverted_index"])
        assert outcomes["builds"] == 1
        assert outcomes["rules"] > 400
        assert outcomes["chain"] == 0
        assert outcomes["warm", True] == 120
        assert outcomes["warm", False] == 0


# -- engine level ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    phrase = "omega theta iota kappa " * 9
    files = [(f"doc{i}", phrase + f"word{i % 3} tail{i}") for i in range(8)]
    return compress_files(files)


class TestEngineDifferential:
    def test_fused_trio_identical_across_modes(self, corpus):
        tasks = lambda: [WordCount(), InvertedIndex(), TermVector()]  # noqa: E731
        keys = []
        for kernels in (False, True):
            run = NTadocEngine(corpus, EngineConfig(kernels=kernels)).run_many(tasks())
            keys.append((run.total_ns, [str(r.result) for r in run.results]))
        assert keys[1] == keys[0]

    def test_solo_run_identical_across_modes(self, corpus):
        keys = []
        for kernels in (False, True):
            run = NTadocEngine(corpus, EngineConfig(kernels=kernels)).run(WordCount())
            keys.append((run.total_ns, run.result))
        assert keys[1] == keys[0]


# -- crash sweep with kernels ---------------------------------------------


def _sweep_config(kernels: bool) -> SweepConfig:
    return SweepConfig(
        engine_write_points=8,
        engine_line_points=4,
        torn_per_flush=2,
        tx_write_points=6,
        tx_torn_points=4,
        integrity_rules=1,
        kernels=kernels,
    )


class TestCrashSweepWithKernels:
    def test_sweep_report_identical_with_and_without_kernels(self):
        with_kernels = run_sweep(_sweep_config(True))
        without = run_sweep(_sweep_config(False))
        assert with_kernels["violations"] == []
        # The config echo differs by construction, and the black-box
        # sample embeds the kernel_backend journal event, which names
        # the access path by design; its counters must still agree.
        # Everything measured (points, recoveries, costs, digests)
        # must match bit-for-bit.
        with_kernels["config"].pop("kernels")
        without["config"].pop("kernels")
        bb_with = with_kernels.pop("blackbox")
        bb_without = without.pop("blackbox")
        assert {k: v for k, v in bb_with.items() if k != "sample"} == {
            k: v for k, v in bb_without.items() if k != "sample"
        }
        assert render_report(with_kernels) == render_report(without)


# -- reference switch -----------------------------------------------------


class TestBackendSelection:
    def test_off_mode_has_no_kernels(self):
        mem = SimulatedMemory(DeviceProfile.nvm(), 1 << 16, reference=True)
        assert mem.kernels is None
        assert not mem.kernel_ready

    def test_engine_config_rejects_old_mode_strings(self):
        # "off" would otherwise be truthy and silently select kernels.
        with pytest.raises(ValueError):
            EngineConfig(kernels="off")
