"""Exhaustive crash-sweep harness: enumerate crash points, verify recovery.

The paper's recovery story (Section IV-E) claims a crash at *any* point
rolls N-TADOC back to its previous checkpoint.  This harness turns that
claim into a machine-checked sweep.  It runs the real pipeline
(compress -> initialize -> traverse) under fault injection
(:mod:`repro.nvm.faults`), enumerates crash points -- every sampled write
event, every flush boundary, seeded torn-line subsets of every flush,
mid-flush line-persist cuts, and targeted media corruption -- and for
each wreckage:

1. realizes the power loss (``memory.crash()``),
2. runs :func:`~repro.core.recovery.recover_pool`,
3. asserts the **invariant triad**:

   * the recovered state is a legal checkpoint prefix (the phase marker
     names a phase whose data flush completed -- never a later one);
   * committed transactions survive; uncommitted ones vanish (the
     recovered transactional state is one of the guaranteed snapshots);
   * resuming from the recovery report reproduces the uncrashed run's
     analytics output **bit-identically**.

The sweep is fully deterministic under a fixed seed: the same seed
enumerates the same points, tears the same flushes the same way, and
emits byte-identical JSON (no timestamps, sorted keys).  A JSON report
summarizes points swept, recoveries by resume phase, violations (the
sweep's exit status), and the mean simulated recovery cost.

See docs/recovery.md for the fault model and the judging rules.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from repro.core.engine import EngineConfig, NTadocEngine, RunResult
from repro.core.recovery import RecoveryReport, recover_pool
from repro.errors import CrashPoint, RecoveryError
from repro.nvm.device import DeviceProfile
from repro.nvm.faults import FaultPlan, ReadCorruption, TornFlush
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.nvm.persist import PhasePersistence, TransactionLog
from repro.nvm.pool import NvmPool
from repro.sequitur import compress_files

#: Phase-persistence flush schedule: after this many completed flushes,
#: this phase marker is durable.  The engine's phase path emits exactly
#: two flushes per phase (data+directory barrier, then the marker).
_MARKER_AFTER_FLUSH = {2: "initialization", 4: "traversal"}
_ENGINE_FLUSHES = 4

_TX_SLOTS = 8
_TX_SLOT_BYTES = 8


@dataclass(frozen=True)
class SweepConfig:
    """Bounds of one sweep.  ``None`` sample counts mean *exhaustive*.

    Attributes:
        seed: Master seed; fixes point selection and every tear.
        task: Analytics task driven through the engine scenario.
        engine_write_points: Write-event crash samples in the engine
            scenario (``None`` = every write event).
        engine_line_points: Mid-flush line-persist crash samples
            (``None`` = every line-persist event).
        torn_per_flush: Seeded torn-subset variants per flush event.
        tx_write_points: Write-event crash samples in the transaction
            scenario (``None`` = every write event).
        tx_torn_points: Seeded torn-flush samples in the transaction
            scenario.
        ingest_write_points: Write-event crash samples during the
            segmented-corpus compaction scenario (``None`` = every
            write event).
        ingest_torn_points: Seeded torn-flush samples during the
            compaction scenario.
        integrity_rules: DAG rules spot-checked against the source
            grammar after each engine recovery.
        kernels: ``EngineConfig.kernels`` for the engine scenario
            (``False`` = reference memories).  Reports are bit-identical
            either way; sweeping with kernels active exercises their
            stand-down when a fault plan arms and the resume paths over
            kernel-written pools.
    """

    seed: int = 20240817
    task: str = "word_count"
    engine_write_points: int | None = 64
    engine_line_points: int | None = 24
    torn_per_flush: int = 8
    tx_write_points: int | None = 48
    tx_torn_points: int = 24
    ingest_write_points: int | None = 12
    ingest_torn_points: int = 4
    integrity_rules: int = 3
    kernels: bool = True

    @staticmethod
    def smoke(seed: int = 20240817) -> "SweepConfig":
        """The bounded configuration CI runs (still >= 200 points)."""
        return SweepConfig(seed=seed)

    @staticmethod
    def full(seed: int = 20240817) -> "SweepConfig":
        """Exhaustive write/line enumeration with denser tear sampling."""
        return SweepConfig(
            seed=seed,
            engine_write_points=None,
            engine_line_points=None,
            torn_per_flush=16,
            tx_write_points=None,
            tx_torn_points=64,
            ingest_write_points=None,
            ingest_torn_points=16,
        )


def _smoke_corpus():
    """Small deterministic corpus with enough repetition to compress."""
    phrase = (
        "persistent memory analytics traverse the compressed dag "
        "and count every word without decompression "
    )
    files = [
        ("doc0.txt", (phrase + "alpha beta gamma ") * 5),
        ("doc1.txt", (phrase + "beta gamma delta ") * 5),
        ("doc2.txt", ("delta alpha " + phrase) * 5),
    ]
    return compress_files(files)


def _jsonable(value):
    if isinstance(value, dict):
        return {
            str(k): _jsonable(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, set):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return round(value, 9)
    return value


def canonical_result(value) -> str:
    """Canonical JSON for bit-identical result comparison."""
    return json.dumps(_jsonable(value), sort_keys=True)


def _decode_blackbox(mem) -> tuple[dict | None, dict | None]:
    """Decode the crashed image's flight recorder, fully uncharged.

    Works on a throwaway copy of the post-crash image so neither the
    clock nor the cache of the memory under test moves before recovery.
    Returns ``(decoded, report)`` or ``(None, None)`` when the image has
    no readable directory / no ``__flightrec__`` region.
    """
    from repro.nvm.flightrec import (
        blackbox_report,
        decode_device_image,
        device_image,
    )

    decoded = decode_device_image(device_image(mem))
    if decoded is None or not decoded["present"]:
        return None, None
    return decoded, blackbox_report(decoded, tail=8)


def _blackbox_problem(decoded: dict, bb: dict, allowed) -> str | None:
    """Judge one decoded ring against the black-box contract.

    A single crash tears at most the one slot the cut landed in; the
    surviving events must be chronologically consistent; and when a
    legal checkpoint set is known, the ring's committed-phase view must
    fall inside it (the same +-1-torn-flush window the marker gets).
    """
    damaged = sum(1 for r in decoded["records"] if r.kind != "event")
    if damaged > 1:
        return f"{damaged} torn/unknown slots; one crash tears at most one"
    events = [r for r in decoded["records"] if r.kind == "event"]
    seqs = [r.seq for r in events]
    if seqs != sorted(set(seqs)):
        return "event sequence numbers are not strictly increasing"
    times = [r.sim_ns for r in events]
    if any(b < a for a, b in zip(times, times[1:])):
        return "event timestamps regress along the sequence"
    if allowed is not None and bb["last_completed_phase"] not in allowed:
        return (
            f"committed-phase view {bb['last_completed_phase']!r} outside "
            f"the legal checkpoint set {sorted(map(str, allowed))}"
        )
    return None


def _expected_marker(completed_flushes: int) -> str | None:
    best = None
    for ordinal, name in _MARKER_AFTER_FLUSH.items():
        if completed_flushes >= ordinal:
            best = name
    return best


def _completed_flushes_at_write(profiles, write_index: int) -> int:
    """Flushes fully completed before write event ``write_index`` fires."""
    return sum(1 for p in profiles if p["writes_before"] < write_index)


class _Sweep:
    """One sweep run: accumulates points, recoveries, and violations."""

    def __init__(self, config: SweepConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.by_kind: dict[str, int] = {}
        self.resume_phases: dict[str, int] = {}
        self.violations: list[dict] = []
        self.recovery_costs: list[float] = []
        self.points = 0
        self.blackbox = {"decoded": 0, "absent": 0, "torn_records": 0}
        self.blackbox_sample: dict | None = None

    # -- bookkeeping ----------------------------------------------------

    def point(self, kind: str) -> None:
        self.points += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def violation(self, scenario: str, kind: str, index, problem: str) -> None:
        self.violations.append(
            {
                "scenario": scenario,
                "kind": kind,
                "index": index,
                "problem": problem,
            }
        )

    def recovered(self, report: RecoveryReport) -> None:
        self.recovery_costs.append(report.recovery_ns)
        phase = report.resume_phase
        self.resume_phases[phase] = self.resume_phases.get(phase, 0) + 1

    def restarted(self) -> None:
        self.resume_phases["restart"] = self.resume_phases.get("restart", 0) + 1

    def check_blackbox(
        self, scenario: str, kind: str, index, mem, allowed, require: bool
    ) -> dict | None:
        """Decode + judge the flight recorder at one crash point.

        ``require`` is True when the image is known recoverable (the
        directory reached media), so an absent black box is a violation
        there; ``allowed`` is the legal committed-phase set, or ``None``
        to skip phase attribution.  Returns the report for sampling.
        """
        decoded, bb = _decode_blackbox(mem)
        if bb is None:
            self.blackbox["absent"] += 1
            if require:
                self.violation(
                    scenario, kind, index,
                    "black box: flight recorder absent from a recoverable "
                    "image",
                )
            return None
        self.blackbox["decoded"] += 1
        self.blackbox["torn_records"] += sum(
            1 for r in decoded["records"] if r.kind != "event"
        )
        problem = _blackbox_problem(decoded, bb, allowed)
        if problem:
            self.violation(scenario, kind, index, f"black box: {problem}")
        return bb

    def _sample(self, total: int, count: int | None) -> list[int]:
        """1-based event ordinals to crash on: all, or a seeded sample."""
        if total <= 0:
            return []
        if count is None or count >= total:
            return list(range(1, total + 1))
        return sorted(self.rng.sample(range(1, total + 1), count))

    # -- scenario 1: the engine pipeline --------------------------------

    def run_engine_scenario(self) -> str:
        cfg = self.config
        corpus = self._corpus = _smoke_corpus()
        engine = NTadocEngine(corpus, EngineConfig(kernels=cfg.kernels))
        counter = FaultPlan()
        reference = engine.run(self._task(), fault_plan=counter)
        self.reference_json = canonical_result(reference.result)
        profiles = counter.flush_profiles
        if len(profiles) != _ENGINE_FLUSHES:
            self.violation(
                "engine",
                "schedule",
                len(profiles),
                f"expected {_ENGINE_FLUSHES} flushes under phase "
                f"persistence, observed {len(profiles)}",
            )
        self._engine = engine
        self._profiles = profiles

        for k in self._sample(counter.events["write"], cfg.engine_write_points):
            completed = _completed_flushes_at_write(profiles, k)
            self._engine_point(
                "write",
                k,
                FaultPlan("write", k),
                allowed={_expected_marker(completed)},
                allow_restart=completed < 1,
            )

        for profile in profiles:
            f = profile["flush"]
            self._engine_point(
                "flush",
                f,
                FaultPlan("flush", f),
                allowed={_expected_marker(f - 1)},
                allow_restart=f <= 1,
            )
            for _ in range(cfg.torn_per_flush):
                torn = TornFlush(
                    order_seed=self.rng.randrange(1 << 30),
                    persisted_lines=self.rng.randint(
                        0, max(profile["dirty_lines"], 1)
                    ),
                    partial_bytes=self.rng.randrange(0, 257, 8),
                )
                self._engine_point(
                    "torn_flush",
                    (f, torn.order_seed),
                    FaultPlan("flush", f, torn=torn),
                    allowed={
                        _expected_marker(f - 1),
                        _expected_marker(f),
                    },
                    allow_restart=f <= 1,
                )

        total_lines = sum(p["dirty_lines"] for p in profiles)
        line_to_flush: list[int] = []
        for p in profiles:
            line_to_flush.extend([p["flush"]] * p["dirty_lines"])
        for ln in self._sample(total_lines, cfg.engine_line_points):
            f = line_to_flush[ln - 1]
            self._engine_point(
                "line_persist",
                ln,
                FaultPlan("line_persist", ln),
                allowed={_expected_marker(f - 1), _expected_marker(f)},
                allow_restart=f <= 1,
            )
        return self.reference_json

    def _task(self):
        from repro.analytics import task_by_name

        return task_by_name(self.config.task)

    def _engine_point(
        self,
        kind: str,
        index,
        plan: FaultPlan,
        allowed: set,
        allow_restart: bool,
    ) -> None:
        self.point(kind)
        try:
            self._engine.run(self._task(), fault_plan=plan)
        except CrashPoint:
            pass
        else:
            self.violation("engine", kind, index, "crash point did not fire")
            return
        mem = plan.memory
        mem.disarm_faults()
        mem.crash()
        bb = self.check_blackbox(
            "engine", kind, index, mem, allowed, require=not allow_restart
        )
        if bb is not None and kind == "flush" and index == _ENGINE_FLUSHES:
            self.blackbox_sample = bb
        try:
            report = recover_pool(mem)
        except RecoveryError as exc:
            if not allow_restart:
                self.violation(
                    "engine",
                    kind,
                    index,
                    f"recovery refused a recoverable image: {exc}",
                )
                return
            self.restarted()
            resumed = self._engine.run(self._task())
        else:
            if report.last_completed_phase not in allowed:
                self.violation(
                    "engine",
                    kind,
                    index,
                    f"marker {report.last_completed_phase!r} outside legal "
                    f"checkpoint set {sorted(map(str, allowed))}",
                )
                return
            if not self._check_integrity(kind, index, report):
                return
            self.recovered(report)
            resumed = self._engine.run(self._task(), resume_from=report)
        resumed_json = canonical_result(resumed.result)
        if resumed_json != self.reference_json:
            self.violation(
                "engine",
                kind,
                index,
                "resumed analytics output differs from the uncrashed run",
            )

    def _check_integrity(self, kind, index, report: RecoveryReport) -> bool:
        """Recovered DAG bodies must match the source grammar exactly."""
        if report.pruned is None:
            return True
        n = self._corpus.n_rules
        sample = sorted({0, n // 2, n - 1} | set(
            self.rng.sample(range(n), min(self.config.integrity_rules, n))
        ))
        for rule in sample:
            if report.pruned.raw_body(rule) != list(self._corpus.rules[rule]):
                self.violation(
                    "engine",
                    kind,
                    index,
                    f"recovered DAG rule {rule} differs from the grammar",
                )
                return False
        return True

    # -- scenario 2: the transactional workload -------------------------

    def run_tx_scenario(self) -> None:
        cfg = self.config
        specs = self._tx_specs()
        states = self._tx_states(specs)
        counter = FaultPlan()
        _, _, boundaries = self._run_tx_workload(counter, specs)
        profiles = counter.flush_profiles
        total_writes = counter.events["write"]
        total_flushes = counter.events["flush"]

        def judge_write(k: int) -> tuple[set[int], bool]:
            committed = sum(1 for _, end in boundaries if end["writes"] < k)
            completed = _completed_flushes_at_write(profiles, k)
            return {committed}, completed < 1

        for k in self._sample(total_writes, cfg.tx_write_points):
            allowed, restart_ok = judge_write(k)
            self._tx_point(
                "tx_write", k, FaultPlan("write", k), specs, states,
                allowed, restart_ok,
            )

        def judge_flush(f: int, torn: bool) -> tuple[set[int], bool]:
            committed = sum(1 for _, end in boundaries if end["flushes"] < f)
            in_window = any(
                begin["flushes"] < f <= end["flushes"]
                for begin, end in boundaries
            )
            allowed = {committed}
            if torn and in_window:
                allowed.add(committed + 1)
            return allowed, f <= 1

        for f in range(1, total_flushes + 1):
            allowed, restart_ok = judge_flush(f, torn=False)
            self._tx_point(
                "tx_flush", f, FaultPlan("flush", f), specs, states,
                allowed, restart_ok,
            )
        for _ in range(cfg.tx_torn_points):
            f = self.rng.randint(1, total_flushes)
            dirty = next(
                p["dirty_lines"] for p in profiles if p["flush"] == f
            )
            torn = TornFlush(
                order_seed=self.rng.randrange(1 << 30),
                persisted_lines=self.rng.randint(0, max(dirty, 1)),
                partial_bytes=self.rng.randrange(0, 257, 8),
            )
            allowed, restart_ok = judge_flush(f, torn=True)
            self._tx_point(
                "tx_torn_flush",
                (f, torn.order_seed),
                FaultPlan("flush", f, torn=torn),
                specs, states, allowed, restart_ok,
            )

    def _tx_specs(self) -> list[list[tuple[int, int]]]:
        rng = random.Random(self.config.seed ^ 0x5EED)
        specs = []
        for _ in range(4):
            specs.append(
                [
                    (rng.randrange(_TX_SLOTS), rng.randrange(1, 1 << 32))
                    for _ in range(rng.randint(2, 3))
                ]
            )
        return specs

    @staticmethod
    def _tx_states(specs) -> list[bytes]:
        """Guaranteed snapshots: the state after each committed tx."""
        size = _TX_SLOTS * _TX_SLOT_BYTES
        states = [bytes(size)]
        current = bytearray(size)
        for spec in specs:
            for slot, value in spec:
                current[slot * 8 : slot * 8 + 8] = value.to_bytes(8, "little")
            states.append(bytes(current))
        return states

    def _run_tx_workload(self, plan: FaultPlan, specs):
        """Setup + N transactions; records event counters at tx edges.

        Transactions are driven through explicit begin/commit (not the
        ``transaction()`` context manager) so an injected CrashPoint
        propagates without running ``abort()`` -- after power loss,
        nothing executes.
        """
        clock = SimulatedClock()
        mem = SimulatedMemory(
            DeviceProfile.nvm(), 1 << 18, clock, name="txpool"
        )
        mem.arm_faults(plan)
        pool = NvmPool(mem)
        data_off = pool.alloc_region("data", _TX_SLOTS * _TX_SLOT_BYTES)
        mem.fill(data_off, _TX_SLOTS * _TX_SLOT_BYTES)
        log = TransactionLog(pool, capacity=4096)
        pool.flush()  # directory + zeroed slots durable
        self._tx_data_off = data_off

        def snap():
            return {
                "writes": plan.events["write"],
                "flushes": plan.events["flush"],
            }

        boundaries = []
        for spec in specs:
            begin = snap()
            tx = log.begin()
            for slot, value in spec:
                tx.write(
                    data_off + slot * _TX_SLOT_BYTES,
                    value.to_bytes(8, "little"),
                )
            tx.commit()
            boundaries.append((begin, snap()))
        return mem, pool, boundaries

    def _tx_point(
        self, kind, index, plan, specs, states, allowed, restart_ok
    ) -> None:
        self.point(kind)
        try:
            self._run_tx_workload(plan, specs)
        except CrashPoint:
            pass
        else:
            self.violation("tx", kind, index, "crash point did not fire")
            return
        mem = plan.memory
        mem.disarm_faults()
        mem.crash()
        try:
            report = recover_pool(mem)
        except RecoveryError as exc:
            if not restart_ok:
                self.violation(
                    "tx", kind, index,
                    f"recovery refused a recoverable image: {exc}",
                )
            else:
                self.restarted()
            return
        self.recovered(report)
        max_records = max(len(spec) for spec in specs)
        if not 0 <= report.transactions_rolled_back <= max_records:
            self.violation(
                "tx", kind, index,
                f"{report.transactions_rolled_back} undo records rolled "
                f"back; at most one {max_records}-write transaction can "
                "be in flight",
            )
            return
        state = mem.read(self._tx_data_off, _TX_SLOTS * _TX_SLOT_BYTES)
        legal = {states[j] for j in allowed if 0 <= j < len(states)}
        if state not in legal:
            self.violation(
                "tx", kind, index,
                "recovered slots are not a guaranteed snapshot: committed "
                "transactions must survive and uncommitted ones vanish "
                f"(allowed snapshots {sorted(allowed)})",
            )

    # -- scenario 4: segmented-corpus compaction -------------------------

    def run_ingest_scenario(self) -> None:
        """Crash everywhere inside a segment compaction; recovery must
        land on exactly the pre- or post-compaction segment set (never a
        mix), and recovered analytics must match the uncrashed run.

        This machine-checks the seal-new-then-retire-old ordering of
        :meth:`repro.ingest.engine.SegmentedEngine.compact`: committed
        compactions survive, half-done ones vanish.
        """
        from repro.ingest import canonical_json

        cfg = self.config
        engine = self._ingest_workload()
        pre = set(engine.pool.segment_names())
        counter = FaultPlan()
        engine.memory.arm_faults(counter)
        engine.compact()
        engine.memory.disarm_faults()
        post = set(engine.pool.segment_names())
        self._ingest_reference = canonical_json(
            engine.run_tasks(["word_count"]).rendered["word_count"]
        )
        profiles = counter.flush_profiles

        for k in self._sample(counter.events["write"], cfg.ingest_write_points):
            self._ingest_point("ingest_write", k, FaultPlan("write", k), pre, post)
        for profile in profiles:
            f = profile["flush"]
            self._ingest_point("ingest_flush", f, FaultPlan("flush", f), pre, post)
        for _ in range(cfg.ingest_torn_points):
            profile = profiles[self.rng.randrange(len(profiles))]
            torn = TornFlush(
                order_seed=self.rng.randrange(1 << 30),
                persisted_lines=self.rng.randint(
                    0, max(profile["dirty_lines"], 1)
                ),
                partial_bytes=self.rng.randrange(0, 257, 8),
            )
            self._ingest_point(
                "ingest_torn_flush",
                (profile["flush"], torn.order_seed),
                FaultPlan("flush", profile["flush"], torn=torn),
                pre,
                post,
            )

    @staticmethod
    def _ingest_workload():
        """Segmented engine with 3 sealed segments and 2 tombstones,
        ready to compact.  Deterministic: every point replays it."""
        from repro.core.engine import EngineConfig as _EngineConfig
        from repro.ingest import SegmentedEngine

        engine = SegmentedEngine(
            _EngineConfig(), pool_bytes=1 << 24, seal_threshold_tokens=10**9
        )
        phrase = "segments seal and compact while queries keep running "
        for i in range(9):
            engine.append(f"doc{i}.txt", phrase + f"tail w{i % 3} w{i % 2}")
            if i % 3 == 2:
                engine.seal()
        engine.delete("doc2.txt")
        engine.delete("doc5.txt")
        return engine

    def _ingest_point(self, kind, index, plan: FaultPlan, pre, post) -> None:
        from repro.ingest import SegmentedEngine, canonical_json

        self.point(kind)
        engine = self._ingest_workload()
        engine.memory.arm_faults(plan)
        try:
            engine.compact()
        except CrashPoint:
            pass
        else:
            self.violation("ingest", kind, index, "crash point did not fire")
            return
        mem = engine.memory
        mem.disarm_faults()
        mem.crash()
        # The segmented workload sealed (and flushed) segments before the
        # compaction started, so the black box must be recoverable here.
        self.check_blackbox(
            "ingest", kind, index, mem, allowed=None, require=True
        )
        start_ns = mem.clock.ns
        try:
            reopened = SegmentedEngine.reopen(
                mem, dict(engine.artifacts), engine.config
            )
        except RecoveryError as exc:
            self.violation("ingest", kind, index, f"reopen refused: {exc}")
            return
        names = set(reopened.pool.segment_names())
        if names not in (pre, post):
            self.violation(
                "ingest",
                kind,
                index,
                f"recovered segment set {sorted(names)} is neither the "
                f"pre- nor the post-compaction set (half-compacted state "
                "survived)",
            )
            return
        self.recovery_costs.append(mem.clock.ns - start_ns)
        self.resume_phases["ingest_reopen"] = (
            self.resume_phases.get("ingest_reopen", 0) + 1
        )
        recovered = canonical_json(
            reopened.run_tasks(["word_count"]).rendered["word_count"]
        )
        if recovered != self._ingest_reference:
            self.violation(
                "ingest",
                kind,
                index,
                "recovered analytics differ from the uncrashed run",
            )

    # -- scenario 3: targeted media corruption --------------------------

    def run_corruption_scenario(self) -> None:
        self._corrupt_early_log_record()
        self._corrupt_last_log_record()
        self._corrupt_phase_marker_slot()

    def _interrupted_tx_pool(self):
        """A pool whose log holds 3 durable records of an open tx."""
        clock = SimulatedClock()
        mem = SimulatedMemory(
            DeviceProfile.nvm(), 1 << 18, clock, name="cpool"
        )
        pool = NvmPool(mem)
        data_off = pool.alloc_region("data", _TX_SLOTS * _TX_SLOT_BYTES)
        mem.fill(data_off, _TX_SLOTS * _TX_SLOT_BYTES)
        log = TransactionLog(pool, capacity=4096)
        pool.flush()
        tx = log.begin()
        for slot in range(3):
            tx.write(data_off + slot * 8, (0xA0 + slot).to_bytes(8, "little"))
        mem.flush()  # all three records (and data) durable, tx still open
        mem.crash()
        log_off, _ = pool.get_region("__txlog__")
        return mem, log_off, data_off

    def _corrupt_early_log_record(self) -> None:
        """Corrupting a non-tail record must raise, never silently undo."""
        self.point("corruption")
        mem, log_off, _ = self._interrupted_tx_pool()
        from repro.nvm.persist import _LOG_HEADER_SIZE

        mem.arm_faults(
            FaultPlan(
                corruptions=[
                    ReadCorruption(offset=log_off + _LOG_HEADER_SIZE + 4)
                ]
            )
        )
        try:
            recover_pool(mem)
        except RecoveryError as exc:
            if "record 0" not in str(exc):
                self.violation(
                    "corruption", "early_record", 0,
                    f"error does not name the offending record: {exc}",
                )
        else:
            self.violation(
                "corruption", "early_record", 0,
                "recovery trusted a corrupt undo record",
            )

    def _corrupt_last_log_record(self) -> None:
        """A corrupt final record is a torn tail: truncated, not fatal."""
        self.point("corruption")
        mem, log_off, data_off = self._interrupted_tx_pool()
        from repro.nvm.persist import _LOG_HEADER_SIZE, _LOG_RECORD_SIZE

        record_span = _LOG_RECORD_SIZE + 8
        last = log_off + _LOG_HEADER_SIZE + 2 * record_span + 4
        mem.arm_faults(FaultPlan(corruptions=[ReadCorruption(offset=last)]))
        try:
            report = recover_pool(mem)
        except RecoveryError as exc:
            self.violation(
                "corruption", "torn_tail", 2,
                f"torn-tail record was treated as fatal: {exc}",
            )
            return
        mem.disarm_faults()
        if report.transactions_rolled_back != 2:
            self.violation(
                "corruption", "torn_tail", 2,
                "expected exactly the two validated records rolled back, "
                f"got {report.transactions_rolled_back}",
            )
            return
        # Records 0 and 1 were undone; record 2's slot is *not* trusted
        # (the torn record is skipped), so only slots 0 and 1 must be
        # back to their pre-transaction zeros.
        state = mem.read(data_off, 16)
        if state != bytes(16):
            self.violation(
                "corruption", "torn_tail", 2,
                "validated undo records were not rolled back",
            )

    def _corrupt_phase_marker_slot(self) -> None:
        """A corrupt newest marker slot falls back to the other slot."""
        self.point("corruption")
        clock = SimulatedClock()
        mem = SimulatedMemory(
            DeviceProfile.nvm(), 1 << 18, clock, name="mpool"
        )
        pool = NvmPool(mem)
        phases = PhasePersistence(pool)
        pool.flush()
        phases.complete_phase("initialization")  # count 1 -> slot 1
        pool.flush()
        phases.complete_phase("traversal")  # count 2 -> slot 0
        mem.crash()
        marker_off, _ = pool.get_region("__phases__")
        # Flip bytes inside slot 0 (the count-2 marker).
        mem.arm_faults(
            FaultPlan(
                corruptions=[ReadCorruption(offset=marker_off + 2, mask=b"\xff\xff")]
            )
        )
        try:
            report = recover_pool(mem)
        except RecoveryError as exc:
            self.violation(
                "corruption", "marker_slot", 0,
                f"marker corruption was fatal instead of falling back: {exc}",
            )
            return
        if report.last_completed_phase != "initialization":
            self.violation(
                "corruption", "marker_slot", 0,
                "reader did not fall back to the surviving ping-pong slot "
                f"(got {report.last_completed_phase!r})",
            )


def run_sweep(config: SweepConfig | None = None) -> dict:
    """Run the full sweep; return the JSON-ready report dict."""
    config = config or SweepConfig()
    sweep = _Sweep(config)
    reference_json = sweep.run_engine_scenario()
    sweep.run_tx_scenario()
    sweep.run_ingest_scenario()
    sweep.run_corruption_scenario()
    costs = sweep.recovery_costs
    return {
        "seed": config.seed,
        "config": _jsonable(asdict(config)),
        "points_swept": sweep.points,
        "by_kind": _jsonable(sweep.by_kind),
        "recoveries": len(costs),
        "recoveries_by_resume_phase": _jsonable(sweep.resume_phases),
        "mean_recovery_ns": round(sum(costs) / len(costs), 3) if costs else 0.0,
        "blackbox": _jsonable(
            {**sweep.blackbox, "sample": sweep.blackbox_sample}
        ),
        "violations": sweep.violations,
        "result_digest": hashlib.sha256(
            reference_json.encode("utf-8")
        ).hexdigest()[:16],
    }


def render_report(report: dict) -> str:
    """Byte-stable JSON rendering of a sweep report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


__all__ = [
    "SweepConfig",
    "RunResult",
    "canonical_result",
    "render_report",
    "run_sweep",
]
