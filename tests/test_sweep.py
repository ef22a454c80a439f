"""Unit tests of the sweep core's judges on synthetic inputs.

The smoke and full sweeps land every point in the triad and report zero
violations, so none of them reaches the judges' failing branches.  These
tests feed the black-box ring judge and the resilience-triad classifier
hand-built rings and run outcomes instead.
"""

from types import SimpleNamespace

import pytest

from repro.core.engine import RunResult, TaskFailure
from repro.core.plan import PlanResult
from repro.harness.crashsweep import CrashSweep, SweepConfig
from repro.harness.faultsweep import FaultSweep, FaultSweepConfig
from repro.harness.sweep import canonical_result, ring_problem
from repro.nvm import flightrec
from repro.nvm.faults import FaultPlan, MediaFault
from repro.nvm.flightrec import DecodedRecord


def events(*seqs, sim_ns=None):
    times = sim_ns or [10.0 * s for s in seqs]
    return [
        DecodedRecord(kind="event", seq=s, sim_ns=t)
        for s, t in zip(seqs, times)
    ]


def torn(seq=0):
    return DecodedRecord(kind="torn", seq=seq)


@pytest.fixture
def crash_ring(monkeypatch):
    """Judge a synthetic ring as the crash sweep judges a crashed image."""
    monkeypatch.setattr(flightrec, "device_image", lambda mem: b"")

    def judge(ring):
        monkeypatch.setattr(
            flightrec, "decode_device_image",
            lambda raw: {"present": True, "records": ring},
        )
        sweep = CrashSweep(SweepConfig())
        sweep.check_blackbox("engine", "flush", 1, None, None, require=True)
        return sweep

    return judge


@pytest.fixture
def live_ring(monkeypatch):
    """Judge a synthetic ring as the fault sweep judges a live pool."""
    engine = SimpleNamespace(last_state=SimpleNamespace(pool=None))

    def judge(ring):
        monkeypatch.setattr(
            flightrec, "decode_pool",
            lambda pool: {"present": True, "records": ring},
        )
        sweep = FaultSweep(FaultSweepConfig())
        sweep.check_blackbox("engine", "bitflip", 1, engine)
        return sweep

    return judge


class TestRingJudge:
    def test_clean_ring_passes_both_judges(self, crash_ring, live_ring):
        assert crash_ring(events(1, 2, 3)).violations == []
        sweep = live_ring(events(1, 2, 3))
        assert sweep.violations == []
        assert sweep.blackbox_sample["records"] == 3

    def test_one_torn_slot_passes_after_a_crash_but_not_live(
        self, crash_ring, live_ring
    ):
        ring = events(1, 2) + [torn(3)]
        sweep = crash_ring(ring)
        assert sweep.violations == []
        assert sweep.blackbox["torn_records"] == 1
        (violation,) = live_ring(ring).violations
        assert "black box: 1 torn/unknown slots" in violation["problem"]

    def test_two_torn_slots_fail_the_crash_judge(self, crash_ring):
        ring = [DecodedRecord(kind="unknown")] + events(1, 2) + [torn(3)]
        (violation,) = crash_ring(ring).violations
        assert "black box: 2 torn/unknown slots" in violation["problem"]

    def test_repeated_seq_fails(self):
        problem = ring_problem(events(1, 2, 2, 3), max_damaged=0)
        assert "not strictly increasing" in problem

    def test_regressing_sim_ns_fails(self):
        ring = events(1, 2, 3, sim_ns=[5.0, 9.0, 7.0])
        assert "regress" in ring_problem(ring, max_damaged=0)

    def test_committed_phase_outside_the_legal_set_fails(self):
        ring = events(1, 2)
        allowed = {"initialization", None}
        assert ring_problem(ring, 1, "initialization", allowed) is None
        problem = ring_problem(ring, 1, "traversal", allowed)
        assert "'traversal' outside the legal checkpoint set" in problem

    def test_absent_ring_is_a_violation_only_where_required(self):
        sweep = FaultSweep(FaultSweepConfig())
        assert sweep.judge_ring("s", "k", 0, None, 0, require=False) is None
        assert sweep.violations == []
        assert sweep.judge_ring("s", "k", 1, None, 0) is None
        (violation,) = sweep.violations
        assert "flight recorder absent" in violation["problem"]
        assert sweep.blackbox["absent"] == 2


# -- the resilience-triad classifier ------------------------------------

REFERENCE = {"word_count": canonical_result({"a": 2}), "sort": "[]"}
REF_NS = 1000.0
NO_RING = SimpleNamespace(last_state=None)  # skips the black-box leg


def solo(result, total_ns=REF_NS, task="word_count"):
    return RunResult(
        task=task, system="ntadoc", result=result, phase_ns={},
        total_ns=total_ns, dram_peak=0, pool_peak=0, pool_device="nvm",
        strategy="topdown",
    )


def classify(sweep, out, reference=None, plan=None, kind="bitflip"):
    """Classify one synthetic run outcome (or raise it, if an exception)."""

    def run():
        if isinstance(out, Exception):
            raise out
        return out

    reference = reference or {"word_count": REFERENCE["word_count"]}
    sweep.classify(
        "engine", kind, 7, NO_RING, plan or FaultPlan(), run, reference,
        REF_NS,
    )


@pytest.fixture
def sweep():
    return FaultSweep(FaultSweepConfig())


class TestTriadClassifier:
    def test_untyped_escape_is_a_violation(self, sweep):
        classify(sweep, KeyError("boom"))
        (violation,) = sweep.violations
        assert "untyped KeyError escaped" in violation["problem"]
        assert sweep.outcomes == {}
        assert sweep.points == 1

    def test_failure_without_a_kind_is_a_violation(self, sweep):
        classify(sweep, TaskFailure(task="word_count", error="lost"))
        (violation,) = sweep.violations
        assert "failed without a damage kind" in violation["problem"]
        assert sweep.outcomes == {}

    def test_typed_failure_is_quarantined(self, sweep):
        failure = TaskFailure(task="word_count", error="lost", kind="stuck")
        classify(sweep, failure)
        assert sweep.violations == []
        assert sweep.outcomes == {"quarantined_typed": 1}

    def test_wrong_answer_is_counted_silent(self, sweep):
        classify(sweep, solo({"a": 3}))
        (violation,) = sweep.violations
        assert violation["problem"].startswith("SILENT WRONG ANSWER")
        assert sweep.report()["silent_wrong_answers"] == 1

    def test_equal_cost_is_latent_when_the_fault_fired(self, sweep):
        flip = MediaFault("bitflip", 64)
        plan = FaultPlan(media_faults=[flip])
        classify(sweep, solo({"a": 2}), plan=plan)
        assert sweep.outcomes == {"masked": 1}
        flip.applied = True
        classify(sweep, solo({"a": 2}), plan=plan)
        dead = FaultPlan(wear_death=True)
        dead.dead_lines.append(3)
        classify(sweep, solo({"a": 2}), plan=dead)
        assert sweep.violations == []
        assert sweep.outcomes == {"latent": 2, "masked": 1}

    def test_extra_cost_is_a_recovery(self, sweep):
        classify(sweep, solo({"a": 2}, total_ns=REF_NS + 250.0))
        assert sweep.violations == []
        assert sweep.outcomes == {"detected_recovered": 1}
        assert sweep.recovery_extra_ns == [250.0]

    def test_fused_plan_that_loses_a_task_is_a_violation(self, sweep):
        plan = PlanResult(
            results=[solo({"a": 2})], stats=None, phase_ns={},
            total_ns=REF_NS,
        )
        classify(sweep, plan, reference=REFERENCE, kind="fused_bitflip")
        (violation,) = sweep.violations
        assert "plan lost tasks: 1 results + 0 failures != 2" in (
            violation["problem"]
        )
        assert sweep.by_kind == {"fused_bitflip": 1}

    def test_fused_sibling_wrong_answer_is_silent(self, sweep):
        plan = PlanResult(
            results=[solo({"a": 2}), solo(["x"], task="sort")],
            stats=None, phase_ns={}, total_ns=REF_NS,
        )
        classify(sweep, plan, reference=REFERENCE, kind="fused_bitflip")
        (violation,) = sweep.violations
        assert violation["problem"].startswith("SILENT WRONG ANSWER: sort")
