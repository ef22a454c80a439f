"""End-to-end tests for the media-fault sweep harness.

The smoke configuration itself runs in CI (`ntadoc faultsweep --smoke`);
here we run a reduced sweep so the suite stays fast, and assert the
properties the harness exists for: every fault point lands in the
resilience triad (corrected / detected-and-recovered / quarantined with
a typed error) with zero silent wrong answers, and reports are
bit-identical under a fixed seed.
"""

import json

from repro.harness.faultsweep import (
    FaultSweepConfig,
    _FaultSweep,
    render_report,
    run_sweep,
)


def reduced_config(seed=20240817):
    return FaultSweepConfig(
        seed=seed,
        tasks=("word_count",),
        second_kind_points=9,
        wear_points=2,
        infra_points=3,
        fused_points=3,
    )


class TestFaultSweep:
    def test_reduced_sweep_has_zero_violations(self):
        report = run_sweep(reduced_config())
        assert report["violations"] == []
        assert report["silent_wrong_answers"] == 0
        assert report["points_swept"] >= 20
        # Every media-fault kind contributed points.
        for kind in ("bitflip", "stuck_line", "transient"):
            assert report["by_kind"].get(kind, 0) > 0, kind
        assert report["outcomes"]["detected_recovered"] > 0
        # Recovery charges simulated time; the mean must be visible.
        assert report["mean_recovery_extra_ns"] > 0

    def test_recovery_charging_no_more_is_a_violation(self):
        sweep = _FaultSweep(reduced_config())
        sweep.recovered("engine", "bitflip", 3, -13871.6)
        sweep.recovered("fused", "stuck_line", 4, 250.0)
        assert sweep.outcomes == {"detected_recovered": 2}
        (violation,) = sweep.violations
        assert (violation["scenario"], violation["index"]) == ("engine", 3)
        assert "recovery is charged work" in violation["problem"]

    def test_scrub_leg_reanalyzes_bit_identically(self):
        report = run_sweep(reduced_config())
        assert report["reanalyzed_identical"] > 0
        # Whatever the scrub leg could not re-analyze failed *typed*.
        assert report["violations"] == []

    def test_sweep_is_deterministic_under_fixed_seed(self):
        first = render_report(run_sweep(reduced_config()))
        second = render_report(run_sweep(reduced_config()))
        assert first == second

    def test_different_seed_changes_sampling_not_verdicts(self):
        a = run_sweep(reduced_config(seed=1))
        b = run_sweep(reduced_config(seed=2))
        assert a["violations"] == [] and b["violations"] == []
        assert render_report(a) != render_report(b)
        # The fault-free analytics reference is seed-independent.
        assert a["reference_digests"] == b["reference_digests"]

    def test_report_is_valid_sorted_json(self):
        rendered = render_report(run_sweep(reduced_config()))
        parsed = json.loads(rendered)
        assert list(parsed) == sorted(parsed)
        assert rendered.endswith("\n")

    def test_smoke_config_meets_issue_floor(self):
        smoke = FaultSweepConfig.smoke()
        full = FaultSweepConfig.full()
        assert smoke.reanalyze and full.reanalyze
        assert full.second_kind_points > smoke.second_kind_points
        assert full.wear_points > smoke.wear_points
