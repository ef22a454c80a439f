"""End-to-end tests for the crash-sweep harness.

The smoke configuration itself runs in CI (`ntadoc crashsweep --smoke`);
here we run a reduced sweep so the suite stays fast, and assert the two
properties the harness exists for: zero invariant violations across
every enumerated crash point, and bit-identical reports under a fixed
seed.
"""

import json

from repro.harness.crashsweep import SweepConfig, run_sweep
from repro.harness.sweep import render_report


def reduced_config(seed=20240817):
    return SweepConfig(
        seed=seed,
        engine_write_points=12,
        engine_line_points=6,
        torn_per_flush=2,
        tx_write_points=10,
        tx_torn_points=6,
        integrity_rules=2,
    )


class TestCrashSweep:
    def test_reduced_sweep_has_zero_violations(self):
        report = run_sweep(reduced_config())
        assert report["violations"] == []
        assert report["points_swept"] >= 40
        # Every scenario kind contributed points.
        for kind in (
            "write",
            "flush",
            "torn_flush",
            "line_persist",
            "tx_write",
            "tx_flush",
            "tx_torn_flush",
            "corruption",
        ):
            assert report["by_kind"].get(kind, 0) > 0, kind
        assert report["recoveries"] > 0
        assert report["mean_recovery_ns"] > 0

    def test_sweep_is_deterministic_under_fixed_seed(self):
        first = render_report(run_sweep(reduced_config()))
        second = render_report(run_sweep(reduced_config()))
        assert first == second

    def test_different_seed_changes_sampling_not_results(self):
        a = run_sweep(reduced_config(seed=1))
        b = run_sweep(reduced_config(seed=2))
        assert a["violations"] == [] and b["violations"] == []
        assert render_report(a) != render_report(b)
        # The reference analytics output is seed-independent.
        assert a["result_digest"] == b["result_digest"]

    def test_report_is_valid_sorted_json(self):
        rendered = render_report(run_sweep(reduced_config()))
        parsed = json.loads(rendered)
        assert rendered == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
        assert parsed["seed"] == 20240817
