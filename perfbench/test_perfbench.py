"""The benchmark's own tests: exact simulated metrics, trace parity,
oracle sensitivity, and the command-line contract.

Run with ``python -m pytest perfbench -q`` from the repository root
(several minutes: every workload runs one period untraced and traced).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads
from repro.core.engine import NTadocEngine

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _names(kind: str) -> set[str]:
    return {metric["name"] for metric in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_simulated_metrics_exact_and_identical_under_tracing(name):
    cls = workloads.WORKLOADS[name]
    plain, plain_report, _ = harness.run_workload(cls, SEED, 0, trace=False)
    traced, traced_report, spans = harness.run_workload(cls, SEED, 0, trace=True)
    assert plain["correct"] and traced["correct"], (
        plain_report["failures"] + traced_report["failures"]
    )
    assert set(plain["metrics"]) == _names("end_to_end")
    assert set(traced["metrics"]) == _names("per_layer")
    # Same seed, another run: every simulated metric repeats exactly.
    assert traced_report["simulated"] == plain_report["simulated"]
    for metric, value in plain_report["simulated"].items():
        if metric in plain["metrics"] or metric in traced["metrics"]:
            reported = {**plain["metrics"], **traced["metrics"]}[metric]
            assert reported == value, metric
    assert spans.records and all(end >= start for _, start, end, _, _ in spans.records)


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([float(i) for i in range(1, 11)]) == (10.0, 100.0)
    value, percentile = harness.tail([float(i) for i in range(1, 101)])
    assert percentile == 90.0
    assert value == pytest.approx(90.5, abs=0.05)


def test_quantile_is_harrell_davis():
    # Symmetric samples: the median estimate is the middle value.
    assert harness.quantile([float(i) for i in range(1, 102)], 0.5) == pytest.approx(51.0)
    assert harness.quantile([7.0], 0.9) == 7.0
    # A gap between two kinds of operation at the median: the sample
    # median jumps across it when one sample moves; the estimate moves
    # by a small share of the gap.
    low, high = [100.0] * 40, [300.0] * 40
    below = harness.quantile(low + [100.0] + high, 0.5)
    above = harness.quantile(low + [300.0] + high, 0.5)
    assert below == pytest.approx(200.0, abs=25) and above - below < 25
    # Against scipy.special.betainc at a few points.
    assert harness.beta_cdf(2.5, 4.0, 0.3) == pytest.approx(0.3521975859068, rel=1e-9)
    assert harness.beta_cdf(50.0, 10.0, 0.9) == pytest.approx(0.9334105544171, rel=1e-9)


def test_wrong_result_fails_the_operation(monkeypatch):
    """A program that drops one word from every other word_count must be
    caught, and the failures must show in ``success_rate``."""
    original = NTadocEngine.run_many
    calls = []

    def lossy(self, tasks, **kwargs):
        plan = original(self, tasks, **kwargs)
        calls.append(None)
        if len(calls) % 2:
            counts = plan.by_task("word_count").result
            counts.pop(next(iter(counts)))
        return plan

    monkeypatch.setattr(NTadocEngine, "run_many", lossy)
    result, report, _ = harness.run_workload(
        workloads.ColdPipeline, SEED, 0, trace=False
    )
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert all("word_count" in error for error in report["failures"])
    assert set(result["metrics"]) == _names("end_to_end")
    success = result["metrics"]["success_rate"]
    assert success == pytest.approx(1 - result["failed"] / result["attempted"])


def _cli(cwd: Path, *args: str, hash_seed: str = "0"):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_cli_repeats_simulated_metrics_across_processes():
    args = ("--workload", "ingest-stream", "--seed", "5", "--seconds", "0")
    first, second = _cli(ROOT, *args, hash_seed="1"), _cli(ROOT, *args, hash_seed="2")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    reports = [json.loads(p.stdout.splitlines()[-2]) for p in (first, second)]
    assert reports[0]["simulated"] == reports[1]["simulated"]
    result = json.loads(first.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _cli(tmp_path, "--workload", "query-mix", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
