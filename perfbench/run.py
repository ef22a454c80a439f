"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The line before it is the run's report (sample count,
tail percentile, oracle time, environment stamp).  Both, and with
``--trace 1`` the recorded spans, are also written under
``.perfbench/``.  The exit code is 1 when any operation raised or
disagreed with its oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, report, spans = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **report,
    }
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=1) + "\n"
    )
    if spans is not None:
        (out / f"{stem}.spans.json").write_text(
            json.dumps(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                 "spans": spans.records}
            )
            + "\n"
        )
    units = {m["name"]: m["unit"] for m in _declared_metrics()}
    print(json.dumps(report))
    print(
        json.dumps(
            {
                **result,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def _declared_metrics() -> list[dict]:
    """Every metric BENCHMARK.json declares, end-to-end and per-layer."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["end_to_end"] + declared["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
