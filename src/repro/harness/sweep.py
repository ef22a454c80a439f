"""One sweep core for the crash and media-fault harnesses.

Both harnesses (:mod:`repro.harness.crashsweep`,
:mod:`repro.harness.faultsweep`) are a point generator crossed with a
scenario and a judge: enumerate points from a counting run, replay the
scenario with one fault armed per point, judge what is left.  This
module holds what every sweep shares -- the seeded RNG, the point and
violation bookkeeping, the black-box ring judge, the common report keys
and the canonical JSON used for results and reports.  Each harness keeps
only its scenarios and its own triad.

See docs/recovery.md for the fault models and the judging rules.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict

from repro.nvm.flightrec import blackbox_report
from repro.sequitur import compress_files


def smoke_corpus():
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


def digest(text: str) -> str:
    """Short stable digest of a canonical result for reports."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def mean(values) -> float:
    """Mean rounded for the report; 0.0 for no values."""
    return round(sum(values) / len(values), 3) if values else 0.0


def render_report(report: dict) -> str:
    """Byte-stable JSON rendering of a sweep report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def ring_problem(records, max_damaged: int, phase=None, allowed=None):
    """Judge one decoded flight-recorder ring against the black-box contract.

    At most ``max_damaged`` slots may be torn or unknown: one after a
    crash (the cut lands in at most one slot), none in a live ring.  The
    surviving events must be chronologically consistent; and when a
    legal checkpoint set ``allowed`` is known, the ring's committed-phase
    view ``phase`` must fall inside it (the same +-1-torn-flush window
    the marker gets).  Returns the problem, or ``None`` when it holds.
    """
    damaged = sum(1 for r in records if r.kind != "event")
    if damaged > max_damaged:
        return f"{damaged} torn/unknown slots; at most {max_damaged} allowed"
    events = [r for r in records if r.kind == "event"]
    seqs = [r.seq for r in events]
    if seqs != sorted(set(seqs)):
        return "event sequence numbers are not strictly increasing"
    times = [r.sim_ns for r in events]
    if any(b < a for a, b in zip(times, times[1:])):
        return "event timestamps regress along the sequence"
    if allowed is not None and phase not in allowed:
        return (
            f"committed-phase view {phase!r} outside "
            f"the legal checkpoint set {sorted(map(str, allowed))}"
        )
    return None


class Sweep:
    """One sweep run: the seeded RNG, points, violations, black box.

    ``blackbox`` holds the harness's own ring counters (``absent`` is
    common); ``blackbox_sample`` one decoded tail for the report.
    """

    def __init__(self, config, blackbox_counters: tuple[str, ...]) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.points = 0
        self.by_kind: dict[str, int] = {}
        self.violations: list[dict] = []
        self.blackbox = dict.fromkeys(blackbox_counters, 0)
        self.blackbox_sample: dict | None = None

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

    def judge_ring(
        self, scenario, kind, index, decoded, max_damaged: int,
        allowed=None, require: bool = True,
    ) -> dict | None:
        """Judge one decoded ring (``None`` when the image has none).

        ``require`` is True when the image is known recoverable, so an
        absent ring is a violation there; ``allowed`` is the legal
        committed-phase set, or ``None`` to skip phase attribution.
        Returns the ring's report (8-record tail) when it passes.
        """
        if decoded is None or not decoded["present"]:
            self.blackbox["absent"] += 1
            if require:
                self.violation(
                    scenario, kind, index,
                    "black box: flight recorder absent from a recoverable "
                    "image",
                )
            return None
        bb = blackbox_report(decoded, tail=8)
        problem = ring_problem(
            decoded["records"], max_damaged, bb["last_completed_phase"],
            allowed,
        )
        if problem:
            self.violation(scenario, kind, index, f"black box: {problem}")
            return None
        return bb

    def report(self, **fields) -> dict:
        """The JSON-ready report: the common keys plus the harness's own."""
        return _jsonable(
            {
                "seed": self.config.seed,
                "config": asdict(self.config),
                "points_swept": self.points,
                "by_kind": self.by_kind,
                "blackbox": {**self.blackbox, "sample": self.blackbox_sample},
                "violations": self.violations,
                **fields,
            }
        )


__all__ = [
    "Sweep",
    "canonical_result",
    "digest",
    "mean",
    "render_report",
    "ring_problem",
    "smoke_corpus",
]
