"""Golden-finding harness for the nvmlint fixture corpus.

Each ``tests/lint_fixtures/<case>/`` directory holds the sources for one
scenario plus ``expected.json``, the pinned ``(file, rule, line)`` list.
Cases are copied into a temporary directory before linting: files under
``tests/`` are exempt from every rule by design, and the fixtures must be
linted as product code.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
CASES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


def run_case(case: str, tmp_path: Path):
    src = FIXTURES / case
    work = tmp_path / case
    work.mkdir()
    for py in sorted(src.glob("*.py")):
        shutil.copy(py, work / py.name)
    result = lint_paths([work])
    expected = json.loads((src / "expected.json").read_text())
    return result, expected


def test_corpus_has_cases():
    assert len(CASES) >= 10
    for case in CASES:
        assert (FIXTURES / case / "expected.json").exists()


@pytest.mark.parametrize("case", CASES)
def test_fixture_matches_golden(case, tmp_path):
    result, expected = run_case(case, tmp_path)
    got = sorted(
        (Path(f.path).name, f.rule, f.line) for f in result.findings
    )
    want = sorted((e["file"], e["rule"], e["line"]) for e in expected)
    rendered = "\n".join(f.render() for f in result.findings)
    assert got == want, f"findings:\n{rendered}"


TRUE_POSITIVE = [
    c
    for c in CASES
    if json.loads((FIXTURES / c / "expected.json").read_text())
]


@pytest.mark.parametrize("case", TRUE_POSITIVE)
def test_true_positive_cases_carry_evidence(case, tmp_path):
    """Interprocedural findings name their cross-function evidence."""
    result, expected = run_case(case, tmp_path)
    assert result.findings, "true-positive case produced no findings"
    for finding in result.findings:
        if finding.rule in ("ND008",):
            # The chain names each hop down to the origin marker event.
            assert " via " in finding.message
            assert ".py:" in finding.message
        if finding.rule in ("ND010", "ND014"):
            assert "at" in finding.message and ".py:" in finding.message


def test_nd008_chain_names_both_modules(tmp_path):
    result, _ = run_case("nd008_cross", tmp_path)
    (finding,) = result.findings
    assert "a_mod.py:2" in finding.message  # origin marker write
    assert "persist_marker" in finding.message  # the hop
