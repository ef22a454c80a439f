"""``python -m repro.harness.goldendiff``: the leaves that moved between captures."""

from __future__ import annotations

import json

from repro.harness.goldendiff import ABSENT, diff, leaves, main

OLD = {
    "run|A": {"total_ns": "120.0", "stats": {"device_ns": 10.0, "hits": 4}},
    "run|B": {"total_ns": "90.0", "stats": {"device_ns": 0.0, "hits": 2}},
    "digests": ["aa", "bb"],
    "flags": {"fused": True, "empty": {}},
}
NEW = {
    "run|A": {"total_ns": "120.0", "stats": {"device_ns": 120.0, "hits": 4}},
    "run|B": {"total_ns": "90.0", "stats": {"device_ns": 0.0, "hits": 2}},
    "digests": ["aa", "cc", "dd"],
    "flags": {"fused": 1, "added": None},
}


def test_leaves_walk_dicts_and_lists_in_order():
    assert list(leaves({"a": [1, {"b": 2}], "c": {}})) == [
        ("a[0]", 1),
        ("a[1].b", 2),
        ("c", {}),
    ]


def test_diff_names_every_moved_leaf_with_both_values():
    assert diff(OLD, NEW) == [
        ("run|A.stats.device_ns", 10.0, 120.0),
        ("digests[1]", "bb", "cc"),
        ("flags.fused", True, 1),
        ("flags.empty", {}, ABSENT),
        ("digests[2]", ABSENT, "dd"),
        ("flags.added", ABSENT, None),
    ]
    assert diff(OLD, json.loads(json.dumps(OLD))) == []


def test_cli_prints_paths_values_and_a_summary(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(OLD))
    new.write_text(json.dumps(NEW))
    assert main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "run|A.stats.device_ns: 10.0 -> 120.0"
    assert "flags.empty: {} -> <absent>" in lines
    assert "digests[2]: <absent> -> \"dd\"" in lines
    assert lines[-1] == (
        "6 leaves differ (by last key: added 1, device_ns 1, digests 2, "
        "empty 1, fused 1)"
    )
    assert main([str(old), str(old)]) == 0
    assert capsys.readouterr().out == "0 leaves differ\n"
