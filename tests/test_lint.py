"""Tests for nvmlint: each rule fires on a minimal fixture, stays quiet
on the compliant variant, honors suppressions, and the shipped tree is
clean end to end."""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import REGISTRY, all_rule_ids, lint_paths
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, name="mod.py", **kwargs):
    """Lint one fixture file; returns the LintResult."""
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return lint_paths([target], **kwargs)


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


class TestEngine:
    def test_all_rules_registered(self):
        assert all_rule_ids() == [
            "ND001", "ND002", "ND003", "ND004", "ND005", "ND006", "ND007",
            "ND008", "ND009", "ND010", "ND011", "ND012", "ND013", "ND014",
        ]
        for rule_id, rule in REGISTRY.items():
            assert rule.id == rule_id
            assert rule.summary

    def test_syntax_error_reported_as_nd000(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n")
        assert rules_fired(result) == ["ND000"]
        assert result.exit_code == 1

    def test_unknown_rule_id_rejected(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(ValueError):
            lint_paths([tmp_path], select=["ND999"])

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_findings_sorted_and_located(self, tmp_path):
        source = "import random\n\nb = random.random()\na = random.random()\n"
        result = lint_source(tmp_path, source)
        assert len(result.findings) == 2
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)
        assert all(f.col >= 1 for f in result.findings)


class TestND001RawAccess:
    FIRING = (
        "def sneak(mem):\n"
        "    lo = mem.peek(0, 4)\n"
        "    mem.poke(0, b'1234')\n"
        "    return mem._buf[0], lo\n"
    )

    def test_fires_on_peek_poke_and_buf(self, tmp_path):
        result = lint_source(tmp_path, self.FIRING)
        assert rules_fired(result) == ["ND001"]
        assert len(result.findings) == 3

    def test_accounted_accessors_clean(self, tmp_path):
        source = (
            "def fine(mem):\n"
            "    data = mem.read(0, 4)\n"
            "    mem.write(4, data)\n"
        )
        result = lint_source(tmp_path, source)
        assert result.findings == []

    def test_test_files_exempt(self, tmp_path):
        result = lint_source(tmp_path, self.FIRING, name="test_mod.py")
        assert result.findings == []

    def test_whitelisted_module_exempt(self, tmp_path):
        nvm = tmp_path / "repro" / "nvm"
        nvm.mkdir(parents=True)
        (nvm / "memory.py").write_text(self.FIRING, encoding="utf-8")
        assert lint_paths([nvm / "memory.py"]).findings == []

    def test_suppression_comment(self, tmp_path):
        source = (
            "def sneak(mem):\n"
            "    return mem.peek(0, 4)  # nvmlint: disable=ND001\n"
        )
        result = lint_source(tmp_path, source)
        assert result.findings == []
        assert result.suppressed == 1


class TestND002UnloggedTxWrite:
    def test_fires_on_direct_write_in_transaction(self, tmp_path):
        source = (
            "def mutate(log, mem):\n"
            "    with log.transaction() as tx:\n"
            "        tx.write(0, b'ok')\n"
            "        mem.write(8, b'bad')\n"
            "        mem.write_uint(16, 4, 7)\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND002"]
        assert len(result.findings) == 2

    def test_tx_handle_writes_clean(self, tmp_path):
        source = (
            "def mutate(log):\n"
            "    with log.transaction() as tx:\n"
            "        tx.write(0, b'ok')\n"
            "        tx.write(8, b'ok')\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_writes_outside_transaction_clean(self, tmp_path):
        source = "def mutate(mem):\n    mem.write(0, b'ok')\n"
        assert lint_source(tmp_path, source).findings == []

    def test_unbound_transaction_flags_every_write(self, tmp_path):
        source = (
            "def mutate(log, mem):\n"
            "    with log.transaction():\n"
            "        mem.write(0, b'bad')\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND002"]


class TestND003Nondeterminism:
    def test_wall_clock_read_alone_is_clean(self, tmp_path):
        # Reading the wall clock is legitimate (reported next to simulated
        # time); ND010 flags the *flow* into a charging sink instead.
        source = "import time\n\nstart = time.time()\n"
        assert lint_source(tmp_path, source).findings == []

    def test_fires_on_module_level_random(self, tmp_path):
        source = "import random\n\nx = random.random()\n"
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND003"]

    def test_fires_on_unseeded_rng_instance(self, tmp_path):
        source = "import random\n\nrng = random.Random()\n"
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND003"]

    def test_seeded_rng_clean(self, tmp_path):
        source = "import random\n\nrng = random.Random(42)\n"
        assert lint_source(tmp_path, source).findings == []

    def test_fires_on_set_iteration(self, tmp_path):
        source = (
            "def visit(offsets):\n"
            "    pending = set(offsets)\n"
            "    for off in pending:\n"
            "        print(off)\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND003"]

    def test_sorted_set_iteration_clean(self, tmp_path):
        source = (
            "def visit(offsets):\n"
            "    pending = set(offsets)\n"
            "    for off in sorted(pending):\n"
            "        print(off)\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_suppression_comment(self, tmp_path):
        source = (
            "import random\n\n"
            "x = random.random()  # nvmlint: disable=ND003\n"
        )
        result = lint_source(tmp_path, source)
        assert result.findings == []
        assert result.suppressed == 1


class TestND004StructWidth:
    def test_fires_on_unpack_read_mismatch(self, tmp_path):
        source = (
            "import struct\n\n"
            "def load(mem):\n"
            "    return struct.unpack('<II', mem.read(0, 4))\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND004"]
        assert "8 bytes" in result.findings[0].message

    def test_matching_unpack_clean(self, tmp_path):
        source = (
            "import struct\n\n"
            "def load(mem):\n"
            "    return struct.unpack('<II', mem.read(0, 8))\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_fires_through_struct_constant_and_local(self, tmp_path):
        source = (
            "import struct\n\n"
            "HEADER = struct.Struct('<QI')\n\n"
            "def load(mem):\n"
            "    raw = mem.read(0, 8)\n"
            "    return HEADER.unpack(raw)\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND004"]

    def test_fires_on_width_helper_mismatch(self, tmp_path):
        source = (
            "def read_u32(mem, off):\n"
            "    return mem.read_uint(off, 2)\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND004"]

    def test_consistent_width_helper_clean(self, tmp_path):
        source = (
            "def read_u32(mem, off):\n"
            "    return mem.read_uint(off, 4)\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_fires_on_width_named_constant(self, tmp_path):
        source = "import struct\n\nU32 = struct.Struct('<Q')\n"
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND004"]

    def test_unresolvable_sizes_skipped(self, tmp_path):
        source = (
            "import struct\n\n"
            "def load(mem, fmt, size):\n"
            "    return struct.unpack(fmt, mem.read(0, size))\n"
        )
        assert lint_source(tmp_path, source).findings == []


class TestND005PhaseOrder:
    def test_fires_without_flush(self, tmp_path):
        source = (
            "def checkpoint(pp):\n"
            "    pp.complete_phase('traversal')\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND005"]

    def test_flush_first_clean(self, tmp_path):
        source = (
            "def checkpoint(pool, pp):\n"
            "    pool.flush()\n"
            "    pp.complete_phase('traversal')\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_flush_after_completion_still_fires(self, tmp_path):
        source = (
            "def checkpoint(pool, pp):\n"
            "    pp.complete_phase('traversal')\n"
            "    pool.flush()\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND005"]

    def test_suppression_comment(self, tmp_path):
        source = (
            "def checkpoint(pp):\n"
            "    pp.complete_phase('t')  # nvmlint: disable=ND005\n"
        )
        result = lint_source(tmp_path, source)
        assert result.findings == []
        assert result.suppressed == 1


class TestND006MarkerOrder:
    def test_fires_on_unbarriered_marker_write(self, tmp_path):
        source = (
            "def commit(mem, marker_off, n):\n"
            "    mem.write_u64(marker_off, n + 1)\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND006"]

    def test_fires_on_marker_attribute(self, tmp_path):
        source = (
            "def commit(mem, state):\n"
            "    mem.write(state.marker_offset, b'done')\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND006"]

    def test_flush_barrier_first_is_clean(self, tmp_path):
        source = (
            "def commit(mem, marker_off, n):\n"
            "    mem.flush()\n"
            "    mem.write_u64(marker_off, n + 1)\n"
            "    mem.flush()\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_marker_write_before_flush_still_fires(self, tmp_path):
        source = (
            "def commit(mem, marker_off, n):\n"
            "    mem.write_u64(marker_off, n + 1)\n"
            "    mem.flush()\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND006"]

    def test_non_marker_write_is_clean(self, tmp_path):
        source = (
            "def store(mem, data_off):\n"
            "    mem.write_u64(data_off, 7)\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_module_level_write_uint_name(self, tmp_path):
        source = (
            "def commit(mem, commit_marker):\n"
            "    write_uint(mem, commit_marker, 1)\n"
        )
        result = lint_source(tmp_path, source)
        assert rules_fired(result) == ["ND006"]


class TestSelectIgnoreAndBaseline:
    SOURCE = (
        "import random\n\n"
        "def sneak(mem):\n"
        "    mem.poke(0, random.random())\n"
    )

    def test_select_narrows_rules(self, tmp_path):
        result = lint_source(tmp_path, self.SOURCE, select=["ND001"])
        assert rules_fired(result) == ["ND001"]

    def test_ignore_drops_rules(self, tmp_path):
        result = lint_source(tmp_path, self.SOURCE, ignore=["ND001"])
        assert rules_fired(result) == ["ND003"]

    def test_baseline_roundtrip_via_cli(self, tmp_path, capsys):
        target = tmp_path / "legacy.py"
        target.write_text(self.SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert lint_main(
            [str(target), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        capsys.readouterr()
        # With the baseline applied the same tree is clean...
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out
        # ...but a new violation still fails.
        target.write_text(self.SOURCE + "extra = random.random()\n")
        assert lint_main([str(target), "--baseline", str(baseline)]) == 1


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert lint_main([str(clean)]) == 0
        assert lint_main([str(dirty)]) == 1
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        assert lint_main([str(clean), "--select", "ND999"]) == 2
        assert lint_main(["--write-baseline", str(clean)]) == 2
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert lint_main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "ND003"
        assert finding["line"] == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rule_ids():
            assert rule_id in out

    def test_ntadoc_lint_subcommand(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert repro_main(["lint", str(dirty)]) == 1
        assert "ND003" in capsys.readouterr().out
        assert repro_main(["lint", "--list-rules"]) == 0
        capsys.readouterr()


class TestND007KernelContract:
    VIEW_FIRING = (
        "import builtins\n"
        "def sneak(mem):\n"
        "    view = builtins.memoryview(mem._buf).cast('Q')\n"
        "    flat = memoryview(mem._buf)\n"
        "    return view, flat\n"
    )

    PACK_LOOP_FIRING = (
        "import struct\n"
        "from repro.kernels import typed_array\n"
        "def slow(mem, values):\n"
        "    for off, v in enumerate(values):\n"
        "        mem.write(off * 4, struct.pack('<I', v))\n"
    )

    def test_fires_on_views_over_buf(self, tmp_path):
        result = lint_source(tmp_path, self.VIEW_FIRING)
        # Each view build also trips ND001's _buf check; ND007 names the
        # kernel-contract violation specifically.
        assert "ND007" in rules_fired(result)
        assert sum(f.rule == "ND007" for f in result.findings) == 2

    def test_fires_on_pack_loop_in_kernel_adopter(self, tmp_path):
        result = lint_source(tmp_path, self.PACK_LOOP_FIRING)
        assert rules_fired(result) == ["ND007"]

    def test_nested_loops_report_a_pack_call_once(self, tmp_path):
        source = (
            "import struct\n"
            "from repro.kernels import typed_array\n"
            "def slow(mem, rows):\n"
            "    for row in rows:\n"
            "        while row:\n"
            "            for w in row.pop():\n"
            "                mem.write(0, struct.pack('<I', w))\n"
        )
        findings = lint_source(tmp_path, source).findings
        assert [(f.rule, f.line) for f in findings] == [("ND007", 7)]

    def test_pack_loop_clean_without_kernel_import(self, tmp_path):
        source = self.PACK_LOOP_FIRING.replace(
            "from repro.kernels import typed_array\n", ""
        )
        assert lint_source(tmp_path, source).findings == []

    def test_bulk_kernel_calls_clean(self, tmp_path):
        source = (
            "from repro.kernels import typed_array\n"
            "def fast(mem, values):\n"
            "    mem.write_array(0, values, 4)\n"
            "    return mem.read_array(0, len(values), 4)\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_struct_object_pack_clean(self, tmp_path):
        source = (
            "import struct\n"
            "from repro.kernels import typed_array\n"
            "_H = struct.Struct('<II')\n"
            "def headers(mem, items):\n"
            "    for off, (a, b) in enumerate(items):\n"
            "        mem.write(off * 8, _H.pack(a, b))\n"
        )
        assert lint_source(tmp_path, source).findings == []

    def test_kernel_package_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "kernels"
        pkg.mkdir(parents=True)
        (pkg / "core.py").write_text(self.VIEW_FIRING, encoding="utf-8")
        assert lint_paths([pkg / "core.py"]).findings == []


class TestND009TxEscape:
    def test_second_block_rebinding_tx_resets_the_first(self, tmp_path):
        source = (
            "async def commit(log):\n"
            "    async with log.transaction() as tx:\n"
            "        tx.write(0, b'a')\n"
            "    with log.transaction() as tx, open('f') as fh:\n"
            "        tx.write(8, fh.read())\n"
            "    return tx\n"
        )
        findings = lint_source(tmp_path, source).findings
        assert [(f.rule, f.line) for f in findings] == [("ND009", 6)]

    def test_use_in_the_rebinding_context_expression_still_fires(self, tmp_path):
        source = (
            "def commit(log):\n"
            "    with log.transaction() as tx:\n"
            "        tx.write(0, b'a')\n"
            "    with tx.transaction() as tx:\n"
            "        tx.write(8, b'b')\n"
        )
        findings = lint_source(tmp_path, source).findings
        assert [(f.rule, f.line) for f in findings] == [("ND009", 4)]


class TestND013SegmentOwnership:
    FIRING = (
        "def hijack(pool):\n"
        "    pool.create_segment('mine', 4096)\n"
        "    nested = pool.segment_pool('seg000001')\n"
        "    return nested\n"
    )

    def test_fires_outside_segment_layer(self, tmp_path):
        result = lint_source(tmp_path, self.FIRING)
        assert rules_fired(result) == ["ND013"]
        assert len(result.findings) == 2

    def test_retire_outside_transaction_fires_everywhere(self, tmp_path):
        # Even inside the owning package, retirement must be logged.
        pkg = tmp_path / "repro" / "ingest"
        pkg.mkdir(parents=True)
        source = (
            "def drop(pool):\n"
            "    pool.retire_segment('seg000001')\n"
        )
        (pkg / "compactor.py").write_text(source, encoding="utf-8")
        result = lint_paths([pkg / "compactor.py"])
        assert rules_fired(result) == ["ND013"]

    def test_owner_retire_inside_transaction_clean(self, tmp_path):
        pkg = tmp_path / "repro" / "ingest"
        pkg.mkdir(parents=True)
        source = (
            "def compact(log, pool, blob):\n"
            "    with log.transaction() as tx:\n"
            "        tx.write(0, blob)\n"
            "        pool.retire_segment('seg000001')\n"
            "    pool.create_segment('seg000002', 4096)\n"
        )
        (pkg / "compactor.py").write_text(source, encoding="utf-8")
        assert lint_paths([pkg / "compactor.py"]).findings == []

    def test_test_files_exempt(self, tmp_path):
        result = lint_source(tmp_path, self.FIRING, name="test_mod.py")
        assert result.findings == []


def _fence_cases():
    """(rule, source, path, allowed) for every fenced name and allow-list
    entry: each name sits once inside each allowed path and once outside."""
    device_layer = (
        "repro/nvm/memory.py",
        "repro/nvm/flightrec.py",
        "repro/kernels/bulk.py",
    )
    fences = [
        ("ND001", "peek", "return mem.peek(0, 4)", device_layer),
        ("ND001", "poke", "mem.poke(0, b'x')", device_layer),
        ("ND001", "_buf", "return mem._buf[0]", device_layer),
        ("ND007", "memoryview", "return memoryview(mem._buf)", device_layer),
        ("ND012", "read_unverified", "return mem.read_unverified(0, 4)",
         ("repro/nvm/pool.py",)),
        ("ND012", "unverified_read", "return mem.unverified_read(0, 4)",
         ("repro/nvm/pool.py",)),
    ]
    for method in ("create_segment", "segment_pool", "retire_segment"):
        # Inside a transaction, so only the owner fence can fire.
        body = f"with mem.transaction():\n        mem.{method}('seg000001')"
        owners = ("repro/ingest/engine.py", "repro/nvm/pool.py")
        fences.append(("ND013", method, body, owners))
    outside = ("repro/core/engine.py", "repro/nvm/pool.py", "repro/ingest/engine.py")
    for rule, name, body, allowed in fences:
        source = f"def touch(mem):\n    {body}\n"
        for path in allowed + tuple(p for p in outside if p not in allowed):
            yield pytest.param(
                rule, source, path, path in allowed, id=f"{rule}-{name}-{path}"
            )


class TestFenceAllowLists:
    @pytest.mark.parametrize("rule,source,path,allowed", list(_fence_cases()))
    def test_name_fenced_outside_its_allow_list(
        self, tmp_path, rule, source, path, allowed
    ):
        target = tmp_path / path
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        fired = [f for f in lint_paths([target]).findings if f.rule == rule]
        assert len(fired) == (0 if allowed else 1)


class TestShippedTree:
    def test_src_tree_is_clean(self):
        result = lint_paths([REPO_ROOT / "src"])
        assert result.files_checked > 50
        assert [f.render() for f in result.findings] == []
        # No standing suppressions: the interprocedural taint engine
        # proves the one former exemption (``wall_now_s`` reading the
        # wall clock in metrics/timer.py) never flows into a charging
        # sink, so the tree is clean under all thirteen rules unaided.
        assert result.suppressed == 0
