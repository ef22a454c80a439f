"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.sequitur import serialization

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def text_files(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("the quick brown fox the quick brown fox jumps")
    b = tmp_path / "b.txt"
    b.write_text("jumps over the lazy dog the lazy dog")
    return [a, b]


@pytest.fixture
def corpus_path(tmp_path, text_files):
    out = tmp_path / "corpus.ntdc"
    assert main(["compress", *map(str, text_files), "-o", str(out)]) == 0
    return out


class TestCompressDecompress:
    def test_compress_creates_corpus(self, corpus_path, capsys):
        assert corpus_path.exists()
        corpus = serialization.load(corpus_path)
        assert corpus.n_files == 2

    def test_roundtrip_through_decompress(self, tmp_path, corpus_path):
        outdir = tmp_path / "restored"
        assert main(["decompress", str(corpus_path), "-d", str(outdir)]) == 0
        restored = sorted(p.name for p in outdir.iterdir())
        assert restored == ["a.txt", "b.txt"]
        assert (outdir / "a.txt").read_text().strip() == (
            "the quick brown fox the quick brown fox jumps"
        )

    def test_compress_reports_sizes(self, tmp_path, text_files, capsys):
        out = tmp_path / "c.ntdc"
        main(["compress", *map(str, text_files), "-o", str(out)])
        captured = capsys.readouterr().out
        assert "compressed 2 file(s)" in captured
        assert "rules" in captured


class TestStats:
    def test_stats_output(self, corpus_path, capsys):
        assert main(["stats", str(corpus_path)]) == 0
        captured = capsys.readouterr().out
        assert "files            : 2" in captured
        assert "grammar length" in captured
        assert "DAG depth" in captured
        assert "rule length histogram" in captured


class TestDataset:
    def test_generate_profile(self, tmp_path, capsys):
        out = tmp_path / "b.ntdc"
        assert main(["dataset", "B", "--scale", "0.05", "-o", str(out)]) == 0
        corpus = serialization.load(out)
        assert corpus.n_files > 10

    def test_unknown_profile_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "Z", "-o", str(tmp_path / "x.ntdc")])


class TestRun:
    @pytest.mark.parametrize(
        "task",
        [
            "word_count",
            "sort",
            "term_vector",
            "inverted_index",
            "sequence_count",
            "ranked_inverted_index",
        ],
    )
    def test_run_each_task(self, corpus_path, capsys, task):
        assert main(["run", task, str(corpus_path)]) == 0
        captured = capsys.readouterr().out
        assert f"task      : {task}" in captured
        assert "result rows" in captured

    def test_run_alternate_system(self, corpus_path, capsys):
        assert main(
            ["run", "word_count", str(corpus_path), "--system", "tadoc_dram"]
        ) == 0
        assert "tadoc_dram" in capsys.readouterr().out

    def test_run_pinned_traversal(self, corpus_path, capsys):
        assert main(
            ["run", "word_count", str(corpus_path), "--traversal", "bottomup"]
        ) == 0
        assert "bottomup traversal" in capsys.readouterr().out

    def test_unknown_task_rejected(self, corpus_path):
        with pytest.raises(SystemExit):
            main(["run", "frequency_hologram", str(corpus_path)])


class TestOneRunner:
    """``run`` is the one runner: datasets, observation flags, bad input."""

    def test_profile_letter_snapshot_workload(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        assert main(
            [
                "run", "word_count,term_vector", "B", "--scale", "0.05",
                "--traversal", "bottomup", "--profile",
                "--snapshot-out", str(snapshot),
            ]
        ) == 0
        assert "hot spans" in capsys.readouterr().out.lower()
        import json

        workload = json.loads(snapshot.read_text())["workload"]
        assert workload == "B@0.05 bottomup word_count,term_vector"

    def test_observation_combines(self, corpus_path, capsys):
        assert main(
            [
                "run", "word_count", str(corpus_path),
                "--wear", "--profile", "--metrics", "prom",
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "result rows" in captured
        assert "wear report for word_count" in captured
        assert "# run total:" in captured
        assert "run total :" in captured

    @pytest.mark.parametrize("flag", ["--wear", "--profile", "--metrics=json"])
    def test_observation_needs_ntadoc_system(self, corpus_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "run", "word_count", str(corpus_path),
                    "--system", "uncompressed_nvm", flag,
                ]
            )
        assert exc.value.code == 2
        assert "N-TADOC" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--trace-out", "t.json"], ["--events", "3"], ["--depth", "2"]],
    )
    def test_sub_flag_needs_its_parent(self, corpus_path, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["run", "word_count", str(corpus_path), *extra])
        assert exc.value.code == 2
        assert "needs --" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_missing_corpus_exits_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nonexistent.ntdc")
        args = ["run", "word_count", missing] if command == "run" else [
            "stats", missing,
        ]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot load corpus" in err
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_corpus_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.ntdc"
        junk.write_bytes(b"definitely not a corpus")
        with pytest.raises(SystemExit) as exc:
            main(["run", "word_count", str(junk)])
        assert exc.value.code == 2
        assert "cannot load corpus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "word_count", "B", "--scale", "0"],
            ["run", "word_count", "B", "--scale", "nan"],
            ["reproduce", "table2", "--scale", "-1"],
            ["dataset", "B", "--scale", "0", "-o", "x.ntdc"],
        ],
    )
    def test_bad_scale_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--profile", "--depth", "0"],
            ["--profile", "--depth", "-1"],
            ["--depth", "0"],
            ["--wear", "--endurance", "0"],
            ["--top", "-1"],
            ["--profile", "--tolerance", "-1"],
            ["--ngram", "1"],
            ["--metrics", "prom", "--events", "-1"],
        ],
    )
    def test_out_of_range_observation_values_exit_2(
        self, corpus_path, flags, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["run", "word_count", str(corpus_path), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the workload runs
        assert captured.err.count("\n") == 1
        assert f"--{flags[-2].lstrip('-')} must be at least" in captured.err

    def test_ingest_rejects_short_ngram(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "synthetic", "--ngram", "1"])
        assert exc.value.code == 2
        assert "--ngram must be at least 2" in capsys.readouterr().err

    def test_needs_checks_presence_not_truthiness(self, corpus_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "word_count", str(corpus_path), "--events", "0"])
        assert exc.value.code == 2
        assert "--events needs --metrics" in capsys.readouterr().err


class TestCompare:
    def test_compare_table(self, corpus_path, capsys):
        assert main(
            [
                "compare",
                "word_count",
                str(corpus_path),
                "--systems",
                "tadoc_dram",
                "ntadoc",
                "uncompressed_nvm",
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "speedup" in captured
        assert "ntadoc" in captured
        assert "uncompressed" in captured


class TestSearch:
    def test_search_finds_documents(self, corpus_path, capsys):
        assert main(["search", str(corpus_path), "fox", "dog"]) == 0
        captured = capsys.readouterr().out
        assert "fox: " in captured
        assert "dog: " in captured

    def test_search_unknown_word_reported(self, corpus_path, capsys):
        assert main(["search", str(corpus_path), "zebra"]) == 1
        assert "does not occur" in capsys.readouterr().out

    def test_search_mixed_known_unknown(self, corpus_path, capsys):
        assert main(["search", str(corpus_path), "zebra", "fox"]) == 0
        captured = capsys.readouterr().out
        assert "does not occur" in captured
        assert "fox: " in captured


class TestReproduce:
    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])


class TestWear:
    def test_single_task_report(self, corpus_path, capsys):
        assert main(["run", "word_count", str(corpus_path), "--wear"]) == 0
        captured = capsys.readouterr().out
        assert "wear report for word_count" in captured
        assert "line programs" in captured
        assert "imbalance" in captured
        assert "hottest lines:" in captured
        assert "line     offset  programs" in captured

    def test_fused_plan_report(self, corpus_path, capsys):
        assert main(
            [
                "run", "word_count,inverted_index", str(corpus_path),
                "--wear", "--top", "3",
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "wear report for word_count,inverted_index" in captured
        assert "top 3 hottest lines:" in captured

    def test_unknown_task_rejected(self, corpus_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "word_mangle", str(corpus_path), "--wear"])
        assert exc.value.code == 2
        assert "unknown task(s): word_mangle" in capsys.readouterr().err


class TestCrashsweep:
    def test_smoke_sweep_matches_golden_report(self, tmp_path, capsys):
        out = tmp_path / "crashsweep.json"
        assert main(
            ["crashsweep", "--smoke", "--out", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "crash points" in captured
        assert "0 violation(s)" in captured
        assert out.read_bytes() == (
            GOLDEN / "crashsweep_smoke.json"
        ).read_bytes()


class TestFaultsweep:
    def test_smoke_sweep_writes_report(self, tmp_path, capsys):
        out = tmp_path / "faultsweep.json"
        assert main(
            ["faultsweep", "--smoke", "--out", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "media-fault points" in captured
        assert "0 silent wrong answer(s)" in captured
        assert "0 violation(s)" in captured
        import json

        report = json.loads(out.read_text())
        assert report["points_swept"] >= 200
        assert report["violations"] == []
        assert out.read_bytes() == (
            GOLDEN / "faultsweep_smoke.json"
        ).read_bytes()


class TestMetrics:
    def test_prom_exposition_and_journal_tail(self, corpus_path, capsys):
        assert main(
            [
                "run", "word_count", str(corpus_path),
                "--metrics", "prom", "--events", "3",
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "# TYPE ntadoc_task_ns histogram" in captured
        assert "ntadoc_events_total" in captured
        assert "# run total:" in captured
        assert "# last 3 journal event(s):" in captured

    def test_json_snapshot_to_file(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(
            [
                "run", "word_count,inverted_index", str(corpus_path),
                "--metrics", "json", "--metrics-out", str(out),
            ]
        ) == 0
        import json

        snapshot = json.loads(out.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert any(
            name.startswith("ntadoc_task_ns") for name in snapshot["histograms"]
        )

    def test_unknown_task_rejected(self, corpus_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "word_mangle", str(corpus_path), "--metrics", "prom"])
        assert exc.value.code == 2


class TestBlackbox:
    def test_image_out_round_trips_through_blackbox(
        self, tmp_path, corpus_path, capsys
    ):
        image = tmp_path / "pool.img"
        assert main(
            ["run", "word_count", str(corpus_path), "--image-out", str(image)]
        ) == 0
        capsys.readouterr()
        assert image.exists()
        assert main(["blackbox", str(image)]) == 0
        captured = capsys.readouterr().out
        assert "last committed phase" in captured
        assert "task_complete" in captured

    def test_json_report(self, tmp_path, corpus_path, capsys):
        image = tmp_path / "pool.img"
        assert main(
            ["run", "word_count", str(corpus_path), "--image-out", str(image)]
        ) == 0
        capsys.readouterr()
        assert main(["blackbox", str(image), "--json", "--tail", "4"]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["present"]
        assert report["by_kind"].get("event", 0) > 0
        assert len(report["tail"]) <= 4

    def test_junk_image_exits_nonzero(self, tmp_path, capsys):
        junk = tmp_path / "junk.img"
        junk.write_bytes(b"definitely not a pool image")
        assert main(["blackbox", str(junk)]) == 1
        assert "no flight recorder found" in capsys.readouterr().err
