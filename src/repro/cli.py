"""Command-line interface: ``python -m repro <command> ...``.

Commands::

    compress    text files -> .ntdc compressed corpus
    decompress  .ntdc -> original text files
    stats       Table-I style statistics of a corpus
    dataset     generate a synthetic A/B/C/D profile corpus
    ingest      replay an append/delete trace through the segmented engine
    run         run analytics task(s) under one system; --wear, --profile
                and --metrics observe the run
    compare     run one task under several systems, print speedups
    search      find the documents containing given words
    query       boolean document query ("error AND NOT retry")
    reproduce   regenerate a paper figure/table (wraps the benchmarks)
    crashsweep  enumerate crash points and verify recovery
    faultsweep  enumerate media-fault points and verify the resilience triad
    blackbox    decode the crash-persistent flight recorder from an image
    lint        run nvmlint, the NVM access-discipline checker
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import NoReturn

from repro.analytics import ALL_TASKS, task_by_name
from repro.core.engine import EngineConfig, serialized_size
from repro.core.grammar import CompressedCorpus
from repro.datasets.profiles import PROFILES, dataset_files
from repro.errors import CorruptDataError
from repro.harness.runner import SYSTEMS, build_engine, run_system
from repro.metrics.report import (
    comparison_report,
    format_bytes,
    format_ns,
    run_report,
)
from repro.sequitur import serialization
from repro.sequitur.compressor import compress_files

_TASK_NAMES = [cls.name for cls in ALL_TASKS]


def _scale(text: str) -> float:
    """argparse type for ``--scale``: a positive, finite float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"scale must be positive and finite, not {text!r}"
        )
    return value


def _usage_error(message: str) -> NoReturn:
    """Reject bad input in one line with argparse's exit status."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _check_minima(args, minima: tuple[tuple[str, float], ...]) -> None:
    """Exit 2 in one line when a numeric option is below its minimum."""
    for flag, least in minima:
        value = getattr(args, flag)
        if value is not None and value < least:
            _usage_error(f"--{flag} must be at least {least:g}, not {value:g}")


def _task_names(spec: str) -> list[str]:
    """Parse ``task[,task...]``; exit 2 on an unknown or empty list."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in _TASK_NAMES]
    if not names or unknown:
        bad = ", ".join(unknown) or "(empty)"
        _usage_error(
            f"unknown task(s): {bad}; choose from {', '.join(_TASK_NAMES)}"
        )
    return names


def _synthetic(dataset: str, scale: float | None) -> bool:
    """True when ``dataset`` names a profile to generate at ``scale``."""
    return scale is not None and dataset in PROFILES and not Path(dataset).exists()


def _load_corpus(dataset: str, scale: float | None = None) -> CompressedCorpus:
    """The one corpus loader: a ``.ntdc`` path or, given a ``scale``, a
    synthetic profile letter.  An unreadable or corrupt file prints one
    line and exits 2."""
    if _synthetic(dataset, scale):
        return compress_files(dataset_files(dataset, scale))
    try:
        return serialization.load(dataset)
    except (OSError, CorruptDataError) as exc:
        _usage_error(f"cannot load corpus {dataset}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="N-TADOC: NVM text analytics without decompression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress text files into a corpus")
    p.add_argument("files", nargs="+", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument(
        "--chars",
        action="store_true",
        help="character-level tokens (for text without word boundaries)",
    )

    p = sub.add_parser("decompress", help="expand a corpus back to text")
    p.add_argument("corpus")
    p.add_argument("-d", "--directory", type=Path, default=Path("."))

    p = sub.add_parser("stats", help="show corpus statistics")
    p.add_argument("corpus")

    p = sub.add_parser("dataset", help="generate a synthetic dataset profile")
    p.add_argument("profile", choices=sorted(PROFILES))
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--scale", type=_scale, default=1.0)

    p = sub.add_parser(
        "ingest",
        help="replay an append/delete trace incrementally (docs/ingest.md)",
    )
    p.add_argument(
        "trace",
        help="trace file (append/delete/seal/compact/checkpoint lines), "
        "or 'synthetic' for the generated streaming workload",
    )
    p.add_argument(
        "--tasks",
        default="word_count,inverted_index",
        help="comma-separated analytics tasks run at every checkpoint",
    )
    p.add_argument(
        "--threshold",
        type=int,
        default=512,
        help="append-buffer tokens before an automatic seal",
    )
    p.add_argument(
        "--compact-after",
        type=int,
        default=0,
        metavar="N",
        help="compact whenever more than N segments exist (0 = never)",
    )
    p.add_argument(
        "--media-protect",
        action="store_true",
        help="arm the media guard over the whole segmented pool",
    )
    p.add_argument("--ngram", type=int, default=2, help="sequence length")
    p.add_argument(
        "--docs", type=int, default=60, help="synthetic trace: initial docs"
    )
    p.add_argument(
        "--rounds", type=int, default=5, help="synthetic trace: delta rounds"
    )
    p.add_argument(
        "--seed", type=int, default=7, help="synthetic trace: RNG seed"
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="also time recompress-from-scratch at the final checkpoint",
    )

    p = sub.add_parser(
        "run",
        help="run analytics task(s); --wear/--profile/--metrics observe "
        "the run",
    )
    p.add_argument(
        "task",
        metavar="task[,task...]",
        help=f"task name from {{{','.join(_TASK_NAMES)}}}; a "
        "comma-separated list runs all of them through the "
        "shared-traversal planner (one pool build, fused DAG passes)",
    )
    p.add_argument(
        "dataset",
        help="corpus path, or a synthetic profile letter "
        f"({'/'.join(sorted(PROFILES))}) generated at --scale",
    )
    p.add_argument("--system", choices=sorted(SYSTEMS), default="ntadoc")
    p.add_argument(
        "--scale",
        type=_scale,
        default=0.5,
        help="synthetic dataset scale (profile-letter datasets only)",
    )
    p.add_argument(
        "--traversal", choices=("auto", "topdown", "bottomup"), default="auto"
    )
    p.add_argument("--ngram", type=int, default=2, help="sequence length")
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows per table (results, hottest lines, hot spans)",
    )
    obs = p.add_argument_group(
        "observation (N-TADOC systems only; docs/observability.md)"
    )
    obs.add_argument(
        "--wear",
        action="store_true",
        help="track wear and print the endurance report",
    )
    obs.add_argument(
        "--endurance",
        type=int,
        default=10**7,
        help="per-line endurance budget for the --wear lifetime estimate",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="run under the span tracer: span tree, hot spans, op counters",
    )
    obs.add_argument(
        "--depth",
        type=int,
        default=None,
        help="--profile: record spans only down to this nesting depth",
    )
    obs.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="--profile: write Chrome trace-event JSON (Perfetto)",
    )
    obs.add_argument(
        "--snapshot-out",
        type=Path,
        default=None,
        help="--profile: write a canonical perf-snapshot JSON",
    )
    obs.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="--profile: diff the snapshot against this baseline; exit 1 "
        "on regression",
    )
    obs.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative regression tolerance for --baseline (default 0.10)",
    )
    obs.add_argument(
        "--metrics",
        choices=("prom", "json"),
        default=None,
        help="print the always-on metrics registry: Prometheus text "
        "exposition or the canonical JSON snapshot",
    )
    obs.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="--metrics: write the exposition/snapshot here instead of stdout",
    )
    obs.add_argument(
        "--events",
        type=int,
        default=None,
        metavar="N",
        help="--metrics: also print the last N structured journal events",
    )
    obs.add_argument(
        "--image-out",
        type=Path,
        default=None,
        help="dump the post-run pool image (feed it to 'blackbox')",
    )

    p = sub.add_parser("compare", help="compare systems on one task")
    p.add_argument("task", choices=_TASK_NAMES)
    p.add_argument("corpus")
    p.add_argument(
        "--systems",
        nargs="+",
        choices=sorted(SYSTEMS),
        default=["tadoc_dram", "ntadoc", "uncompressed_nvm"],
    )

    p = sub.add_parser("search", help="find documents containing words")
    p.add_argument("corpus")
    p.add_argument("words", nargs="+")

    p = sub.add_parser(
        "query", help='boolean document query, e.g. "error AND NOT retry"'
    )
    p.add_argument("corpus")
    p.add_argument("expression")

    p = sub.add_parser(
        "reproduce", help="regenerate a paper figure/table"
    )
    from repro.harness.figures import FIGURES

    p.add_argument(
        "figure",
        choices=sorted(FIGURES) + ["all"],
        help="paper artifact to regenerate",
    )
    p.add_argument(
        "--scale",
        type=_scale,
        default=1.0,
        help="dataset scale (1.0 = the calibrated EXPERIMENTS.md scale)",
    )
    p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="corpus cache directory (skips Sequitur on reruns)",
    )

    for name, help_text in (
        ("crashsweep", "enumerate crash points and verify recovery"),
        ("faultsweep", "enumerate media-fault points, verify resilience"),
    ):
        p = sub.add_parser(name, help=f"{help_text} (docs/recovery.md)")
        p.add_argument(
            "--smoke",
            action="store_true",
            help="bounded sweep (>= 200 points; the CI configuration)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=20240817,
            help="sweep seed; a fixed seed makes the JSON report byte-stable",
        )
        p.add_argument(
            "--out",
            type=Path,
            default=None,
            help="write the JSON report here (default: stdout summary only)",
        )

    p = sub.add_parser(
        "blackbox",
        help="decode the crash-persistent flight recorder from a pool "
        "image (docs/observability.md)",
    )
    p.add_argument(
        "image",
        type=Path,
        help="device image file: a SimulatedMemory backing file, or the "
        "dump written by 'run --image-out'",
    )
    p.add_argument(
        "--tail",
        type=int,
        default=12,
        help="records to print from the end of the ring (0 = all)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the full decoded report as JSON",
    )

    sub.add_parser(
        "lint",
        help="check NVM access discipline (see docs/lint.md)",
        add_help=False,  # nvmlint owns its own --help; see main()
    )
    return parser


def _cmd_compress(args) -> int:
    files = [(str(p), p.read_text(encoding="utf-8")) for p in args.files]
    corpus = compress_files(files, token_mode="chars" if args.chars else "words")
    size = serialization.save(corpus, args.output)
    raw = sum(len(text) for _, text in files)
    print(
        f"compressed {len(files)} file(s), {format_bytes(raw)} of text -> "
        f"{format_bytes(size)} ({corpus.n_rules} rules, "
        f"{corpus.vocabulary_size} words)"
    )
    return 0


def _cmd_decompress(args) -> int:
    corpus = _load_corpus(args.corpus)
    args.directory.mkdir(parents=True, exist_ok=True)
    for name, text in zip(corpus.file_names, corpus.expand_text()):
        target = args.directory / Path(name).name
        target.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {target}")
    return 0


def _cmd_stats(args) -> int:
    from repro.core.stats import grammar_stats, rule_length_histogram

    corpus = _load_corpus(args.corpus)
    stats = grammar_stats(corpus)
    print(stats.describe())
    print(f"on-disk size     : {format_bytes(serialized_size(corpus))}")
    if stats.total_tokens:
        ratio = serialized_size(corpus) / (stats.total_tokens * 4)
        print(
            f"vs token array   : {ratio:.3f} ({(1 - ratio) * 100:.1f}% saved)"
        )
    print("rule length histogram:")
    for label, count in rule_length_histogram(corpus).items():
        print(f"  {label:>5s}: {count}")
    return 0


def _cmd_dataset(args) -> int:
    corpus = compress_files(dataset_files(args.profile, args.scale))
    size = serialization.save(corpus, args.output)
    print(
        f"dataset {args.profile} (scale {args.scale:g}): {corpus.n_files} "
        f"files, {corpus.n_rules} rules -> {args.output} "
        f"({format_bytes(size)})"
    )
    return 0


def _render_result(run, corpus, top: int) -> None:
    from repro.analytics.inverted_index import render_inverted_index
    from repro.analytics.ranked_inverted_index import render_ranked_index
    from repro.analytics.sequence_count import render_sequence_counts
    from repro.analytics.sort_task import render_sorted_counts
    from repro.analytics.term_vector import render_term_vectors
    from repro.analytics.word_count import render_word_counts

    print(f"\nfirst {top} result rows:")
    if run.task == "word_count":
        rendered = render_word_counts(run.result, corpus.vocab)
        for word, count in sorted(rendered.items(), key=lambda p: -p[1])[:top]:
            print(f"  {word:20s} {count}")
    elif run.task == "sort":
        for word, count in render_sorted_counts(run.result, corpus.vocab)[:top]:
            print(f"  {word:20s} {count}")
    elif run.task == "term_vector":
        rendered = render_term_vectors(
            run.result, corpus.vocab, corpus.file_names
        )
        for name, vector in list(rendered.items())[:top]:
            head = ", ".join(f"{w}:{c}" for w, c in vector[:5])
            print(f"  {name}: {head}")
    elif run.task == "inverted_index":
        rendered = render_inverted_index(
            run.result, corpus.vocab, corpus.file_names
        )
        for word, docs in list(rendered.items())[:top]:
            print(f"  {word:20s} {len(docs)} file(s)")
    elif run.task == "sequence_count":
        rendered = render_sequence_counts(
            run.result, run.ngram_names, corpus.vocab
        )
        ordered = sorted(rendered.items(), key=lambda p: -p[1])[:top]
        for ngram, count in ordered:
            print(f"  {' '.join(ngram):30s} {count}")
    elif run.task == "ranked_inverted_index":
        rendered = render_ranked_index(
            run.result, run.ngram_names, corpus.vocab, corpus.file_names
        )
        for ngram, posting in list(rendered.items())[:top]:
            head = ", ".join(f"{d}:{c}" for d, c in posting[:3])
            print(f"  {' '.join(ngram):30s} {head}")


def _cmd_ingest(args) -> int:
    from repro.ingest import SegmentedEngine
    from repro.ingest.trace import parse_trace, replay_trace, synthetic_trace

    _check_minima(args, (("ngram", 2),))
    names = _task_names(args.tasks)
    if args.trace == "synthetic":
        ops = synthetic_trace(
            n_docs=args.docs, rounds=args.rounds, seed=args.seed
        )
        print(
            f"synthetic trace: {args.docs} initial docs, {args.rounds} "
            f"delta rounds, seed {args.seed} ({len(ops)} ops)"
        )
    else:
        ops = parse_trace(Path(args.trace).read_text(encoding="utf-8"))
        print(f"replaying {args.trace} ({len(ops)} ops)")
    config = EngineConfig(
        ngram_n=args.ngram, media_protect=args.media_protect, track_wear=True
    )
    engine = SegmentedEngine(config, seal_threshold_tokens=args.threshold)

    def on_checkpoint(index, result) -> None:
        corpus = engine.corpus
        print(
            f"\ncheckpoint @op {index}: {corpus.n_live} live docs, "
            f"{corpus.n_tombstoned} tombstoned, "
            f"{len(corpus.segments)} segment(s), query "
            f"{format_ns(result.query_ns)} simulated"
        )
        for task in names:
            rendered = result.rendered[task]
            size = len(rendered) if hasattr(rendered, "__len__") else 1
            print(f"  {task}: {size} result entries")
        if args.compact_after and len(corpus.segments) > args.compact_after:
            count = len(corpus.segments)
            merged = engine.compact()
            into = merged.name if merged else "(vanished)"
            print(f"  compacted {count} segment(s) -> {into}")

    results = replay_trace(
        engine, ops, tasks=tuple(names), on_checkpoint=on_checkpoint
    )
    print("\nsegment table:")
    print("  name       offset     bytes   docs  live  tombs  mean wear")
    for row in engine.segment_table():
        print(
            f"  {row['name']:9s} {row['offset']:>8d} {row['bytes']:>9d} "
            f"{row['docs']:>6d} {row['live']:>5d} {row['tombstoned']:>6d} "
            f"{row['mean_wear']:>10.3f}"
        )
    total_ns = engine.clock.ns
    print(
        f"\n{len(results)} checkpoint(s), {format_ns(total_ns)} simulated "
        f"total (incremental)"
    )
    if args.baseline and results:
        _, baseline_ns = engine.recompress_baseline(names)
        per_checkpoint = baseline_ns * len(results)
        print(
            f"recompress-from-scratch baseline: {format_ns(baseline_ns)} "
            f"per checkpoint at the final corpus size "
            f"(x{len(results)} checkpoints = {format_ns(per_checkpoint)}, "
            f"{per_checkpoint / total_ns:.2f}x the incremental engine)"
        )
    return 0


#: Lower bounds of ``run``'s numeric options.
_RUN_MINIMA = (
    ("ngram", 2),
    ("top", 0),
    ("endurance", 1),
    ("depth", 1),
    ("tolerance", 0),
    ("events", 0),
)

#: Observation flags that need their parent flag.
_NEEDS = (
    ("depth", "profile"),
    ("trace_out", "profile"),
    ("snapshot_out", "profile"),
    ("baseline", "profile"),
    ("metrics_out", "metrics"),
    ("events", "metrics"),
)


def _cmd_run(args) -> int:
    names = _task_names(args.task)
    _check_minima(args, _RUN_MINIMA)
    for flag, parent in _NEEDS:
        if getattr(args, flag) is not None and not getattr(args, parent):
            _usage_error(f"--{flag.replace('_', '-')} needs --{parent}")
    observing = args.wear or args.profile or args.metrics or args.image_out
    if observing and not args.system.startswith("ntadoc"):
        _usage_error(
            f"--wear/--profile/--metrics/--image-out need an N-TADOC "
            f"--system, not {args.system}"
        )
    corpus = _load_corpus(args.dataset, args.scale)
    tracer = None
    if args.profile:
        from repro.obs.tracer import Tracer

        tracer = Tracer(max_depth=args.depth)
    config = EngineConfig(
        traversal=args.traversal,
        ngram_n=args.ngram,
        track_wear=args.wear,
        tracer=tracer,
    )
    engine = build_engine(args.system, corpus, config)
    tasks = [task_by_name(name) for name in names]
    if len(tasks) == 1:
        runs = [engine.run(tasks[0])]
        total_ns = runs[0].total_ns
    else:
        from repro.metrics.report import plan_report

        plan = engine.run_many(tasks)
        print(plan_report(plan))
        runs = plan.results
        total_ns = plan.total_ns
    for run in runs:
        if len(runs) > 1:
            print()
        print(run_report(run))
        _render_result(run, corpus, args.top)
    status = 0
    if args.profile:
        source = args.dataset
        if _synthetic(args.dataset, args.scale):
            source = f"{args.dataset}@{args.scale:g}"
        workload = f"{source} {args.traversal} {','.join(names)}"
        status = _profile_report(args, tracer, total_ns, workload)
    if args.wear:
        _wear_report(args, engine, names, total_ns)
    if args.metrics:
        _metrics_report(args, engine, names, total_ns)
    if args.image_out is not None:
        from repro.nvm.flightrec import device_image

        memory = engine.last_state.pool_mem
        args.image_out.write_bytes(device_image(memory))
        print(f"wrote pool image {args.image_out} ({format_bytes(memory.size)})")
    return status


def _profile_report(args, tracer, total_ns: float, workload: str) -> int:
    """--profile: span tree, hot spans, exporters, snapshot gate."""
    from repro.metrics.report import hot_spans_report, ops_report, trace_report
    from repro.obs import snapshot as snapshot_mod
    from repro.obs.export import write_chrome_trace

    print()
    print(trace_report(tracer, max_depth=args.depth))
    print()
    print(hot_spans_report(tracer, top=args.top))
    if tracer.ops:
        print()
        print(ops_report(tracer))
    print()
    traced = tracer.total_sim_ns()
    print(
        f"run total : {format_ns(total_ns)} simulated "
        f"({format_ns(traced)} traced, "
        f"{traced / total_ns * 100 if total_ns else 100:.1f}% covered)"
    )
    if args.trace_out is not None:
        size = write_chrome_trace(tracer, args.trace_out)
        print(f"wrote Chrome trace {args.trace_out} ({format_bytes(size)})")
    snapshot = snapshot_mod.build_snapshot(tracer, workload=workload)
    if args.snapshot_out is not None:
        snapshot_mod.save(snapshot, args.snapshot_out)
        print(f"wrote perf snapshot {args.snapshot_out}")
    if args.baseline is None:
        return 0
    baseline = snapshot_mod.load(args.baseline)
    diff = snapshot_mod.diff_snapshots(baseline, snapshot, rel_tol=args.tolerance)
    print()
    print(snapshot_mod.format_diff(diff, rel_tol=args.tolerance))
    return 0 if diff.ok else 1


def _wear_report(args, engine, names: list[str], total_ns: float) -> None:
    """--wear: endurance report of the run's pool."""
    from repro.nvm.wear import hottest_lines, wear_report

    memory = engine.last_state.pool_mem
    report = wear_report(memory)
    line_size = memory.profile.line_size
    print()
    print(f"wear report for {','.join(names)} ({format_ns(total_ns)} simulated)")
    print(f"  line programs   : {report.total_programs}")
    print(f"  lines touched   : {report.lines_touched}")
    print(f"  hottest line    : {report.max_line_programs} programs")
    print(f"  mean per line   : {report.mean_line_programs:.2f} programs")
    print(f"  imbalance       : {report.imbalance:.2f}x the mean")
    print(
        f"  lifetime used   : "
        f"{report.lifetime_fraction_used(args.endurance) * 100:.6f}% of "
        f"{args.endurance} cycles (hottest line)"
    )
    ranked = hottest_lines(memory, args.top)
    if ranked:
        print(f"  top {len(ranked)} hottest lines:")
        print("    line     offset  programs")
        for line, programs in ranked:
            print(f"    {line:>6d} {line * line_size:>8d} {programs:>9d}")


def _metrics_report(args, engine, names: list[str], total_ns: float) -> None:
    """--metrics: the always-on registry, plus the journal's tail."""
    import json as json_mod

    print()
    text = (
        engine.metrics.to_json()
        if args.metrics == "json"
        else engine.metrics.expose()
    )
    if args.metrics_out is not None:
        args.metrics_out.write_text(text, encoding="utf-8")
        print(f"wrote {args.metrics_out} ({format_bytes(len(text))})")
    else:
        print(text, end="")
    print(
        f"# run total: {','.join(names)} in {format_ns(total_ns)} simulated, "
        f"{len(engine.journal.events)} journal event(s)"
    )
    if args.events:
        print(f"# last {args.events} journal event(s):")
        for event in engine.journal.events[-args.events :]:
            detail = json_mod.dumps(
                event.detail, sort_keys=True, separators=(",", ":"), default=str
            )
            print(
                f"#   {event.sim_ns:>12.1f}ns {event.severity:<7s} "
                f"{event.type} {detail}"
            )


def _cmd_compare(args) -> int:
    corpus = _load_corpus(args.corpus)
    # Every system's engine is built over the same corpus object, so the
    # corpus-derived analysis (DAG view, topological orders, Algorithm-2
    # bounds, head/tail lists) and the baseline's expanded token lists
    # are derived once and shared across systems via their memo caches.
    runs = [
        run_system(system, corpus, task_by_name(args.task))
        for system in args.systems
    ]
    first = runs[0].result
    for run in runs[1:]:
        if run.result != first:
            print("ERROR: systems disagree on the result", file=sys.stderr)
            return 1
    print(comparison_report(runs))
    return 0


def _cmd_search(args) -> int:
    from repro.analytics.search import WordSearch
    from repro.core.engine import NTadocEngine

    corpus = _load_corpus(args.corpus)
    word_ids = []
    for word in args.words:
        lowered = word.lower()
        if lowered not in corpus.vocab:
            print(f"{word!r} does not occur anywhere in the corpus")
            continue
        word_ids.append(corpus.vocab.index(lowered))
    if not word_ids:
        return 1
    run = NTadocEngine(corpus).run(WordSearch(word_ids))
    for word_id, posting in run.result.items():
        docs = ", ".join(corpus.file_names[f] for f in posting) or "(none)"
        print(f"{corpus.vocab[word_id]}: {docs}")
    print(f"({run.total_ns / 1e3:.1f} simulated us)")
    return 0


def _cmd_query(args) -> int:
    from repro.analytics.query import QueryEngine, QueryError

    corpus = _load_corpus(args.corpus)
    engine = QueryEngine(corpus)
    try:
        matches = engine.query_names(args.expression)
    except QueryError as exc:
        print(f"bad query: {exc}", file=sys.stderr)
        return 1
    if matches:
        for name in matches:
            print(name)
    else:
        print("(no matching documents)")
    print(f"({engine.sim_ns_spent / 1e3:.1f} simulated us)")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.harness.cache import RunCache
    from repro.harness.figures import FIGURES

    cache = RunCache(scale=args.scale, cache_dir=args.cache_dir)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        figure = FIGURES[name](cache)
        print(figure.render())
        print()
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness import crashsweep, faultsweep
    from repro.harness.sweep import render_report

    crash = args.command == "crashsweep"
    if crash:
        config_cls, run_sweep = crashsweep.SweepConfig, crashsweep.run_sweep
    else:
        config_cls = faultsweep.FaultSweepConfig
        run_sweep = faultsweep.run_sweep
    make_config = config_cls.smoke if args.smoke else config_cls.full
    report = run_sweep(make_config(seed=args.seed))
    if args.out is not None:
        args.out.write_text(render_report(report), encoding="utf-8")
        print(f"wrote {args.out}")
    violations = report["violations"]
    if crash:
        found = (
            f"crash points ({report['recoveries']} recoveries, "
            f"mean recovery {report['mean_recovery_ns']:.0f} simulated ns): "
        )
    else:
        outcomes = ", ".join(
            f"{name}={count}"
            for name, count in sorted(report["outcomes"].items())
        )
        found = (
            f"media-fault points ({outcomes}; mean recovery "
            f"+{report['mean_recovery_extra_ns']:.0f} simulated ns): "
            f"{report['silent_wrong_answers']} silent wrong answer(s), "
        )
    print(
        f"swept {report['points_swept']} {found}"
        f"{len(violations)} violation(s)"
    )
    for violation in violations:
        print(
            f"  [{violation['scenario']}/{violation['kind']} "
            f"@{violation['index']}] {violation['problem']}"
        )
    return 1 if violations else 0


def _cmd_blackbox(args) -> int:
    import json as json_mod

    from repro.nvm.flightrec import blackbox_report, decode_device_image

    decoded = decode_device_image(args.image.read_bytes())
    if decoded is None or not decoded["present"]:
        print(
            f"{args.image}: no flight recorder found (not a pool image, "
            "or one written before the black box landed)",
            file=sys.stderr,
        )
        return 1
    report = blackbox_report(decoded, tail=args.tail)
    if args.json:
        print(json_mod.dumps(report, indent=1, sort_keys=True))
        return 0
    kinds = ", ".join(f"{k}={v}" for k, v in report["by_kind"].items())
    print(
        f"flight recorder: {report['records']} record(s) in "
        f"{report['nslots']} slots ({kinds})"
    )
    last = report["last_completed_phase"] or "(none)"
    in_flight = report["in_flight_phase"] or "(none; no phase was open)"
    print(f"last committed phase: {last}")
    print(f"in flight at crash  : {in_flight}")
    print(f"tail ({len(report['tail'])} record(s), oldest first):")
    for record in report["tail"]:
        detail = json_mod.dumps(
            record["detail"], sort_keys=True, separators=(",", ":")
        )
        mark = "" if record["kind"] == "event" else f" [{record['kind']}]"
        print(
            f"  #{record['seq']:<4d} {record['sim_ns']:>12.1f}ns "
            f"{record['severity']:<7s} {record['type']}{mark} {detail}"
        )
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "stats": _cmd_stats,
    "dataset": _cmd_dataset,
    "ingest": _cmd_ingest,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "search": _cmd_search,
    "query": _cmd_query,
    "reproduce": _cmd_reproduce,
    "crashsweep": _cmd_sweep,
    "faultsweep": _cmd_sweep,
    "blackbox": _cmd_blackbox,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Hand the rest of the command line to nvmlint untouched; argparse
        # REMAINDER cannot forward option tokens like --list-rules.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
