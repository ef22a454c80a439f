"""Streaming scenario: nightly log batches, compressed on arrival.

The distributed-system application of Section III-C, in streaming form
(cf. CompressStreamDB from the paper's related work): batches of log
files arrive over time, each batch is sealed into its own segment
against a shared dictionary, and analytics merge exactly across segments
-- without ever decompressing earlier days.

Run with::

    python examples/log_stream.py
"""

from repro.core.engine import EngineConfig
from repro.datasets.generator import CorpusSpec, generate_corpus_files
from repro.ingest import SegmentedEngine


def nightly_batches(nights=4, files_per_night=6):
    """Synthetic log batches: heavy template reuse, like real service logs."""
    spec = CorpusSpec(
        n_files=nights * files_per_night,
        tokens_per_file=300,
        vocab_size=400,
        phrase_pool=80,
        templates=6,
        template_len=200,
        window=40,
        reuse=0.9,
        noise=0.02,
        seed=77,
    )
    files = generate_corpus_files(spec)
    for night in range(nights):
        yield files[night * files_per_night : (night + 1) * files_per_night]


def main() -> None:
    # Seal once per night, not on a token threshold.
    stream = SegmentedEngine(EngineConfig(), seal_threshold_tokens=1 << 30)
    for night, batch in enumerate(nightly_batches(), start=1):
        for name, text in batch:
            stream.append(name, text)
        segment = stream.seal()
        tokens = sum(len(f) for f in segment.corpus.expand_files())
        print(
            f"night {night}: ingested {segment.n_docs} files "
            f"({tokens} words -> {segment.corpus.grammar_length()} grammar "
            f"symbols)"
        )

        merged = stream.run_tasks(["word_count"])
        counts = merged.rendered["word_count"]
        top = sorted(counts.items(), key=lambda p: -p[1])[:3]
        summary = ", ".join(f"{w}={c}" for w, c in top)
        print(
            f"  running totals over {stream.corpus.n_live} files: {summary}  "
            f"({merged.query_ns / 1e6:.2f} simulated ms across "
            f"{merged.n_segments} segment(s))"
        )

    print("\nmost frequent word pairs across the whole stream:")
    pairs = stream.run_tasks(["sequence_count"]).rendered["sequence_count"]
    for ngram, count in sorted(pairs.items(), key=lambda p: -p[1])[:5]:
        print(f"  {ngram:24s} {count}")


if __name__ == "__main__":
    main()
