"""Merge per-segment analytics results and render them canonically.

Segments share one stream-wide dictionary, so per-segment results merge
in **word-id space**: counts sum, and postings union with file-index
rebasing.  Tombstones are realized here: a deleted doc's contribution is
filtered out of postings/vectors or recomputed-and-subtracted from
corpus-global counts.

The differential invariant compares against ``recompress(final live
corpus)``, which uses a *fresh* dictionary -- its word ids and n-gram
keys differ.  So the comparison happens in **rendered space**: word ids
become word strings, file indices become document names, packed n-gram
keys become space-joined word strings.  :func:`render_result` produces
the same canonical JSON-safe shape from either side, and
:func:`canonical_json` serializes it for equality checks.

Canonical shapes (JSON-safe):

========================  ==============================================
word_count                ``{word: count}``
sort                      ``[[word, count], ...]`` ascending by word
term_vector               ``{doc: [[word, count], ...]}`` count desc,
                          word asc
inverted_index            ``{word: [doc, ...]}`` global doc order
sequence_count            ``{"w1 w2": count}``
ranked_inverted_index     ``{"w1 w2": [[doc, count], ...]}`` count desc,
                          global doc order
========================  ==============================================
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.core.engine import EngineConfig, NTadocEngine
from repro.core.ngrams import pack_ngram
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.ingest.segments import SealedSegment

#: Tasks with a merge rule; identical to the engine's task roster.
MERGEABLE_TASKS = (
    "word_count",
    "sort",
    "term_vector",
    "inverted_index",
    "sequence_count",
    "ranked_inverted_index",
)

_COUNT_TASKS = ("word_count", "sequence_count")
_POSTING_TASKS = ("inverted_index", "ranked_inverted_index")


def canonical_json(obj: Any) -> str:
    """Serialize a rendered result for differential comparison."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _charge(clock, ops: int) -> None:
    if clock is not None and ops > 0:
        clock.cpu(ops)


def _segment_removals(
    segment: "SealedSegment", task_name: str, ngram_n: int, clock=None
) -> dict[int, int]:
    """Counts contributed by this segment's tombstoned docs.

    Corpus-global count tasks cannot filter by file index (the counts
    are already aggregated), so the deleted docs' own counts are
    recomputed from the segment grammar and subtracted.  Windows never
    span documents, so the per-doc recount is exact.
    """
    removals: dict[int, int] = {}
    if not segment.tombstones:
        return removals
    token_files = segment.corpus.expand_files()
    for local in sorted(segment.tombstones):
        tokens = token_files[local]
        _charge(clock, len(tokens))
        if task_name == "sequence_count":
            for i in range(len(tokens) - ngram_n + 1):
                key = pack_ngram(tuple(tokens[i : i + ngram_n]))
                removals[key] = removals.get(key, 0) + 1
        else:
            for token in tokens:
                removals[token] = removals.get(token, 0) + 1
    return removals


def merge_segment_results(
    task_name: str,
    parts: list[tuple["SealedSegment", Any]],
    config: EngineConfig | None = None,
    clock=None,
) -> Any:
    """Merge per-segment results into one id-space result over live docs.

    Args:
        task_name: One of :data:`MERGEABLE_TASKS`.
        parts: ``(segment, per_segment_result)`` pairs in segment order.
        config: Engine config (``ngram_n`` drives sequence removals).
        clock: Optional :class:`~repro.nvm.memory.SimClock`; merge work
            is charged as CPU ops so incremental queries pay for their
            merge step.

    File indices in the merged result are **global live indices**: the
    doc's position among all live docs in global order, i.e. exactly its
    file index in ``recompress(final live corpus)``.

    Raises:
        ReproError: for a task with no merge rule.
    """
    config = config or EngineConfig()

    if task_name in _COUNT_TASKS:
        totals: dict[int, int] = {}
        for segment, result in parts:
            _charge(clock, len(result))
            for key, count in result.items():
                totals[key] = totals.get(key, 0) + count
            removals = _segment_removals(
                segment, task_name, config.ngram_n, clock
            )
            for key, removed in removals.items():
                totals[key] -= removed
        return {k: v for k, v in totals.items() if v > 0}

    if task_name == "sort":
        totals = {}
        for segment, result in parts:
            _charge(clock, len(result))
            for word, count in result:
                totals[word] = totals.get(word, 0) + count
            removals = _segment_removals(segment, "word_count", 1, clock)
            for key, removed in removals.items():
                totals[key] -= removed
        # Id-space order is arbitrary here; render sorts by word string.
        return [(w, c) for w, c in totals.items() if c > 0]

    if task_name == "term_vector":
        vectors: list[list[tuple[int, int]]] = []
        for segment, result in parts:
            _charge(clock, len(result))
            vectors.extend(result[local] for local in segment.live_locals)
        return vectors

    if task_name in _POSTING_TASKS:
        ranked = task_name == "ranked_inverted_index"
        merged: dict[int, list] = {}
        base = 0
        for segment, result in parts:
            live_pos = {
                local: base + i for i, local in enumerate(segment.live_locals)
            }
            for key, posting in result.items():
                _charge(clock, len(posting))
                target = merged.setdefault(key, [])
                if ranked:
                    target.extend(
                        (live_pos[f], c) for f, c in posting if f in live_pos
                    )
                else:
                    target.extend(
                        live_pos[f] for f in posting if f in live_pos
                    )
            base += segment.n_live
        return {k: v for k, v in merged.items() if v}

    raise ReproError(f"no merge rule for task {task_name!r}")


def render_result(
    task_name: str,
    result: Any,
    vocab: list[str],
    doc_names: list[str],
    ngram_names: dict[int, tuple[int, ...]] | None = None,
) -> Any:
    """Render an id-space result into the canonical JSON-safe shape.

    Works for both sides of the differential: pass the shared-dictionary
    vocab + global live doc names for a merged result, or the corpus's
    own ``vocab``/``file_names`` + the run's ``ngram_names`` for a
    monolithic engine result.  Posting lists are (re-)sorted here so tie
    order is canonical regardless of which side produced them.

    Raises:
        ReproError: for an unknown task.
    """
    if task_name == "word_count":
        return {vocab[w]: c for w, c in result.items()}
    if task_name == "sort":
        items = result.items() if isinstance(result, dict) else result
        return sorted([[vocab[w], c] for w, c in items], key=lambda p: p[0])
    if task_name == "term_vector":
        return {
            doc_names[i]: [[vocab[w], c] for w, c in vector]
            for i, vector in enumerate(result)
        }
    if task_name == "inverted_index":
        return {
            vocab[w]: [doc_names[f] for f in sorted(posting)]
            for w, posting in result.items()
        }
    if ngram_names is None:
        raise ReproError(f"task {task_name!r} needs ngram_names to render")

    def gram(key: int) -> str:
        return " ".join(vocab[w] for w in ngram_names[key])

    if task_name == "sequence_count":
        return {gram(key): count for key, count in result.items()}
    if task_name == "ranked_inverted_index":
        return {
            gram(key): [
                [doc_names[f], c]
                for f, c in sorted(posting, key=lambda p: (-p[1], p[0]))
            ]
            for key, posting in result.items()
        }
    raise ReproError(f"no render rule for task {task_name!r}")


def reference_rendered(
    task_name: str, corpus, config: EngineConfig | None = None
) -> Any:
    """Canonical rendered result of ``task_name`` over a single corpus.

    This is the right-hand side of the differential invariant: run the
    plain N-TADOC engine over ``recompress(final live corpus)`` and
    render in the corpus's own id space.
    """
    from repro.analytics import task_by_name

    config = config or EngineConfig()
    engine = NTadocEngine(corpus, config)
    run = engine.run(task_by_name(task_name))
    return render_result(
        task_name, run.result, corpus.vocab, corpus.file_names, run.ngram_names
    )
