"""Shared-traversal query planner: fuse many tasks into minimal DAG passes.

When several analytics tasks run over one corpus, almost all of their
device traffic is identical: the pool build, the top-down weight
propagation, the bottom-up word-list construction, the root-segment
scan, and the per-rule record reads those sweeps perform.  The planner
exploits the declarations each task makes through
:class:`~repro.analytics.base.TraversalNeeds` to run every shared pass
**once** and dispatch the per-rule / per-segment records to all fused
consumers:

* one **bottom-up** pass in reverse topological order -- word-list
  construction when any task needs word lists, with every bottom-up
  visitor (search/locate marking) riding the same per-rule reads;
* one **top-down** pass -- the global weight propagation followed by a
  single ``weight_and_words`` record read per rule, dispatched to all
  top-down visitors (word count, sort, sequence count);
* one **segment sweep** over the root-body file segments -- shared
  per-file word counts are computed once per file and handed to every
  segment visitor that declared ``file_counts`` (term vector, inverted
  index), while other visitors (search, locate, ranked index) scan the
  same segment list.

Per-task simulated-time attribution: the planner wraps every hook with
clock deltas, so each task accumulates its *exclusive* nanoseconds; the
remainder of the plan's total is the *shared* substrate cost, split
evenly across the plan's tasks.  The attribution is a partition -- the
per-task totals sum exactly to the plan total, which is charged once.

This module is engine-agnostic: :class:`~repro.core.engine.NTadocEngine`
builds the context and phases, then delegates the traversal phase to
:func:`execute_fused`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.traversal import bottomup_rule_sweep
from repro.obs import events as obs_events
from repro.obs import tracer as obs

if TYPE_CHECKING:
    from repro.analytics.base import CompressedTaskContext, FusedTask


@dataclass(frozen=True)
class PlanStats:
    """How much shared work a plan actually performed.

    Attributes:
        n_tasks: Number of tasks in the plan.
        pool_builds: Pruned-DAG pool constructions performed (1 for a
            fused plan, one per task for a sequential baseline plan).
        dag_passes: Full-DAG rule sweeps per traversal direction, e.g.
            ``{"topdown": 1, "bottomup": 1}``.  A fused plan performs at
            most one pass per direction.
        segment_sweeps: Root-segment scans over the corpus's files.
        groups: Task names grouped by the traversal direction they rode.
        fused: True when produced by the fused planner (False for the
            sequential fallback used by baselines).
        corpus_segments: Sealed corpus segments the plan ran over (1 for
            a monolithic corpus; the segmented-ingest layer sums its
            per-segment sub-plans here).
    """

    n_tasks: int
    pool_builds: int
    dag_passes: dict[str, int] = field(default_factory=dict)
    segment_sweeps: int = 0
    groups: dict[str, list[str]] = field(default_factory=dict)
    fused: bool = True
    corpus_segments: int = 1


@dataclass
class PlanResult:
    """Outcome of one multi-task plan execution.

    ``results`` holds one extended ``RunResult`` per task, in the order
    the tasks were submitted; ``total_ns`` is the plan's single charged
    simulated time (the per-task ``total_ns`` attributions sum to it).
    """

    results: list[Any]
    stats: PlanStats
    phase_ns: dict[str, float]
    total_ns: float
    #: ``TaskFailure`` reports for tasks a *resilient* plan could not
    #: complete after media recovery (always empty for normal plans);
    #: ``results`` then holds only the tasks that did finish.
    failures: list[Any] = field(default_factory=list)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]

    def by_task(self, name: str) -> Any:
        """The first per-task result whose task name matches ``name``.

        Raises:
            KeyError: when no task of that name is in the plan.
        """
        for run in self.results:
            if run.task == name:
                return run
        raise KeyError(name)


@dataclass
class FusedOutcome:
    """What :func:`execute_fused` hands back to the engine."""

    #: Raw task results, in submission order.
    results: list[Any]
    #: Full-DAG rule sweeps performed, per direction.
    dag_passes: dict[str, int]
    #: Root-segment scans performed (0 or 1).
    segment_sweeps: int


def plan_groups(fused: list["FusedTask"]) -> dict[str, list[str]]:
    """Task names grouped by declared traversal direction."""
    groups: dict[str, list[str]] = {}
    for f in fused:
        groups.setdefault(f.needs.direction, []).append(f.task.name)
    return groups


def execute_fused(
    ctx: "CompressedTaskContext", fused: list["FusedTask"]
) -> FusedOutcome:
    """Run every fused task's traversal work with minimal shared passes.

    Dispatch order within a pass follows submission order, and the pass
    order is bottom-up, top-down, segments, opaque fallbacks, finish --
    chosen so every intermediate a later stage consumes (word lists for
    segment merging, weights for finishers) exists by the time it runs.

    Each hook invocation is bracketed with clock readings; the elapsed
    simulated time lands in that task's ``exclusive_ns``.
    """
    from repro.analytics.perfile import segment_word_counts

    clock = ctx.clock
    dag_passes = {"topdown": 0, "bottomup": 0}
    segment_sweeps = 0

    # --- replan: direction-flexible tasks ride the word-list pass ------
    # When other tasks already force a bottom-up word-list pass (and the
    # user did not pin the top-down strategy), swap every bundle offering
    # a word-list alternate for that alternate -- the plan may drop its
    # top-down pass entirely.
    wordlist_pass_scheduled = any(f.needs.wordlists for f in fused) or (
        any(f.needs.file_counts for f in fused) and ctx.strategy == "bottomup"
    )
    if wordlist_pass_scheduled and not (
        ctx.strategy_forced and ctx.strategy == "topdown"
    ):
        swapped = []
        for index, f in enumerate(fused):
            if f.wordlist_alternate is not None:
                alternate = f.wordlist_alternate()
                alternate.init_ns = f.init_ns
                fused[index] = alternate
                swapped.append(alternate.task.name)
        if swapped:
            obs_events.emit("plan_replanned", tasks=swapped, rode="bottomup")
    obs_events.emit(
        "plan_fused",
        tasks=[f.task.name for f in fused],
        groups={k: len(v) for k, v in plan_groups(fused).items()},
    )

    topdown = [f for f in fused if f.visit_rule is not None]
    bottomup = [f for f in fused if f.visit_rule_bottomup is not None]
    segmenters = [f for f in fused if f.visit_segment is not None]
    need_weights = bool(topdown) or any(f.needs.weights for f in fused)
    need_wordlists = any(f.needs.wordlists for f in fused)
    need_counts = any(f.needs.file_counts for f in fused)

    # Per-file counts follow the engine's strategy rule (Section VI-E),
    # the same one every plan -- a solo run is a plan of one -- reads.
    if need_counts and ctx.strategy == "bottomup":
        need_wordlists = True

    def timed(f: "FusedTask", hook, label: str):
        op_name = f"task:{f.task.name}:{label}"

        def call(*args) -> None:
            start = clock.ns
            hook(*args)
            delta = clock.ns - start
            f.exclusive_ns += delta
            obs.op(op_name, delta)

        return call

    # --- bottom-up pass: word lists + bottom-up visitors, one sweep ----
    visitors = tuple(
        timed(f, f.visit_rule_bottomup, "visit_bottomup") for f in bottomup
    )
    if need_wordlists:
        dag_passes["bottomup"] += 1
        with obs.span(
            "plan:bottomup_pass",
            category="plan",
            wordlists=True,
            visitors=len(visitors),
        ):
            ctx.build_wordlists(visitors)
    elif visitors:
        dag_passes["bottomup"] += 1
        with obs.span(
            "plan:bottomup_pass",
            category="plan",
            wordlists=False,
            visitors=len(visitors),
        ):
            bottomup_rule_sweep(
                ctx.pruned, ctx.reverse_topo, visitors, ctx.op_commit
            )

    # --- top-down pass: weight propagation + one record read per rule --
    if need_weights or topdown:
        with obs.span(
            "plan:topdown_pass", category="plan", visitors=len(topdown)
        ):
            if need_weights:
                dag_passes["topdown"] += 1
                ctx.ensure_weights()
            if topdown:
                callbacks = [
                    (f, timed(f, f.visit_rule, "visit_topdown"))
                    for f in topdown
                ]
                for rule in range(ctx.pruned.n_rules):
                    weight, words = ctx.pruned.weight_and_words(rule)
                    for _f, call in callbacks:
                        call(rule, weight, words)

    # --- segment sweep: shared per-file counts + segment visitors ------
    if segmenters or need_counts:
        segment_sweeps = 1
        with obs.span("plan:segment_sweep", category="plan") as sweep_span:
            callbacks = [
                (f, timed(f, f.visit_segment, "visit_segment"))
                for f in segmenters
            ]
            shared_counts: list[dict[int, int]] = []
            segments = ctx.root_segments()
            if sweep_span is not None:
                sweep_span.attrs["files"] = len(segments)
            for file_index, segment in enumerate(segments):
                counts = None
                if need_counts:
                    counts = segment_word_counts(ctx, segment)
                    ctx.ledger.charge("dram", "file_counts", len(counts) * 16)
                    shared_counts.append(counts)
                for f, call in callbacks:
                    if f.needs.file_counts:
                        call(file_index, segment, counts)
                    else:
                        call(file_index, segment, None)
                ctx.op_commit()
            for counts in shared_counts:
                ctx.ledger.release("dram", "file_counts", len(counts) * 16)

    # --- opaque fallbacks, then finishers, in submission order ---------
    results: list[Any] = []
    for f in fused:
        label = "finish" if f.finish is not None else "run"
        with obs.span(f"task:{f.task.name}:{label}", category="task"):
            start = clock.ns
            if f.finish is not None:
                result = f.finish()
            else:
                result = f.run()
            f.exclusive_ns += clock.ns - start
        results.append(result)

    return FusedOutcome(
        results=results, dag_passes=dag_passes, segment_sweeps=segment_sweeps
    )


def sequential_plan_stats(n_tasks: int) -> PlanStats:
    """Stats stub for engines that execute plans task-by-task."""
    return PlanStats(
        n_tasks=n_tasks,
        pool_builds=n_tasks,
        dag_passes={},
        segment_sweeps=0,
        groups={},
        fused=False,
    )


def merge_sequential_results(results: list[Any]) -> tuple[dict[str, float], float]:
    """Summed phase times and total for a task-by-task plan."""
    phase_ns: dict[str, float] = {}
    total = 0.0
    for run in results:
        for phase, ns in run.phase_ns.items():
            phase_ns[phase] = phase_ns.get(phase, 0.0) + ns
        total += run.total_ns
    return phase_ns, total
