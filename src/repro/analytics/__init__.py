"""The six text-analytics tasks of the paper's benchmark suite (Section VI-A).

Each task implements three entry points:

* ``fuse`` -- the N-TADOC path over a pruned DAG pool, as the needs and
  visit hooks the planner runs (a solo run is a plan of one);
* ``run_uncompressed`` -- the baseline scan over dictionary-encoded
  tokens resident on a (simulated) device;
* ``reference`` -- a pure-Python oracle used by the test suite to verify
  that both system paths produce identical results.
"""

from repro.analytics.base import (
    AnalyticsTask,
    CompressedTaskContext,
    FusedTask,
    TraversalNeeds,
    UncompressedTaskContext,
)
from repro.analytics.inverted_index import InvertedIndex
from repro.analytics.locate import WordLocate
from repro.analytics.ranked_inverted_index import RankedInvertedIndex
from repro.analytics.search import WordSearch
from repro.analytics.sequence_count import SequenceCount
from repro.analytics.sort_task import Sort
from repro.analytics.term_vector import TermVector
from repro.analytics.word_count import WordCount

ALL_TASKS = (
    WordCount,
    Sort,
    TermVector,
    InvertedIndex,
    SequenceCount,
    RankedInvertedIndex,
)


def task_by_name(name: str) -> AnalyticsTask:
    """Instantiate a task from its benchmark name.

    Raises:
        KeyError: for unknown task names.
    """
    by_name = {cls.name: cls for cls in ALL_TASKS}
    return by_name[name]()


__all__ = [
    "ALL_TASKS",
    "AnalyticsTask",
    "CompressedTaskContext",
    "FusedTask",
    "InvertedIndex",
    "RankedInvertedIndex",
    "SequenceCount",
    "Sort",
    "TermVector",
    "TraversalNeeds",
    "UncompressedTaskContext",
    "WordCount",
    "WordLocate",
    "WordSearch",
    "task_by_name",
]
