"""Shared vocabularies for the whole-program analyses and the rules.

One definition of "what is a flush", "what writes the device", "what is
an entropy source", and "what is a charging sink", consumed by both the
summary layer (:mod:`repro.lint.analysis.summaries`) and the rules, so a
rule and the interprocedural engine can never disagree about the
semantics of a name.
"""

from __future__ import annotations

import ast

#: SimulatedMemory/pool mutators that bypass the undo log when called
#: directly inside a transaction block (and, summarized transitively,
#: when called via a helper).
WRITE_METHODS = frozenset(
    {
        "write",
        "write_uint",
        "write_array",
        "fill",
        "rmw_add",
        "rmw_add_each",
        "poke",
    }
)

#: Module-level write helpers (repro.pstruct.layout) take the memory as
#: their first argument, so they bypass the log just the same.
WRITE_PREFIX = "write_"

#: Attribute names that constitute a flush barrier on any receiver.
FLUSH_NAMES = frozenset({"flush"})

#: Attribute names that persist a phase-completion marker; a call is a
#: marker event at the *call site* (the callee's own body is the
#: persistence layer's business).
MARKER_CALL_NAMES = frozenset({"complete_phase"})

#: Wall-clock and entropy reads.  These are *taint sources* for ND010:
#: reading them is legitimate (wall time is reported next to simulated
#: time throughout the harness); letting the value flow into a charging
#: sink is the violation.
ENTROPY_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Prefixes treated like :data:`ENTROPY_CALLS` (any function in the
#: module reads entropy).
ENTROPY_PREFIXES = ("secrets.",)

#: Builtins whose result is process-layout dependent.
LAYOUT_CALLS = frozenset({"id"})

#: Qualified-name prefixes of the observability layer: the active
#: recorder slot (:func:`repro.obs.recorder.current`, the one accessor
#: to the tracer, registry and journal), the metrics registry and the
#: event journal.  Values produced by calls into these modules are ND014
#: taint sources -- recording into them is free anywhere, but a value
#: read *back out* (a counter value, a snapshot, a journal length, a
#: span total) must never influence charging: metrics describe the run,
#: they do not participate in it.
METRICS_CALL_PREFIXES = (
    "repro.obs.recorder.",
    "repro.obs.metrics.",
    "repro.obs.events.",
)

#: Builtins that erase *iteration-order* taint (a sorted set is
#: deterministic; a length or an order-insensitive reduction of a set is
#: too).  Entropy taint passes through them untouched.
ORDER_SANITIZERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: Callable names that charge the simulated clock: a tainted argument
#: reaching one of these is the ND010 violation.
SINK_CALL_NAMES = frozenset({"advance"})

#: Substring match for charging helpers (``charge_sequential_io`` etc.).
SINK_CALL_SUBSTRING = "charge"

#: Attribute-store targets that hold simulated nanoseconds: assigning a
#: tainted value to ``clock.ns`` / ``stats.device_ns`` is a sink hit.
SINK_ATTR_NAME = "ns"
SINK_ATTR_SUFFIX = "_ns"

#: Parameter names that mark a function as a partitioned parallel worker
#: and name its ownership domain (ND011).
PARTITION_PARAM_NAMES = frozenset({"partition", "shard", "share"})

#: Container mutators that constitute shared aggregation when invoked on
#: a non-owned shared object inside a worker.
AGGREGATION_METHODS = frozenset(
    {"append", "extend", "add", "update", "insert", "setdefault", "push"}
)

#: Key/offset-addressed mutators (first argument names *where* the write
#: lands): inside a worker these are fine exactly when the address is
#: derived from the partition argument (disjoint ownership).  The raw
#: write methods (:func:`is_write_method`) are checked the same way.
ADDRESSED_MUTATORS = frozenset(
    {"insert", "put", "setdefault", "set_weight", "add_weight", "increment"}
)

#: Un-addressed container mutators: calling one on a shared object from
#: a worker is aggregation into shared mutable state, owned key or not.
SHARED_AGGREGATION = frozenset({"append", "extend", "add", "update", "push"})

#: pstruct constructors producing writable persistent handles (ND009).
WRITABLE_HANDLE_TYPES = frozenset(
    {"PVector", "PHashTable", "PQueue", "PBitmap", "PCounter", "HeadTail"}
)

#: Mutator methods on writable handles (post-commit writes, ND009).
HANDLE_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "insert_many",
        "add",
        "add_many",
        "add_each",
        "set",
        "put",
        "push",
        "push_many",
        "merge_from",
        "increment",
        "set_weight",
        "add_weight",
    }
) | WRITE_METHODS


def is_write_method(name: str) -> bool:
    """Whether an attribute/function name denotes a device write."""
    return name in WRITE_METHODS or name.startswith(WRITE_PREFIX)


def is_entropy_call(qualified: str) -> bool:
    """Whether a fully qualified callable reads wall-clock time/entropy."""
    return qualified in ENTROPY_CALLS or qualified.startswith(ENTROPY_PREFIXES)


def is_metrics_call(qualified: str) -> bool:
    """Whether a fully qualified callable touches observability state."""
    return qualified.startswith(METRICS_CALL_PREFIXES)


def call_name(node: ast.Call) -> str | None:
    """Bare attribute or function name of a call, if syntactically plain."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def is_sink_call_name(name: str) -> bool:
    """Whether a bare callee name charges the simulated clock."""
    return name in SINK_CALL_NAMES or SINK_CALL_SUBSTRING in name


def is_sink_attr(name: str) -> bool:
    """Whether an attribute name stores simulated nanoseconds."""
    return name == SINK_ATTR_NAME or name.endswith(SINK_ATTR_SUFFIX)
