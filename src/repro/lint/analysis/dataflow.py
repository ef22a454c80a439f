"""A small forward dataflow/taint engine over one function body.

The engine tracks *labels* -- provenance facts -- attached to local
names, and propagates them through assignments, control flow, and calls:

* ``entropy`` labels mark values derived from wall-clock/entropy reads
  (``time.perf_counter()``, ``os.urandom()``, ``id()``);
* ``order``   labels mark values whose content depends on set iteration
  order (salted per process);
* ``metrics`` labels mark values read out of the observability layer
  (the metrics registry / event journal -- ND014's source set);
* ``param``   labels mark values derived from a function parameter --
  the cross-function plumbing for summaries;
* ``owned``   labels mark values derived from a parallel worker's
  partition argument (ND011's ownership domain).

Propagation is union-only (a name once tainted stays tainted -- the
conservative direction for a linter) and runs the statement list to a
fixpoint, so taint flows around loops.  Calls consult the project taint
summaries: a resolved callee's summary maps argument taint to return
taint and records parameters that reach charging sinks, which is what
makes the analysis interprocedural.

Sink hits are recorded as they are discovered: a call argument reaching
``advance``/``charge*`` or a store into a ``*_ns`` attribute.  Each hit
carries the label whose provenance chain names the cross-function hops.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.lint.analysis import spec
from repro.lint.analysis.callgraph import CallSite
from repro.lint.analysis.symbols import FunctionInfo
from repro.lint.rules.common import dotted_name, is_set_expr

#: Provenance chains are capped so cyclic call graphs cannot grow them
#: forever (and so messages stay readable).
MAX_CHAIN = 4

#: Statement-list fixpoint bound; union-only transfer converges fast.
MAX_PASSES = 6


@dataclass(frozen=True)
class Label:
    """One provenance fact attached to a value."""

    kind: str  # "entropy" | "order" | "metrics" | "param" | "owned"
    desc: str  # source description ("time.perf_counter()", param name)
    origin: str  # "path:line" for sources, param index for params
    chain: tuple[str, ...] = ()

    def extended(self, hop: str) -> "Label":
        if len(self.chain) >= MAX_CHAIN:
            return self
        return Label(self.kind, self.desc, self.origin, self.chain + (hop,))


@dataclass(frozen=True)
class SinkHit:
    """A labelled value reaching a charging sink."""

    line: int
    col: int
    sink: str  # e.g. "advance()" or "attribute 'device_ns'"
    label: Label


@dataclass
class TaintSummary:
    """What a function does with taint, from its caller's point of view."""

    returns: frozenset[Label] = frozenset()
    #: parameter index -> the sink its value reaches inside the callee
    param_sinks: dict[int, SinkHit] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TaintSummary)
            and self.returns == other.returns
            and self.param_sinks == other.param_sinks
        )


EMPTY = frozenset()


class TaintAnalysis:
    """Run the engine over one function; query labels afterwards."""

    def __init__(
        self,
        info: FunctionInfo,
        sites: Iterable[CallSite],
        summary_of: Callable[[str], TaintSummary | None],
        seeds: dict[str, frozenset[Label]],
        lookup_info: Callable[[str], FunctionInfo | None] | None = None,
    ) -> None:
        self.info = info
        self.module = info.module
        self.sites_by_node: dict[int, CallSite] = {
            id(s.node): s for s in sites
        }
        self.summary_of = summary_of
        self.lookup_info = lookup_info or (lambda q: None)
        self.env: dict[str, frozenset[Label]] = dict(seeds)
        self._hits: dict[tuple, SinkHit] = {}
        self.return_labels: frozenset[Label] = EMPTY

    # -- public API ----------------------------------------------------

    def run(self) -> "TaintAnalysis":
        for _ in range(MAX_PASSES):
            before = (dict(self.env), len(self._hits), self.return_labels)
            for stmt in self.info.node.body:
                self._stmt(stmt)
            if (dict(self.env), len(self._hits), self.return_labels) == before:
                break
        return self

    @property
    def sink_hits(self) -> list[SinkHit]:
        return [self._hits[k] for k in sorted(self._hits)]

    def labels_of(self, node: ast.expr | None) -> frozenset[Label]:
        """Labels carried by an expression under the converged env."""
        if node is None:
            return EMPTY
        return self._expr(node)

    # -- statements ----------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, ast.AugAssign):
            labels = self._expr(stmt.value)
            self._bind(stmt.target, labels, augment=True)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._expr(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_labels = self.return_labels | self._expr(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            labels = self._iter_labels(stmt.iter)
            self._bind(stmt.target, labels)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            for sub in stmt.orelse + stmt.finalbody:
                self._stmt(sub)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are their own symbols
        elif isinstance(stmt, ast.Assert):
            self._expr(stmt.test)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._expr(stmt.exc)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
                elif isinstance(child, ast.stmt):
                    self._stmt(child)

    def _bind(
        self, target: ast.expr, labels: frozenset[Label], augment: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            merged = labels | self.env.get(target.id, EMPTY)
            self.env[target.id] = merged
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, labels, augment)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels, augment)
        elif isinstance(target, ast.Attribute):
            if labels and spec.is_sink_attr(target.attr):
                for label in labels:
                    self._record_hit(
                        target.lineno,
                        target.col_offset + 1,
                        f"attribute '{target.attr}'",
                        label,
                    )
        elif isinstance(target, ast.Subscript):
            self._expr(target.value)

    # -- expressions ---------------------------------------------------

    def _expr(self, node: ast.expr) -> frozenset[Label]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            return self._expr(node.value)
        if isinstance(node, ast.Subscript):
            return self._expr(node.value) | self._expr(node.slice)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            labels: set[Label] = set()
            for gen in node.generators:
                gen_labels = self._iter_labels(gen.iter)
                self._bind(gen.target, gen_labels)
                labels |= gen_labels
            if isinstance(node, ast.DictComp):
                labels |= self._expr(node.key) | self._expr(node.value)
            else:
                labels |= self._expr(node.elt)
            return frozenset(labels)
        if isinstance(node, ast.Lambda):
            return EMPTY
        # Generic union over child expressions (BinOp, BoolOp, Compare,
        # IfExp, f-strings, containers, ...).
        labels = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                labels |= self._expr(child)
        return frozenset(labels)

    def _iter_labels(self, iter_expr: ast.expr) -> frozenset[Label]:
        """Labels of a loop/comprehension iterable, plus an ``order``
        label when the iterable is provably a set."""
        labels = self._expr(iter_expr)
        if self._is_set_valued(iter_expr):
            labels = labels | frozenset(
                {
                    Label(
                        "order",
                        "set iteration order",
                        f"{self.module.rel}:{iter_expr.lineno}",
                    )
                }
            )
        return labels

    def _is_set_valued(self, node: ast.expr) -> bool:
        if is_set_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in self.info.set_locals

    # -- calls ---------------------------------------------------------

    def _call(self, call: ast.Call) -> frozenset[Label]:
        arg_labels = [self._expr(a) for a in call.args]
        kw_labels = {
            k.arg: self._expr(k.value) for k in call.keywords if k.arg
        }
        star_kw = [
            self._expr(k.value) for k in call.keywords if k.arg is None
        ]
        site = self.sites_by_node.get(id(call))
        name = site.name if site else spec.call_name(call)

        out: set[Label] = set()
        qualified = dotted_name(call.func, self.module.import_table)
        if qualified is not None and spec.is_entropy_call(qualified):
            out.add(self._source_label("entropy", f"{qualified}()", call))
        elif qualified in spec.LAYOUT_CALLS:
            out.add(self._source_label("entropy", f"{qualified}()", call))
        elif qualified is not None and spec.is_metrics_call(qualified):
            out.add(self._source_label("metrics", f"{qualified}()", call))

        summary = None
        callee_info = None
        if site is not None and site.callee is not None:
            summary = self.summary_of(site.callee)
            callee_info = self.lookup_info(site.callee)

        everything = frozenset().union(
            EMPTY, *arg_labels, *kw_labels.values(), *star_kw
        )
        if summary is not None:
            offset = self._param_offset(call, callee_info)
            hop = f"via {name}() ({site.callee})" if name else f"via {site.callee}"
            for label in summary.returns:
                if label.kind == "param":
                    mapped = self._labels_for_param(
                        label, call, arg_labels, kw_labels, offset, callee_info
                    )
                    out |= mapped
                else:
                    out.add(label.extended(hop))
            for index, hit in sorted(summary.param_sinks.items()):
                for label in self._labels_at_param(
                    index, call, arg_labels, kw_labels, offset, callee_info
                ):
                    self._record_hit(
                        call.lineno,
                        call.col_offset + 1,
                        f"{name}() -> {hit.sink}",
                        label.extended(hop),
                    )
        else:
            passthrough = everything
            if (
                isinstance(call.func, ast.Name)
                and call.func.id in spec.ORDER_SANITIZERS
            ):
                passthrough = frozenset(
                    lb for lb in passthrough if lb.kind != "order"
                )
            out |= passthrough
            if isinstance(call.func, ast.Attribute):
                out |= self._expr(call.func.value)

        if name is not None and spec.is_sink_call_name(name):
            for label in everything:
                self._record_hit(
                    call.lineno, call.col_offset + 1, f"{name}()", label
                )
        return frozenset(out)

    @staticmethod
    def _param_offset(call: ast.Call, callee_info: FunctionInfo | None) -> int:
        """Positional shift between call args and callee params (self)."""
        if callee_info is None:
            return 0
        if callee_info.cls is not None and isinstance(call.func, ast.Attribute):
            return 1
        return 0

    def _labels_at_param(
        self,
        index: int,
        call: ast.Call,
        arg_labels: list[frozenset[Label]],
        kw_labels: dict[str, frozenset[Label]],
        offset: int,
        callee_info: FunctionInfo | None,
    ) -> frozenset[Label]:
        """Labels the caller passes into callee parameter ``index``."""
        pos = index - offset
        if 0 <= pos < len(arg_labels):
            return arg_labels[pos]
        if callee_info is not None and 0 <= index < len(callee_info.params):
            pname = callee_info.params[index]
            if pname in kw_labels:
                return kw_labels[pname]
        return EMPTY

    def _labels_for_param(
        self,
        label: Label,
        call: ast.Call,
        arg_labels: list[frozenset[Label]],
        kw_labels: dict[str, frozenset[Label]],
        offset: int,
        callee_info: FunctionInfo | None,
    ) -> frozenset[Label]:
        try:
            index = int(label.origin)
        except ValueError:
            return EMPTY
        return self._labels_at_param(
            index, call, arg_labels, kw_labels, offset, callee_info
        )

    # -- bookkeeping ---------------------------------------------------

    def _source_label(self, kind: str, desc: str, node: ast.AST) -> Label:
        return Label(kind, desc, f"{self.module.rel}:{node.lineno}")

    def _record_hit(self, line: int, col: int, sink: str, label: Label) -> None:
        key = (line, col, sink, label.kind, label.desc, label.origin, label.chain)
        if key not in self._hits:
            self._hits[key] = SinkHit(line=line, col=col, sink=sink, label=label)


def param_seeds(info: FunctionInfo) -> dict[str, frozenset[Label]]:
    """Seed env labelling each parameter with its own identity."""
    return {
        name: frozenset({Label("param", name, str(index))})
        for index, name in enumerate(info.params)
    }
