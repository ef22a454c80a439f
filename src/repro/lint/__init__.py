"""nvmlint: whole-program NVM access-discipline and persistence linter.

The simulator's core guarantee -- cost accounting that is deterministic
and bit-identical across access paths, and persistence semantics faithful
to the paper's SectionIV-E -- rests on call-site discipline that runtime
tests can only sample.  nvmlint makes the discipline machine-checked on
every commit.  Rules run over a whole-program analysis layer
(:mod:`repro.lint.analysis`): a project symbol table, a conservatively
resolved call graph, per-function effect summaries, and a forward
dataflow/taint engine.

====== =============================================================
Rule   Checks
====== =============================================================
ND001  raw device-buffer access (``peek``/``poke``/``_buf``) outside
       the accounting layer
ND002  unlogged writes inside ``TransactionLog.transaction()``
       blocks, directly or via a callee that writes the device
ND003  nondeterminism in cost-charging paths (unseeded ``random``,
       set iteration)
ND004  struct format/width mismatches between declarations and the
       sizes used at call sites
ND005  ``complete_phase`` without a dominating ``flush()`` anywhere
       on the call path
ND006  marker-named write without a dominating ``flush()`` anywhere
       on the call path
ND007  bulk-kernel cost-charging contract violations
ND008  call chain persisting a marker with no dominating flush
       (interprocedural; evidence names every hop)
ND009  writable pstruct handle escaping its ``transaction()`` scope
       or written after the block commits
ND010  wall-clock/entropy/set-order value *flowing* into a charging
       sink (``advance``/``charge*``/``*_ns``), across calls
ND011  parallel-worker writes outside the owned partition; shared
       mutable aggregation without a post-join merge
ND012  unverified reads (``read_unverified``/``unverified_read``)
       outside ``repro/nvm/``
ND013  segment-extent calls outside the segment layer, or
       ``retire_segment`` outside a ``transaction()`` block
ND014  observability value *flowing* into a charging sink
====== =============================================================

Run it as ``python -m repro.lint src/`` or ``ntadoc lint src/``.
Suppress a deliberate finding with a same-line comment::

    mem.poke(0, b"x")  # nvmlint: disable=ND001 -- debug dump, uncharged

See ``docs/lint.md`` for the analysis architecture and the full rule
reference.
"""

from repro.lint.core import Finding, LintResult, lint_paths
from repro.lint.rules import REGISTRY, all_rule_ids

__all__ = ["Finding", "LintResult", "lint_paths", "REGISTRY", "all_rule_ids"]
