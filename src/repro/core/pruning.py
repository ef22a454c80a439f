"""Pruning method with NVM pool management (Section IV-B, Algorithm 1).

Two observations drive the design: rule bodies contain duplicate subrule
references, and their internal order is irrelevant for bag-of-words
analytics.  Pruning therefore rewrites each rule as two frequency lists
-- ``(subrule, freq)`` pairs first, then ``(word, freq)`` pairs -- and
writes them *consecutively* into a DAG pool on NVM, with rule metadata in
a separate fixed-stride table.  Both choices exist to keep DAG traversal
on 256-byte Optane lines cache-friendly.

On-device layout::

    region "dag_info"  : u32 n_rules | u32 n_files | u32 headtail_k
                         | u32 flags | u64 raw_root_offset ...
    region "meta"      : n_rules fixed records (48 B each)::
        u64 entry_offset   -- position of pruned entries in "dag"
        u64 raw_offset     -- position of the ordered body in "raw"
        u32 n_subrules | u32 n_words | u32 raw_len
        u32 in_degree  | u32 out_degree | u32 bound
        u64 weight         -- mutable, updated during traversal
    region "dag"       : per rule, adjacently:
                         n_subrules * (u32 id, u32 freq)
                         n_words    * (u32 id, u32 freq)
    region "raw"       : per rule, the ordered body (u32 symbols),
                         kept for sequence analytics (head/tail walks)
    region "headtail"  : optional HeadTailStore records

The ordered bodies are retained because pruning alone discards sequence
information; the paper keeps sequence tasks correct via the head/tail
preprocessing (Section IV-B last paragraph), which walks ordered bodies.

A build first lays these bytes out offset-free in a :class:`PoolImage`,
then :meth:`PrunedDag.install` places them; the engine keeps a corpus's
image from its second build on (docs/cost_model.md, "The pool image").
"""

from __future__ import annotations

import struct
from array import array
from itertools import chain

from repro.core.dag import Dag, PrunedRule, prune_rule
from repro.core.grammar import CompressedCorpus
from repro.kernels import dagops
from repro.kernels.core import pack_values, typed_array
from repro.nvm.pool import NvmPool
from repro.pstruct import layout
from repro.pstruct.headtail import HeadTailStore

__all__ = [
    "META_RECORD_SIZE",
    "PoolImage",
    "PrunedDag",
    "PrunedRule",
    "prune_corpus",
    "prune_rule",
    "redundancy_savings",
]

_INFO = struct.Struct("<IIII")
_FLAG_INDEXED = 1
_META = struct.Struct("<QQIIIIIIQ")
META_RECORD_SIZE = _META.size  # 48
#: u64 words per metadata record; the entry and raw offsets are words 0, 1.
_META_WORDS = META_RECORD_SIZE // 8

_INFO_REGION = "dag_info"
_META_REGION = "meta"
_DAG_REGION = "dag"
_RAW_REGION = "raw"
_HEADTAIL_REGION = "headtail"


def redundancy_savings(corpus: CompressedCorpus) -> float:
    """Corpus-wide fraction of grammar entries eliminated by pruning.

    The paper reports this eliminates "at most 50.2% of the grammar
    redundancy on NVM".
    """
    raw_total = corpus.grammar_length()
    if raw_total == 0:
        return 0.0
    dag = Dag(corpus)
    pruned_total = sum(map(len, dag.subrules)) + sum(map(len, dag.words))
    return 1.0 - pruned_total / raw_total


class PoolImage:
    """The bytes :meth:`PrunedDag.install` writes for one corpus, offset-free.

    Holds the packed ``dag`` and ``raw`` region bytes, the metadata
    records with their entry and raw offsets relative to those regions,
    the head/tail record bytes, and, per rule, the :class:`Dag`'s pair
    tuples (the row templates of the host decode cache, shared with the
    DAG view, not copied).  Nothing in it depends on where a pool places
    the regions, so one image serves every build of a corpus: phase- and
    operation-level runs alike.  It decides where the bytes come from,
    never which charged calls a build issues.
    """

    def __init__(
        self,
        corpus: CompressedCorpus,
        dag: Dag,
        bounds: list[int] | None = None,
        headtail_k: int = 0,
        heads: list[list[int]] | None = None,
        tails: list[list[int]] | None = None,
    ) -> None:
        if headtail_k and (heads is None or tails is None):
            raise ValueError("headtail_k set but heads/tails missing")
        self.n_rules = corpus.n_rules
        self.n_files = corpus.n_files
        self.headtail_k = headtail_k
        self.subrules = dag.subrules
        self.words = dag.words
        pack = _META.pack
        flat: list[int] = []
        records = []
        entry_top = raw_top = 0
        for rule, body in enumerate(corpus.rules):
            subs = dag.subrules[rule]
            words = dag.words[rule]
            flat.extend(chain.from_iterable(subs))
            flat.extend(chain.from_iterable(words))
            records.append(
                pack(
                    entry_top,
                    raw_top,
                    len(subs),
                    len(words),
                    len(body),
                    dag.in_degree[rule],
                    dag.out_degree[rule],
                    bounds[rule] if bounds is not None else 0,
                    0,  # weight
                )
            )
            entry_top += (len(subs) + len(words)) * 8
            raw_top += len(body) * 4
        self.entries = pack_values(flat, 4)
        self.raw = pack_values(chain.from_iterable(corpus.rules), 4)
        self.meta = b"".join(records)
        self.headtail = (
            HeadTailStore.encode(heads, tails, headtail_k) if headtail_k else b""
        )

    def rebase(self, meta_off: int, dag_off: int, raw_off: int) -> tuple[bytes, list]:
        """The metadata region's bytes, and the host decode cache's rows,
        for regions placed at these offsets."""
        cols = typed_array(self.meta, 8)
        for col, base in ((0, dag_off), (1, raw_off)):
            cols[col::_META_WORDS] = array(
                cols.typecode, [base + off for off in cols[col::_META_WORDS]]
            )
        meta = pack_values(cols, 8)
        rows = [
            (record_off, fields[0], subs, words, fields[:-1])  # weight dropped
            for record_off, fields, subs, words in zip(
                range(meta_off, meta_off + len(meta), META_RECORD_SIZE),
                _META.iter_unpack(meta),
                self.subrules,
                self.words,
            )
        ]
        return meta, rows


class PrunedDag:
    """Device-resident pruned DAG: the N-TADOC working representation."""

    def __init__(self, pool: NvmPool) -> None:
        self.pool = pool
        self._mem = pool.memory
        info_off, _ = pool.get_region(_INFO_REGION)
        n_rules, n_files, headtail_k, flags = _INFO.unpack(
            self._mem.read(info_off, _INFO.size)
        )
        self.n_rules = n_rules
        self.n_files = n_files
        self.headtail_k = headtail_k
        self.indexed_layout = bool(flags & _FLAG_INDEXED)
        self._meta_off, _ = pool.get_region(_META_REGION)
        #: Host decode cache of the packed layout: per rule
        #: ``(record_off, entry_off, subrules, words, fields)``, or
        #: ``None`` until decoded; see :meth:`_row`.
        self._rows: list = []
        #: Decoded ordered bodies, by rule (filled on first use).
        self._bodies: dict[int, tuple[int, ...]] = {}
        #: Per rule, :func:`repro.kernels.dagops.walk_entry` of its row,
        #: or ``None`` until a sweep or a warm walk needs it.
        self._walk: list = []
        #: Sweeps run under the current epoch, and the
        #: :func:`repro.kernels.dagops.sweep_summary` built at the second.
        self._sweeps = 0
        self._summary: tuple | None = None
        #: ``mem.image_epoch`` the cache is current for; -1 until
        #: :meth:`_revalidate` (never, for the indexed layout).
        self._epoch = -1
        self.headtail: HeadTailStore | None = None
        if headtail_k and pool.has_region(_HEADTAIL_REGION):
            ht_off, _ = pool.get_region(_HEADTAIL_REGION)
            self.headtail = HeadTailStore.attach(
                pool.allocator, ht_off, n_rules, headtail_k
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        pool: NvmPool,
        corpus: CompressedCorpus,
        dag: Dag,
        bounds: list[int] | None = None,
        headtail_k: int = 0,
        heads: list[list[int]] | None = None,
        tails: list[list[int]] | None = None,
        per_rule: bool = False,
        on_rule=None,
    ) -> "PrunedDag":
        """Prune every rule into the pool (Algorithm 1 applied corpus-wide).

        Args:
            pool: Destination pool (usually on the NVM device).
            corpus: The compressed corpus.
            dag: Its DAG view (pair lists, in/out degrees).
            bounds: Optional per-rule word-list upper bounds (Algorithm 2
                output) stored into the metadata records.
            headtail_k: Width of head/tail buffers (0 disables them).
            heads: Per-rule head word lists (required when headtail_k > 0).
            tails: Per-rule tail word lists (required when headtail_k > 0).
            per_rule: Use the *naive* layout: each rule's metadata, entries
                and body are separate heap allocations reached through an
                indirection table, instead of adjacent pool streams.  With
                a scattered allocator this models the direct TADOC port
                the paper measures at 13.37x overhead (Section III-B).
            on_rule: Optional callback invoked after each rule is written
                (the engine uses it for operation-level persistence).
        """
        image = PoolImage(corpus, dag, bounds, headtail_k, heads, tails)
        return cls.install(pool, image, per_rule=per_rule, on_rule=on_rule)

    @classmethod
    def install(
        cls, pool: NvmPool, image: PoolImage, per_rule: bool = False, on_rule=None
    ) -> "PrunedDag":
        """Write ``image`` into ``pool``: :meth:`build`'s charged calls.

        ``per_rule`` and ``on_rule`` are :meth:`build`'s.  Whether the
        image was just made or kept from an earlier build, the same calls
        run in the same order with the same bytes.
        """
        mem = pool.memory
        n_rules = image.n_rules
        entries = image.entries
        raw = image.raw
        # The epoch under which the cache could be seeded: any loss of
        # kernel_ready or out-of-band image change bumps it.
        ready_epoch = mem.image_epoch if mem.kernel_ready else None

        info_off = pool.alloc_region(_INFO_REGION, _INFO.size)
        if per_rule:
            # Indirection table: rule -> metadata record offset.
            meta_off = pool.alloc_region(_META_REGION, n_rules * 8)
        else:
            meta_off = pool.alloc_region(_META_REGION, n_rules * META_RECORD_SIZE)
            dag_off = pool.alloc_region(_DAG_REGION, max(len(entries), 8))
            raw_off = pool.alloc_region(_RAW_REGION, max(len(raw), 4))
            meta, rows = image.rebase(meta_off, dag_off, raw_off)
        mem.write(
            info_off,
            _INFO.pack(
                n_rules, image.n_files, image.headtail_k,
                _FLAG_INDEXED if per_rule else 0,
            ),
        )

        if not per_rule and on_rule is None:
            # Fast path: each region with a single sequential device
            # access.  Only usable without the per-operation persistence
            # callback, which needs device state committed after every rule.
            if entries:
                mem.write(dag_off, entries)
            if raw:
                mem.write(raw_off, raw)
            mem.write(meta_off, meta)
        else:
            alloc = pool.allocator.alloc
            for rule, record in enumerate(_META.iter_unpack(image.meta)):
                entry_rel, raw_rel, n_sub, n_words, raw_len = record[:5]
                entry_len = (n_sub + n_words) * 8
                raw_len *= 4
                # Algorithm 1's pool_top pointers for the two write streams.
                if per_rule:
                    entry_top = alloc(max(entry_len, 4))
                    raw_top = alloc(max(raw_len, 4))
                else:
                    entry_top = dag_off + entry_rel
                    raw_top = raw_off + raw_rel
                # Pruned entries (subrules, then words), then the ordered
                # body for sequence analytics.
                if entry_len:
                    mem.write(entry_top, entries[entry_rel : entry_rel + entry_len])
                if raw_len:
                    mem.write(raw_top, raw[raw_rel : raw_rel + raw_len])
                if per_rule:
                    record_off = alloc(META_RECORD_SIZE)
                    mem.write(record_off, _META.pack(entry_top, raw_top, *record[2:]))
                    layout.write_u64(mem, meta_off + rule * 8, record_off)
                else:
                    at = rule * META_RECORD_SIZE
                    mem.write(meta_off + at, meta[at : at + META_RECORD_SIZE])
                if on_rule is not None:
                    on_rule()

        if image.headtail_k:
            store = HeadTailStore.create(pool.allocator, n_rules, image.headtail_k)
            # Record the region so attach() can find it.
            pool.register_region(
                _HEADTAIL_REGION, store.base_offset, n_rules * store.record_size
            )
            store.install(image.headtail)
        built = cls(pool)
        if not per_rule and mem.image_epoch == ready_epoch and built._revalidate():
            # The rows are exactly the bytes just written.
            built._rows = rows
        return built

    @classmethod
    def attach(cls, pool: NvmPool) -> "PrunedDag":
        """Reopen a pruned DAG from a pool whose directory is loaded."""
        return cls(pool)

    # ------------------------------------------------------------------
    # Host decode cache
    # ------------------------------------------------------------------

    def _row(self, rule: int):
        """``rule``'s cached ``(record_off, entry_off, subrules, words,
        fields)``, or ``None`` when this access must read the device.

        Callers still charge every span they would have read.
        """
        if self._epoch != self._mem.image_epoch and not self._revalidate():
            return None
        if not 0 <= rule < self.n_rules:
            raise IndexError(f"rule {rule} out of range [0, {self.n_rules})")
        row = self._rows[rule]
        if row is None:
            row = self._rows[rule] = dagops.decode_rule(
                self._mem, _META, self._meta_off + rule * META_RECORD_SIZE
            )
        return row

    def _revalidate(self) -> bool:
        """Empty the cache for the current epoch if it may serve at all.

        The cache serves only while ``mem.kernel_ready`` holds (no fault
        plan or integrity mirror, not a reference memory).  The memory
        bumps ``image_epoch`` whenever that stops holding or its image
        changes outside the charged write path, so an unchanged epoch
        proves the cache current.
        """
        mem = self._mem
        if self.indexed_layout or not mem.kernel_ready:
            return False
        self._rows = [None] * self.n_rules
        self._bodies = {}
        self._walk = [None] * self.n_rules
        self._sweeps = 0
        self._summary = None
        self._epoch = mem.image_epoch
        return True

    def _walk_entry(self, rule: int):
        """Fill and return ``rule``'s walk entry (``None``: not served)."""
        row = self._row(rule)
        if row is None:
            return None
        entry = self._walk[rule] = dagops.walk_entry(
            row, self._mem.profile.line_size, META_RECORD_SIZE
        )
        return entry

    def _walk_table(self) -> list | None:
        """The walk entries of the current epoch, or ``None`` when the
        host cache cannot serve."""
        if self._epoch != self._mem.image_epoch and not self._revalidate():
            return None
        return self._walk

    def bottomup_specs(self) -> list | None:
        """Per rule, what ``bound_and_entries`` returns and the spans it
        charges: ``(record_off, entry_off, subrules, words, bound)``.

        For :meth:`repro.pstruct.phashtable.PHashTable.build_bottomup`,
        which charges those spans itself.  ``None`` when the host cache
        cannot serve every rule; the build then reads through
        :meth:`bound_and_entries`.
        """
        if self._epoch != self._mem.image_epoch and not self._revalidate():
            return None
        specs = []
        for rule in range(self.n_rules):
            row = self._row(rule)
            if row is None:
                return None
            record_off, entry_off, subs, words, fields = row
            specs.append((record_off, entry_off, subs, words, fields[7]))
        return specs

    def hoisted_sweep(self, topo_order: list[int], weights: list[int]) -> bool:
        """Run :func:`~repro.core.traversal.full_sweep_weights_for_segment`'s
        rule loop as :func:`repro.kernels.dagops.full_sweep`.

        Returns ``False``, having charged nothing, when the loop must run
        through the accessors instead (the indexed layout, or a memory
        that is not ``kernel_ready``).  From the second sweep under an
        epoch on, an all-hit sweep is charged in closed form
        (:func:`repro.kernels.dagops.warm_sweep`).  Its summary is built
        at that second sweep, so a corpus swept once never pays for it.
        """
        table = self._walk_table()
        if table is None:
            return False
        if None in table and not all(
            self._walk_entry(rule) for rule, entry in enumerate(table) if entry is None
        ):
            return False
        self._sweeps += 1
        if self._sweeps > 1:
            summary = self._summary
            if summary is None or summary[0] != topo_order:
                summary = self._summary = dagops.sweep_summary(
                    table, topo_order, META_RECORD_SIZE
                )
            if dagops.warm_sweep(self._mem, table, summary, weights):
                return True
        dagops.full_sweep(self._mem, table, topo_order, weights, META_RECORD_SIZE)
        return True

    def warm_word_fold(
        self, weights: dict[int, int], cpu_ops: int, counts: dict[int, int]
    ) -> bool:
        """Run ``segment_word_counts``' word fold as
        :func:`repro.kernels.dagops.warm_word_fold`.

        ``cpu_ops`` CPU adds lead the window.  Returns ``False``, having
        charged nothing and left ``counts`` as it was, when the fold must
        run through :meth:`words` instead.
        """
        table = self._walk_table()
        if table is None:
            return False
        return dagops.warm_word_fold(
            self._mem, table, self._walk_entry, weights, cpu_ops, counts,
            META_RECORD_SIZE,
        )

    def warm_local_weights(
        self, seeds: dict[int, int], cpu_ops: int, topo_position
    ) -> dict[int, int] | None:
        """Run ``local_weights_for_segment``'s discovery and propagation as
        :func:`repro.kernels.dagops.warm_local_weights`.

        ``cpu_ops`` CPU adds lead the window.  Returns ``None``, having
        charged nothing, when the walk must run through :meth:`subrules`
        instead (a seed out of range included: that path raises).
        """
        table = self._walk_table()
        if table is None or not all(0 <= rule < self.n_rules for rule in seeds):
            return None
        return dagops.warm_local_weights(
            self._mem, table, self._walk_entry, seeds, cpu_ops, topo_position,
            META_RECORD_SIZE,
        )

    # ------------------------------------------------------------------
    # Metadata access
    # ------------------------------------------------------------------

    def _record_offset(self, rule: int) -> int:
        """Device offset of the rule's metadata record."""
        if self.indexed_layout:
            # Naive layout: chase the indirection pointer first.
            return layout.read_u64(self._mem, self._meta_off + rule * 8)
        return self._meta_off + rule * META_RECORD_SIZE

    def meta(self, rule: int) -> tuple[int, int, int, int, int, int, int, int, int]:
        """Raw metadata record: (entry_off, raw_off, n_sub, n_words,
        raw_len, in_deg, out_deg, bound, weight)."""
        row = self._row(rule)
        if row is None:
            self._check(rule)
            raw = self._mem.read(self._record_offset(rule), META_RECORD_SIZE)
            return _META.unpack(raw)
        record_off = row[0]
        mem = self._mem
        mem.charge_read(record_off, META_RECORD_SIZE)
        return row[4] + (dagops.read_u64(mem, record_off + 40),)

    def bound(self, rule: int) -> int:
        """The Algorithm-2 upper bound stored for ``rule``."""
        return self.meta(rule)[7]

    def in_degree(self, rule: int) -> int:
        return self.meta(rule)[5]

    def in_degrees(self) -> list[int]:
        """Every rule's in-degree.

        With the packed layout the whole metadata region is streamed in
        one bulk read; the indexed (naive) layout has no contiguous region
        to stream and falls back to per-rule records.
        """
        if self.indexed_layout:
            return [self.meta(rule)[5] for rule in range(self.n_rules)]
        raw = self._mem.read(self._meta_off, self.n_rules * META_RECORD_SIZE)
        return [record[5] for record in _META.iter_unpack(raw)]

    def weight(self, rule: int) -> int:
        """Current traversal weight of ``rule``."""
        self._check(rule)
        return layout.read_u64(self._mem, self._record_offset(rule) + 40)

    def set_weight(self, rule: int, weight: int) -> None:
        """Store the traversal weight of ``rule``."""
        self._check(rule)
        layout.write_u64(self._mem, self._record_offset(rule) + 40, weight)

    def add_weight(self, rule: int, delta: int) -> int:
        """Read-modify-write weight update; returns the new weight."""
        self._check(rule)
        return self._mem.rmw_add(self._record_offset(rule) + 40, 8, delta)

    def add_weight_many(self, pairs) -> None:
        """Apply :meth:`add_weight` for many ``(rule, delta)`` pairs.

        One fused RMW per site in input order.  The indexed (naive)
        layout pays its per-rule pointer chase and falls back to scalar
        updates.
        """
        if self.indexed_layout:
            for rule, delta in pairs:
                self.add_weight(rule, delta)
            return
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        if not pairs:
            return
        n = self.n_rules
        base = self._meta_off + 40
        sites = []
        for rule, delta in pairs:
            if not 0 <= rule < n:
                raise IndexError(f"rule {rule} out of range [0, {n})")
            sites.append((base + rule * META_RECORD_SIZE, delta))
        self._mem.rmw_add_each(sites, 8)

    def reset_weights(self) -> None:
        """Zero every rule's weight (between tasks).

        The packed layout rewrites the metadata region with one bulk
        read-modify-write instead of ``n_rules`` 8-byte stores.
        """
        if self.indexed_layout:
            for rule in range(self.n_rules):
                self.set_weight(rule, 0)
            return
        n = self.n_rules
        region = bytearray(self._mem.read(self._meta_off, n * META_RECORD_SIZE))
        zero = bytes(8)
        for off in range(40, n * META_RECORD_SIZE, META_RECORD_SIZE):
            region[off : off + 8] = zero
        self._mem.write(self._meta_off, region)

    # ------------------------------------------------------------------
    # Entry access
    #
    # Each accessor charges the 48-byte record, then the entry span it
    # returns (none when empty), and returns tuples.  On the cached path
    # the charges go through ``charge_read`` and the values come from
    # the host cache; the weight is read uncharged after its record.
    # ------------------------------------------------------------------

    def _read_pairs(self, offset: int, count: int) -> tuple[tuple[int, int], ...]:
        """``count`` device ``(u32, u32)`` pairs at ``offset`` (one read)."""
        flat = layout.read_u32_array(self._mem, offset, count * 2)
        return tuple(zip(flat[0::2], flat[1::2]))

    def subrules(self, rule: int) -> tuple[tuple[int, int], ...]:
        """Pruned ``(subrule index, frequency)`` pairs of ``rule``."""
        return self.weight_and_subrules(rule)[1]

    def words(self, rule: int) -> tuple[tuple[int, int], ...]:
        """Pruned ``(word id, frequency)`` pairs of ``rule``."""
        return self.weight_and_words(rule)[1]

    def entries(
        self, rule: int
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """Both entry lists with a single contiguous device read."""
        return self.bound_and_entries(rule)[1:]

    def weight_and_subrules(self, rule: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(weight, subrules)`` from one metadata record read.

        The weight field lives in the same 48-byte record as the entry
        pointers, so traversals that need both pay a single record read
        instead of two.
        """
        row = self._row(rule)
        if row is None:
            entry_off, _, n_sub, _, _, _, _, _, weight = self.meta(rule)
            return weight, self._read_pairs(entry_off, n_sub)
        record_off, entry_off, subs, _, _ = row
        mem = self._mem
        mem.charge_read(record_off, META_RECORD_SIZE)
        if subs:
            mem.charge_read(entry_off, len(subs) * 8)
        return dagops.read_u64(mem, record_off + 40), subs

    def weight_and_words(self, rule: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(weight, words)`` from one metadata record read."""
        row = self._row(rule)
        if row is None:
            entry_off, _, n_sub, n_words, _, _, _, _, weight = self.meta(rule)
            return weight, self._read_pairs(entry_off + n_sub * 8, n_words)
        record_off, entry_off, subs, words, _ = row
        mem = self._mem
        mem.charge_read(record_off, META_RECORD_SIZE)
        if words:
            mem.charge_read(entry_off + len(subs) * 8, len(words) * 8)
        return dagops.read_u64(mem, record_off + 40), words

    def bound_and_entries(
        self, rule: int
    ) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """``(bound, subrules, words)`` from one metadata record read."""
        row = self._row(rule)
        if row is None:
            entry_off, _, n_sub, n_words, _, _, _, bound, _ = self.meta(rule)
            pairs = self._read_pairs(entry_off, n_sub + n_words)
            return bound, pairs[:n_sub], pairs[n_sub:]
        record_off, entry_off, subs, words, fields = row
        charge = self._mem.charge_read
        charge(record_off, META_RECORD_SIZE)
        if subs or words:
            charge(entry_off, (len(subs) + len(words)) * 8)
        return fields[7], subs, words

    def raw_body(self, rule: int) -> list[int]:
        """The ordered (unpruned) body of ``rule``."""
        row = self._row(rule)
        if row is None:
            _, raw_off, _, _, raw_len, _, _, _, _ = self.meta(rule)
            return layout.read_u32_array(self._mem, raw_off, raw_len)
        mem = self._mem
        mem.charge_read(row[0], META_RECORD_SIZE)
        _, raw_off, _, _, raw_len, _, _, _ = row[4]
        if not raw_len:
            return []
        body = self._bodies.get(rule)
        if body is None:
            body = dagops.decode_u32s(mem, raw_off, raw_len)
            if body is None:
                return layout.read_u32_array(mem, raw_off, raw_len)
            self._bodies[rule] = body
        mem.charge_read(raw_off, raw_len * 4)
        return list(body)

    def _check(self, rule: int) -> None:
        if not 0 <= rule < self.n_rules:
            raise IndexError(f"rule {rule} out of range [0, {self.n_rules})")


def prune_corpus(
    pool: NvmPool,
    corpus: CompressedCorpus,
    dag: Dag | None = None,
    bounds: list[int] | None = None,
    headtail_k: int = 0,
    heads: list[list[int]] | None = None,
    tails: list[list[int]] | None = None,
) -> PrunedDag:
    """Convenience wrapper: build a :class:`PrunedDag` for a corpus."""
    if dag is None:
        dag = Dag(corpus)
    return PrunedDag.build(
        pool,
        corpus,
        dag,
        bounds=bounds,
        headtail_k=headtail_k,
        heads=heads,
        tails=tails,
    )
