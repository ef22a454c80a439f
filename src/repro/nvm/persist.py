"""Persistence strategies: phase-level checkpoints and undo-log transactions.

The paper evaluates two persistence costs (SectionIV-E):

* **Phase-level** (libpmem analog): data is flushed only at the end of
  each phase.  Cheap during normal execution; on failure the whole phase
  is re-run from the previous checkpoint.
  Implemented by :class:`PhasePersistence`.
* **Operation-level** (libpmemobj-cpp analog): every logical operation runs
  inside a transaction whose undo records are persisted *before* the data
  is modified, so a crash rolls back to the operation boundary.  The log
  writes and extra flushes are the write amplification the paper measures
  as the Fig.5a vs Fig.5b gap.
  Implemented by :class:`TransactionLog` / :class:`Transaction`.

Flushes are not atomic under fault injection (``repro.nvm.faults``): a
crash can persist any subset of the dirty lines, cut mid-line at the
device's atomic unit.  Both strategies are hardened accordingly:

* the phase marker is a CRC32-sealed **two-slot ping-pong** -- completing
  phase *n* writes slot ``n % 2``, so a torn marker write fails its CRC
  and the reader falls back to the other slot's previous checkpoint;
* every undo-log record carries a CRC32 over its header and payload, and
  :meth:`TransactionLog.recover` bounds- and checksum-validates each
  record before trusting it (see its docstring for the torn-tail rule).
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager
from typing import Iterator

from repro.errors import RecoveryError, TransactionError
from repro.nvm.pool import NvmPool
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

_PHASE_REGION = "__phases__"
_PHASE_BODY_FMT = "<I32s"  # completed count, padded phase name
_PHASE_BODY_SIZE = struct.calcsize(_PHASE_BODY_FMT)
_PHASE_SLOT_SIZE = _PHASE_BODY_SIZE + 4  # body + crc32
_PHASE_REGION_SIZE = 2 * _PHASE_SLOT_SIZE

_LOG_REGION = "__txlog__"
_LOG_HEADER_FMT = "<IIQ"  # active flag, record count, transaction sequence
_LOG_HEADER_SIZE = struct.calcsize(_LOG_HEADER_FMT)
_LOG_RECORD_FMT = "<QII"  # target offset, length, crc32 (old data follows)
_LOG_RECORD_SIZE = struct.calcsize(_LOG_RECORD_FMT)


def _record_crc(target: int, length: int, seq: int, old: bytes) -> int:
    """Checksum sealing one undo record's header and payload together.

    The owning transaction's sequence number is folded in so a record
    slot reused across transactions can never validate against the wrong
    header: if a torn flush persists a new header count but not the new
    record, the stale record underneath fails this CRC instead of being
    replayed (which would un-commit the previous transaction's write).
    """
    return zlib.crc32(struct.pack("<QIQ", target, length, seq) + old)


class PhasePersistence:
    """Checkpoint marker persisted at each completed phase.

    The marker region holds two CRC32-sealed slots, each storing the
    number of completed phases plus the name of the last one; completing
    phase ``n`` writes slot ``n % 2``.  :meth:`phase` is the normal entry
    point::

        pp = PhasePersistence(pool)
        with pp.phase("initialization"):
            ...build the DAG pool...
        with pp.phase("traversal"):
            ...traverse and collect results...

    On exit from the ``with`` block the pool (directory + dirty data) is
    flushed *first* and only then is the marker written and flushed, so
    the checkpoint can never claim data that has not reached media -- and
    if the marker's own flush tears, the previous slot still validates.
    """

    def __init__(self, pool: NvmPool) -> None:
        self.pool = pool
        if not pool.has_region(_PHASE_REGION):
            offset = pool.alloc_region(_PHASE_REGION, _PHASE_REGION_SIZE)
            self._write_slot(offset, 0, 0, b"")

    def _write_slot(
        self, region_off: int, slot: int, count: int, name: bytes
    ) -> None:
        body = struct.pack(_PHASE_BODY_FMT, count, name.ljust(32, b"\x00"))
        self.pool.memory.write(
            region_off + slot * _PHASE_SLOT_SIZE,
            body + struct.pack("<I", zlib.crc32(body)),
        )

    def _read_marker(self) -> tuple[int, bytes]:
        """Return ``(count, raw name)`` of the newest *valid* slot.

        A slot whose CRC fails -- torn mid-write or corrupted -- is
        skipped, never trusted.  With both slots invalid the marker
        counts as "no phase completed", which recovery treats as a full
        restart: the conservative direction.
        """
        offset, _ = self.pool.get_region(_PHASE_REGION)
        raw = self.pool.memory.read(offset, _PHASE_REGION_SIZE)
        best = (0, b"")
        found = False
        for slot in (0, 1):
            start = slot * _PHASE_SLOT_SIZE
            body = raw[start : start + _PHASE_BODY_SIZE]
            (crc,) = struct.unpack_from("<I", raw, start + _PHASE_BODY_SIZE)
            if zlib.crc32(body) != crc:
                continue
            count, name = struct.unpack(_PHASE_BODY_FMT, body)
            if not found or count > best[0]:
                best = (count, name)
                found = True
        return best

    def completed_count(self) -> int:
        """Return how many phases have been completed and persisted."""
        return self._read_marker()[0]

    def last_completed(self) -> str | None:
        """Return the name of the last completed phase, or ``None``."""
        count, name = self._read_marker()
        if count == 0:
            return None
        return name.rstrip(b"\x00").decode("utf-8")

    def complete_phase(self, name: str) -> None:
        """Record ``name`` as completed and persist the marker.

        The caller must flush the phase's data (and the pool directory)
        *before* calling -- flushes are not atomic, so a marker that
        rode the same flush as its data could persist ahead of it
        (nvmlint ND005/ND006 enforce the ordering at call sites;
        :meth:`phase` does it for you).  The marker write itself goes to
        the ping-pong slot for the new count and is persisted by its own
        flush; tearing that flush leaves the previous slot intact.
        """
        with obs.span("persist:marker", category="persist", phase=name):
            encoded = name.encode("utf-8")[:32]
            offset, _ = self.pool.get_region(_PHASE_REGION)
            count = self.completed_count() + 1
            self._write_slot(offset, count % 2, count, encoded)
            self.pool.memory.flush()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Run a phase; persist data, then checkpoint, on successful exit."""
        yield
        self.pool.flush()  # phase data + directory reach media first
        self.complete_phase(name)


class TransactionLog:
    """Undo log stored in its own pool region (libpmemobj analog).

    Args:
        pool: Pool that hosts both the data and the log.
        capacity: Log region size in bytes when the region is created;
            bounds the amount of data a single transaction may modify.
            When the region already exists (recovery), its directory size
            wins.  See docs/recovery.md for a sizing guide.
        auto_capacity: Grow the log (into a fresh, larger region) instead
            of raising :class:`TransactionError` when a record does not
            fit.
    """

    def __init__(
        self,
        pool: NvmPool,
        capacity: int = 1 << 16,
        auto_capacity: bool = False,
    ) -> None:
        self.pool = pool
        self.auto_capacity = auto_capacity
        if not pool.has_region(_LOG_REGION):
            offset = pool.alloc_region(_LOG_REGION, capacity)
            pool.memory.write(offset, struct.pack(_LOG_HEADER_FMT, 0, 0, 0))
            self.capacity = capacity
        else:
            self.capacity = pool.get_region(_LOG_REGION)[1]
        self._active: Transaction | None = None

    def _header(self) -> tuple[int, int, int]:
        offset, _ = self.pool.get_region(_LOG_REGION)
        return struct.unpack(
            _LOG_HEADER_FMT, self.pool.memory.read(offset, _LOG_HEADER_SIZE)
        )

    def begin(self) -> "Transaction":
        """Start a transaction.

        Raises:
            TransactionError: if another transaction is already active.
        """
        if self._active is not None:
            raise TransactionError("nested transactions are not supported")
        self._active = Transaction(self)
        return self._active

    @contextmanager
    def transaction(self) -> Iterator["Transaction"]:
        """Context-manager form of :meth:`begin`; commits on success."""
        with obs.span("persist:tx", category="persist"):
            tx = self.begin()
            try:
                yield tx
            except BaseException:
                tx.abort()
                raise
            else:
                tx.commit()

    def needs_recovery(self) -> bool:
        """Return whether the persisted log shows an interrupted transaction."""
        active, count, _ = self._header()
        return bool(active) and count > 0

    def recover(self) -> int:
        """Roll back an interrupted transaction; return records undone.

        Every record is validated before it is trusted: its header must
        lie inside the log region, its payload must fit both the log and
        the device, and its CRC32 (sealed with the interrupted
        transaction's sequence number) must match.  Torn-tail rule: only
        the *final* record can legitimately fail -- each earlier record
        was made durable by a later record's flush barrier, so an
        invalid final record means the crash tore its persist (its
        guarded data write never executed; there is nothing to undo) and
        it is skipped, while an invalid earlier record is real
        corruption.

        Raises:
            RecoveryError: naming the offending record index, when any
                record before the last fails validation.
        """
        with obs.span("persist:recover", category="persist") as span:
            undone = self._recover(span)
        if undone:
            obs_events.emit(
                "txlog_recovery", severity="warning", records_undone=undone
            )
            obs_metrics.inc("ntadoc_txlog_recoveries_total")
        return undone

    def _recover(self, span) -> int:
        mem = self.pool.memory
        offset, size = self.pool.get_region(_LOG_REGION)
        active, count, seq = struct.unpack(
            _LOG_HEADER_FMT, mem.read(offset, _LOG_HEADER_SIZE)
        )
        if not active:
            return 0
        limit = offset + size
        records: list[tuple[int, bytes]] = []
        pos = offset + _LOG_HEADER_SIZE
        undone = count
        for index in range(count):
            problem: str | None = None
            if pos + _LOG_RECORD_SIZE > limit:
                problem = "record header overruns the log region"
            else:
                target, length, crc = struct.unpack(
                    _LOG_RECORD_FMT, mem.read(pos, _LOG_RECORD_SIZE)
                )
                if pos + _LOG_RECORD_SIZE + length > limit:
                    problem = f"record body ({length} B) overruns the log region"
                elif target + length > mem.size:
                    problem = (
                        f"record target [{target}, {target + length}) outside "
                        f"the {mem.size}-byte device"
                    )
                else:
                    old = mem.read(pos + _LOG_RECORD_SIZE, length)
                    if _record_crc(target, length, seq, old) != crc:
                        problem = "record checksum mismatch"
            if problem is not None:
                if index == count - 1:
                    # Torn tail: the final record's persist was cut by the
                    # crash, so its guarded data write never ran.  Skip it.
                    undone = index
                    break
                raise RecoveryError(
                    f"corrupt undo log record {index} of {count}: {problem}"
                )
            records.append((target, old))
            pos += _LOG_RECORD_SIZE + length
        for target, old in reversed(records):
            mem.write(target, old)
        # The rolled-back data must reach media before the log retires:
        # with a single flush the retirement could persist ahead of the
        # rollback, and a second crash would then skip recovery entirely.
        mem.flush()
        mem.write(offset, struct.pack(_LOG_HEADER_FMT, 0, 0, seq))
        mem.flush()
        if span is not None:
            span.attrs["records_undone"] = undone
        return undone

    # Internal hooks used by Transaction -------------------------------

    def _clear_active(self) -> None:
        self._active = None

    def _grow(self, used: int, needed: int) -> tuple[int, int]:
        """Move the log into a larger region; return the new (base, top).

        The old extent is deliberately *leaked*: the directory copy that
        a crash might fall back to still points at it, so handing it to
        the allocator before the new directory is durable would let
        fresh data scribble over a live recovery structure.
        """
        pool = self.pool
        mem = pool.memory
        old_offset, old_size = pool.get_region(_LOG_REGION)
        new_capacity = max(old_size * 2, used + needed)
        new_offset = pool.allocator.alloc(new_capacity)
        mem.write(new_offset, mem.read(old_offset, used))
        pool.move_region(_LOG_REGION, new_offset, new_capacity)
        pool.save_directory()
        mem.flush()  # log copy + directory durable before the tx continues
        self.capacity = new_capacity
        return new_offset, new_offset + used


class Transaction:
    """One undo-logged transaction.  Use via ``TransactionLog.transaction``."""

    def __init__(self, log: TransactionLog) -> None:
        self._log = log
        self._pool = log.pool
        self._count = 0
        offset, _ = self._pool.get_region(_LOG_REGION)
        self._base = offset
        self._write_pos = offset + _LOG_HEADER_SIZE
        self._open = True
        # Claim the next transaction sequence number (persistent across
        # crashes: the retire path preserves it); it seals every record
        # CRC so stale records from earlier transactions cannot validate.
        self._seq = log._header()[2] + 1
        # Mark the log active and persist the marker before any data write.
        self._pool.memory.write(
            offset, struct.pack(_LOG_HEADER_FMT, 1, 0, self._seq)
        )
        self._pool.memory.flush()

    def write(self, offset: int, data: bytes) -> None:
        """Log the old contents of ``[offset, offset+len)``, then write.

        The undo record is persisted *before* the data write reaches the
        pool, which is what makes the operation atomic -- and what makes
        operation-level persistence expensive.

        Raises:
            TransactionError: if the transaction is closed, or the log is
                full and the log was not built with ``auto_capacity``;
                the error carries ``required`` and ``available`` bytes.
        """
        if not self._open:
            raise TransactionError("transaction already finished")
        mem = self._pool.memory
        start = mem.clock.ns
        record_size = _LOG_RECORD_SIZE + len(data)
        available = self._base + self._log.capacity - self._write_pos
        if record_size > available:
            if not self._log.auto_capacity:
                raise TransactionError(
                    f"undo log full: next record needs {record_size} B but "
                    f"only {available} B of {self._log.capacity} B remain; "
                    "split the transaction, size the log up front, or pass "
                    "TransactionLog(auto_capacity=True) "
                    "(sizing guide: docs/recovery.md)",
                    required=record_size,
                    available=available,
                )
            used = self._write_pos - self._base
            self._base, self._write_pos = self._log._grow(used, record_size)
        old = mem.read(offset, len(data))
        mem.write(
            self._write_pos,
            struct.pack(
                _LOG_RECORD_FMT,
                offset,
                len(data),
                _record_crc(offset, len(data), self._seq, old),
            ),
        )
        mem.write(self._write_pos + _LOG_RECORD_SIZE, old)
        self._write_pos += record_size
        self._count += 1
        mem.write(
            self._base, struct.pack(_LOG_HEADER_FMT, 1, self._count, self._seq)
        )
        mem.flush()  # persist undo record before mutating data
        mem.write(offset, data)
        obs.op("persist:tx_write", mem.clock.ns - start)

    def commit(self) -> None:
        """Persist the data writes and retire the log."""
        if not self._open:
            raise TransactionError("transaction already finished")
        mem = self._pool.memory
        mem.flush()  # persist the data itself
        mem.write(
            self._base, struct.pack(_LOG_HEADER_FMT, 0, 0, self._seq)
        )
        mem.flush()  # persist the log retirement
        self._open = False
        self._log._clear_active()

    def abort(self) -> None:
        """Undo every write performed inside this transaction."""
        if not self._open:
            return
        self._open = False
        self._log._clear_active()
        self._log.recover()
