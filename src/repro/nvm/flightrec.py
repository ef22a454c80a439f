"""Crash-persistent flight recorder: the engine's black box.

A :class:`FlightRecorder` keeps the most recent operational events (and
a periodic metrics snapshot) in a CRC-sealed slot ring inside the pool's
``__flightrec__`` region, so that after a crash or media fault
``ntadoc blackbox`` -- and the crashsweep/faultsweep recovery legs --
can reconstruct what the engine was doing when it died.

Persistence contract (the part that makes this safe to leave always on):

* Recording writes ride :meth:`SimulatedMemory.poke` -- the uncharged
  raw accessor -- and never mark lines dirty, so they are invisible to
  flush charging, to the flush-profile accounting the fault harnesses
  pin, and to the MediaGuard (flight-recorder lines are never programmed,
  hence never sealed, hence never scrubbed).  A metrics-on run charges
  simulated ns bit-identically (``==``) to a metrics-off run.
* Durability rides the device flush, like the PR-8 seal tables ride the
  media program: :meth:`SimulatedMemory.flush` copies the recorder
  window into the crash image after the dirty lines land, and a *torn*
  flush copies only a prefix bounded by the bytes the tear persisted --
  so a crash mid-flush can leave the newest slot half-written.  The
  decoder classifies such a slot as a typed *torn* record (slot magic
  present, CRC mismatch); it never returns garbage.

On-media layout (all little-endian)::

    header (16 B): magic "NTADOCFR" | u16 version | u16 slot_size | u32 nslots
    slot[i] (slot_size B each, i = seq % nslots):
        u16 slot magic 0xF17E | u8 type code | u8 severity level
        u16 detail length     | u16 reserved (0)
        u64 seq               | f64 sim_ns
        detail bytes (canonical JSON, truncated to the slot capacity)
        ... zero padding ...
        u32 CRC32 over slot[0 : slot_size-4], stored in the last 4 bytes

Event type codes come from the append-only
:data:`repro.obs.events.EVENT_TYPES` vocabulary; types outside it store
the ``custom`` code with the name folded into the detail payload.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import OutOfMemoryError
from repro.obs.events import (
    CUSTOM_TYPE_CODE,
    SEVERITIES,
    SEVERITY_LEVELS,
    type_code,
    type_name,
)

if TYPE_CHECKING:
    from repro.nvm.memory import SimulatedMemory
    from repro.nvm.pool import NvmPool
    from repro.obs.events import Event

#: Pool region holding the ring (allocated like ``__seals__``).
FLIGHTREC_REGION = "__flightrec__"

MAGIC = b"NTADOCFR"
VERSION = 1
HEADER = struct.Struct("<8sHHI")
HEADER_SIZE = HEADER.size  # 16

SLOT_MAGIC = 0xF17E
SLOT_HEADER = struct.Struct("<HBBHHQd")
SLOT_HEADER_SIZE = SLOT_HEADER.size  # 24
SLOT_CRC_SIZE = 4

DEFAULT_SLOT_SIZE = 256
DEFAULT_SLOTS = 64


def region_bytes(
    slot_size: int = DEFAULT_SLOT_SIZE, nslots: int = DEFAULT_SLOTS
) -> int:
    """Bytes the ``__flightrec__`` region needs for this geometry."""
    return HEADER_SIZE + slot_size * nslots


def reserve_region(pool: "NvmPool") -> tuple[int, int] | None:
    """The pool's ``__flightrec__`` window, reserving it if it is new.

    Pinned at the TOP of the pool extent, so data placement (and the
    persisted image outside the window) is the same whether or not the
    black box exists; allocation is a host-side directory write that
    charges nothing.  Line-aligned and line-padded like the MediaGuard
    tables, so recorder pokes never share a device line with charged
    data.  A reopened pool gets its allocator capacity re-carved below
    the existing window.  Returns ``(offset, size)``, or ``None`` when a
    pool sized too small for the window goes without a black box.
    """
    if not pool.has_region(FLIGHTREC_REGION):
        line_size = pool.memory.profile.line_size
        size = -(-region_bytes() // line_size) * line_size
        try:
            pool.alloc_region_top(FLIGHTREC_REGION, size, align=line_size)
        except OutOfMemoryError:
            return None
    pool.reserve_top_region(FLIGHTREC_REGION)
    return pool.get_region(FLIGHTREC_REGION)


class FlightRecorder:
    """Slot-ring writer over a ``__flightrec__`` window of one device.

    Construction *attaches*: when the window already holds a valid ring
    (a reopened pool), the sequence counter resumes past the highest
    persisted slot so old and new records stay chronologically ordered;
    otherwise a fresh header is written.  All writes are uncharged pokes
    -- see the module docstring for the full contract.

    Args:
        mem: Device holding the window.
        offset: Window start (the region offset from the pool directory).
        size: Window length in bytes.
        slot_size: Bytes per slot (events truncate to fit).
        snapshot_provider: Optional zero-argument callable returning a
            small JSON-safe dict; when set, every flush appends one
            ``metrics_snapshot`` slot before the window persists.
    """

    def __init__(
        self,
        mem: "SimulatedMemory",
        offset: int,
        size: int,
        slot_size: int = DEFAULT_SLOT_SIZE,
        snapshot_provider: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        if slot_size < SLOT_HEADER_SIZE + SLOT_CRC_SIZE:
            raise ValueError(f"slot_size too small: {slot_size}")
        nslots = (size - HEADER_SIZE) // slot_size
        if nslots < 1:
            raise ValueError(
                f"flight-recorder window of {size} B holds no "
                f"{slot_size}-B slot"
            )
        self.mem = mem
        self.offset = offset
        self.size = size
        self.slot_size = slot_size
        self.nslots = nslots
        self.snapshot_provider = snapshot_provider
        self._seq = 0
        existing = decode_window(mem.peek(offset, size))
        if (
            existing["present"]
            and existing["slot_size"] == slot_size
            and existing["nslots"] == nslots
        ):
            seqs = [record.seq for record in existing["records"]]
            self._seq = (max(seqs) + 1) if seqs else 0
        else:
            mem.poke(offset, HEADER.pack(MAGIC, VERSION, slot_size, nslots))

    @property
    def window(self) -> tuple[int, int]:
        """``(start, end)`` byte window on the device."""
        return (self.offset, self.offset + self.size)

    @property
    def next_seq(self) -> int:
        return self._seq

    # -- recording ---------------------------------------------------------

    def record(self, event: "Event") -> None:
        """Journal sink: persist one event into the ring (uncharged)."""
        detail = event.detail
        if type_code(event.type) == CUSTOM_TYPE_CODE:
            detail = dict(detail)
            detail["type"] = event.type
        self._write_slot(
            type_code(event.type),
            SEVERITY_LEVELS.get(event.severity, SEVERITY_LEVELS["info"]),
            event.sim_ns,
            detail,
        )

    def on_flush(self, mem: "SimulatedMemory") -> None:
        """Flush hook: append the periodic metrics snapshot slot.

        Called by :meth:`SimulatedMemory.flush` (and by a torn flush)
        just before the recorder window is copied into the crash image.
        """
        provider = self.snapshot_provider
        if provider is None:
            return
        self._write_slot(
            type_code("metrics_snapshot"),
            SEVERITY_LEVELS["debug"],
            mem.clock.ns,
            provider(),
        )

    def _write_slot(
        self,
        code: int,
        severity_level: int,
        sim_ns: float,
        detail: dict[str, Any],
    ) -> None:
        capacity = self.slot_size - SLOT_HEADER_SIZE - SLOT_CRC_SIZE
        payload = json.dumps(
            detail, sort_keys=True, separators=(",", ":"), default=str
        ).encode("utf-8")
        if len(payload) > capacity:
            # Worst case the cut lands mid-JSON; the decoder then keeps
            # the raw prefix and flags the record detail-truncated.
            payload = payload[:capacity]
        seq = self._seq
        self._seq += 1
        body = bytearray(self.slot_size)
        SLOT_HEADER.pack_into(
            body, 0, SLOT_MAGIC, code, severity_level, len(payload), 0,
            seq, float(sim_ns),
        )
        body[SLOT_HEADER_SIZE : SLOT_HEADER_SIZE + len(payload)] = payload
        crc = zlib.crc32(bytes(body[: self.slot_size - SLOT_CRC_SIZE]))
        body[self.slot_size - SLOT_CRC_SIZE :] = crc.to_bytes(4, "little")
        slot = seq % self.nslots
        self.mem.poke(self.offset + HEADER_SIZE + slot * self.slot_size, bytes(body))


# ---------------------------------------------------------------------------
# Decoding (post-mortem: reads the window uncharged, classifies every slot)
# ---------------------------------------------------------------------------


@dataclass
class DecodedRecord:
    """One classified slot.

    ``kind`` is ``"event"`` (magic and CRC verify), ``"torn"`` (magic
    present, CRC mismatch -- a crash cut the persist mid-slot, header
    fields are best-effort), or ``"unknown"`` (non-zero bytes without
    the slot magic -- e.g. a tear that split the magic itself).  The
    decoder never emits an unclassified record.
    """

    kind: str
    seq: int = 0
    type: str = ""
    severity: str = ""
    sim_ns: float = 0.0
    detail: dict[str, Any] = field(default_factory=dict)
    detail_truncated: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "seq": self.seq,
            "type": self.type,
            "severity": self.severity,
            "sim_ns": self.sim_ns,
            "detail": dict(sorted(self.detail.items())),
            "detail_truncated": self.detail_truncated,
        }


def _decode_slot(raw: bytes, slot_size: int) -> DecodedRecord | None:
    """Classify one slot's bytes; ``None`` for a never-written slot."""
    if not any(raw):
        return None
    magic, code, severity_level, detail_len, _, seq, sim_ns = (
        SLOT_HEADER.unpack_from(raw, 0)
    )
    if magic != SLOT_MAGIC:
        return DecodedRecord(kind="unknown")
    severity = (
        SEVERITIES[severity_level]
        if severity_level < len(SEVERITIES)
        else "info"
    )
    stored_crc = int.from_bytes(raw[slot_size - SLOT_CRC_SIZE :], "little")
    intact = zlib.crc32(raw[: slot_size - SLOT_CRC_SIZE]) == stored_crc
    record = DecodedRecord(
        kind="event" if intact else "torn",
        seq=seq,
        type=type_name(code),
        severity=severity,
        sim_ns=sim_ns,
    )
    detail_len = min(detail_len, slot_size - SLOT_HEADER_SIZE - SLOT_CRC_SIZE)
    payload = raw[SLOT_HEADER_SIZE : SLOT_HEADER_SIZE + detail_len]
    try:
        detail = json.loads(payload.decode("utf-8"))
        if isinstance(detail, dict):
            record.detail = detail
        else:
            record.detail = {"value": detail}
    except (ValueError, UnicodeDecodeError):
        record.detail = {"raw_prefix": payload[:64].decode("utf-8", "replace")}
        record.detail_truncated = True
    if record.kind == "event" and "type" in record.detail and record.type == "custom":
        record.type = str(record.detail["type"])
    return record


def decode_window(raw: bytes) -> dict[str, Any]:
    """Decode one recorder window image into a post-mortem report.

    Returns a dict with ``present`` (valid header found), the geometry,
    and ``records`` -- every classified slot ordered by sequence number
    (``unknown`` records sort first with seq 0).  Wraparound leaves seq
    gaps between the oldest and newest surviving records; that is
    expected and preserved.
    """
    out: dict[str, Any] = {
        "present": False,
        "version": 0,
        "slot_size": 0,
        "nslots": 0,
        "records": [],
    }
    if len(raw) < HEADER_SIZE:
        return out
    magic, version, slot_size, nslots = HEADER.unpack_from(raw, 0)
    if magic != MAGIC or slot_size < SLOT_HEADER_SIZE + SLOT_CRC_SIZE:
        return out
    if nslots < 1 or HEADER_SIZE + slot_size * nslots > len(raw):
        return out
    out.update(present=True, version=version, slot_size=slot_size, nslots=nslots)
    records: list[DecodedRecord] = []
    for index in range(nslots):
        start = HEADER_SIZE + index * slot_size
        record = _decode_slot(raw[start : start + slot_size], slot_size)
        if record is not None:
            records.append(record)
    records.sort(key=lambda record: (record.kind != "unknown", record.seq))
    out["records"] = records
    return out


def decode_memory(
    mem: "SimulatedMemory", offset: int, size: int
) -> dict[str, Any]:
    """Decode the recorder window straight off a device (uncharged)."""
    return decode_window(mem.peek(offset, size))


def decode_pool(pool: "NvmPool") -> dict[str, Any] | None:
    """Decode a pool's ``__flightrec__`` region; ``None`` when absent."""
    if not pool.has_region(FLIGHTREC_REGION):
        return None
    offset, size = pool.get_region(FLIGHTREC_REGION)
    return decode_memory(pool.memory, offset, size)


def device_image(mem: "SimulatedMemory") -> bytes:
    """Snapshot the whole device image, uncharged.

    Post-mortem export for ``ntadoc run --image-out`` and the crash
    harnesses: a copy of the current buffer that can be written to disk
    or handed to :func:`decode_device_image`, without moving the clock
    or the cache of the device under test.
    """
    return mem.peek(0, mem.size)


def decode_device_image(raw: bytes) -> dict[str, Any] | None:
    """Decode the black box out of a saved device image.

    ``raw`` is a whole-pool image -- e.g. a backing file written by
    :meth:`SimulatedMemory.flush` -- loaded post-mortem.  The bytes are
    mounted read-only on a throwaway device, the pool directory is
    restored to locate ``__flightrec__``, and the window is decoded.
    Returns ``None`` when the image has no flight-recorder region (or no
    readable directory at all).
    """
    from repro.nvm.device import DeviceProfile
    from repro.nvm.memory import SimulatedMemory
    from repro.nvm.pool import NvmPool, PoolLayoutError

    if not raw:
        return None
    mem = SimulatedMemory(DeviceProfile.nvm(), len(raw))
    mem.poke(0, raw)
    try:
        pool = NvmPool(mem)
        pool.load_directory()
    except PoolLayoutError:
        return None
    return decode_pool(pool)


def blackbox_report(decoded: dict[str, Any], tail: int = 0) -> dict[str, Any]:
    """Summarize a decoded window for reports and the CLI.

    Returns counts by kind, the decoded tail (last ``tail`` records by
    sequence, all of them when ``tail`` is 0), and the crash-point
    attribution: the phase whose ``phase_start`` has no matching
    ``phase_commit`` (falling back to the last committed phase).
    """
    records = decoded.get("records", [])
    by_kind: dict[str, int] = {}
    for record in records:
        by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
    started: list[str] = []
    committed: list[str] = []
    for record in records:
        if record.kind != "event":
            continue
        phase = record.detail.get("phase")
        if record.type == "phase_start" and phase is not None:
            started.append(str(phase))
        elif record.type == "phase_commit" and phase is not None:
            committed.append(str(phase))
    open_phases = [phase for phase in started if phase not in committed]
    in_flight = open_phases[-1] if open_phases else None
    shown = records[-tail:] if tail else records
    return {
        "present": bool(decoded.get("present")),
        "nslots": decoded.get("nslots", 0),
        "records": len(records),
        "by_kind": dict(sorted(by_kind.items())),
        "last_completed_phase": committed[-1] if committed else None,
        "in_flight_phase": in_flight,
        "tail": [record.as_dict() for record in shown],
    }
