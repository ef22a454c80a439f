"""Access-trace recording and cross-device replay.

A standard methodology in storage research: capture a workload's memory
access trace once, then *replay* it against different device cost models
to predict performance on hardware you do not have -- exactly the
situation the paper's §VI-F migration plan describes (Optane is
discontinued; ReRAM/PCM are candidates).

Usage::

    memory = SimulatedMemory(DeviceProfile.nvm(), size)
    with record_trace(memory) as trace:
        ... run the workload ...
    for profile in (DeviceProfile.reram(), DeviceProfile.pcm()):
        print(profile.name, replay_trace(trace, profile).ns)

The trace stores ``(op, offset, size)`` events ('r' read, 'w' write,
'f' flush); replay re-runs them through a fresh simulated memory of the
target profile, reproducing cache behaviour and cost accounting without
re-executing the analytics.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import CorruptDataError
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory

_MAGIC = b"NTTR"
_EVENT = struct.Struct("<cQI")


@dataclass
class AccessTrace:
    """A recorded sequence of memory access events."""

    device_size: int
    events: list[tuple[str, int, int]] = field(default_factory=list)
    #: Simulated ns charged to the recorded device while recording.  A
    #: transient accumulator for comparing live vs replayed cost; NOT
    #: persisted by :meth:`save`/:meth:`load`.
    charged_ns: float = 0.0

    def __len__(self) -> int:
        return len(self.events)

    @property
    def bytes_read(self) -> int:
        return sum(s for op, _, s in self.events if op == "r")

    @property
    def bytes_written(self) -> int:
        return sum(s for op, _, s in self.events if op == "w")

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write the trace to disk; returns bytes written."""
        out = bytearray(_MAGIC)
        out.extend(struct.pack("<QQ", self.device_size, len(self.events)))
        for op, offset, size in self.events:
            out.extend(_EVENT.pack(op.encode("ascii"), offset, size))
        Path(path).write_bytes(out)
        return len(out)

    @classmethod
    def load(cls, path: str | Path) -> "AccessTrace":
        """Read a trace from disk.

        Raises:
            CorruptDataError: on bad magic or truncation.
        """
        blob = Path(path).read_bytes()
        if blob[:4] != _MAGIC:
            raise CorruptDataError("bad magic: not an access trace")
        try:
            device_size, count = struct.unpack_from("<QQ", blob, 4)
            events = []
            pos = 20
            for _ in range(count):
                op, offset, size = _EVENT.unpack_from(blob, pos)
                pos += _EVENT.size
                events.append((op.decode("ascii"), offset, size))
        except struct.error as exc:
            raise CorruptDataError("truncated access trace") from exc
        return cls(device_size=device_size, events=events)


@contextmanager
def record_trace(memory: SimulatedMemory) -> Iterator[AccessTrace]:
    """Record every read/write/flush on ``memory`` for the block's duration.

    The memory keeps functioning normally (costs still charged); the
    trace is a side channel.
    """
    trace = AccessTrace(device_size=memory.size)
    clock = memory.clock
    original_read = memory.read
    original_write = memory.write
    original_flush = memory.flush
    original_fill = memory.fill

    def read(offset: int, size: int) -> bytes:
        trace.events.append(("r", offset, size))
        start = clock.ns
        data = original_read(offset, size)
        trace.charged_ns += clock.ns - start
        return data

    def write(offset: int, data) -> None:
        trace.events.append(("w", offset, len(data)))
        start = clock.ns
        original_write(offset, data)
        trace.charged_ns += clock.ns - start

    def flush() -> int:
        trace.events.append(("f", 0, 0))
        start = clock.ns
        flushed = original_flush()
        trace.charged_ns += clock.ns - start
        return flushed

    def fill(offset: int, size: int, value: int = 0) -> None:
        # fill charges exactly like one write of ``size`` bytes, so the
        # trace records it as that write.
        write(offset, bytes([value]) * size)

    memory.read = read  # type: ignore[method-assign]
    memory.write = write  # type: ignore[method-assign]
    memory.flush = flush  # type: ignore[method-assign]
    memory.fill = fill  # type: ignore[method-assign]
    # The scalar accessors (read_uint/write_uint/rmw_add) call read and
    # write and so reach the patches above.  Hoisted loops and kernels
    # bypass them; kernel_ready goes False for the duration so every
    # access flows through the trace.
    was_recording = memory._recording
    memory._recording = True
    memory.image_epoch += 1  # host decode caches stand down too
    try:
        yield trace
    finally:
        memory._recording = was_recording
        memory.read = original_read  # type: ignore[method-assign]
        memory.write = original_write  # type: ignore[method-assign]
        memory.flush = original_flush  # type: ignore[method-assign]
        memory.fill = original_fill  # type: ignore[method-assign]


def replay_trace(
    trace: AccessTrace,
    profile: DeviceProfile,
    cache_bytes: int = 1 << 21,
) -> SimulatedClock:
    """Re-run a trace against a different device profile.

    Returns the clock holding the replayed workload's simulated time.
    Data contents are immaterial to cost, so writes replay zeros.
    """
    clock = SimulatedClock()
    memory = SimulatedMemory(
        profile, trace.device_size, clock, cache_bytes=cache_bytes
    )
    zeros = bytes(4096)
    for op, offset, size in trace.events:
        if op == "r":
            memory.read(offset, size)
        elif op == "w":
            if size <= len(zeros):
                memory.write(offset, zeros[:size])
            else:
                memory.write(offset, bytes(size))
        elif op == "f":
            memory.flush()
        else:  # pragma: no cover - load() validates ops
            raise CorruptDataError(f"unknown trace op {op!r}")
    return clock
