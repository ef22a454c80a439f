"""Simulated storage substrate: devices, memories, pools, persistence.

This subpackage stands in for the Intel Optane platform used in the paper.
It provides:

* :class:`~repro.nvm.device.DeviceProfile` -- cost tables for DRAM, NVM
  (Optane-like), SSD and HDD media.
* :class:`~repro.nvm.memory.SimulatedMemory` -- a byte-addressable memory
  whose every read/write is charged to a shared simulated clock through an
  LRU line-cache model.
* :class:`~repro.nvm.allocator.PoolAllocator` and
  :class:`~repro.nvm.pool.NvmPool` -- pool management with a persistent
  region directory.
* :mod:`~repro.nvm.persist` -- phase-level (libpmem-style flush) and
  operation-level (libpmemobj-style undo-log transaction) persistence.
"""

from repro.nvm.allocator import PoolAllocator
from repro.nvm.cache import LineCache
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedClock, SimulatedMemory
from repro.nvm.persist import PhasePersistence, Transaction, TransactionLog
from repro.nvm.pool import NvmPool
from repro.nvm.stats import MemoryStats
from repro.nvm.wear import WearReport, wear_report

__all__ = [
    "DeviceProfile",
    "LineCache",
    "MemoryStats",
    "NvmPool",
    "PhasePersistence",
    "PoolAllocator",
    "SimulatedClock",
    "SimulatedMemory",
    "Transaction",
    "TransactionLog",
    "WearReport",
    "wear_report",
]
