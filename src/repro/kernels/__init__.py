"""Zero-copy kernels for the simulated-memory hot paths.

This package is the only layer allowed to touch ``SimulatedMemory._buf``
through ``memoryview`` views (enforced by nvmlint rule ND007).  Every
kernel obeys the **charge-from-plan / execute-vectorized** split:

1. derive the access plan (which lines are touched, how many bytes move,
   which ops run) exactly as the scalar path would,
2. charge simulated nanoseconds through the *existing* cost model --
   bit-identical to issuing the scalar calls one by one (held by ``==``
   assertions in ``tests/test_kernel_equivalence.py``),
3. perform the data movement through ``memoryview.cast`` views instead
   of per-field ``int.to_bytes``/``int.from_bytes`` round-trips.

Kernels run on every memory built with the default
``SimulatedMemory(reference=False)`` while :attr:`kernel_ready
<repro.nvm.memory.SimulatedMemory.kernel_ready>` holds; a reference
memory (``EngineConfig(kernels=False)``) runs the scalar loops instead.
Simulated time, per-device stats, wear, and buffer images are identical
either way; only wall-clock changes.  See docs/kernels.md.
"""

from __future__ import annotations

import sys

from repro.kernels.core import Kernels, typed_array


def numpy_or_none():
    """The numpy module if the process already imported it, else ``None``.

    The kernels never use numpy; this only reports its version in
    environment stamps.  It imports nothing.
    """
    return sys.modules.get("numpy")


__all__ = ["Kernels", "numpy_or_none", "typed_array"]
