"""A tour of the simulated storage substrate.

Walks through the mechanisms that make the reproduction's numbers move:
device cost tables, cache locality, access amplification, persistence
cost and wear accounting.  Useful for understanding *why* the figure
benchmarks behave as they do.  To run a workload on one of the §VI-F
ReRAM/PCM profiles, pass ``EngineConfig(device="reram")`` (or ``"pcm"``).

Run with::

    python examples/cost_model_tour.py
"""

from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory
from repro.nvm.wear import wear_report


def show(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    show("1. device profiles")
    header = f"{'device':8s} {'line':>6s} {'read':>9s} {'write':>9s} {'flush':>9s}"
    print(header)
    for name in ("dram", "reram", "nvm", "pcm", "ssd", "hdd"):
        p = DeviceProfile.by_name(name)
        print(
            f"{p.name:8s} {p.line_size:5d}B {p.read_ns:7.0f}ns "
            f"{p.write_ns:7.0f}ns {p.flush_ns:7.0f}ns"
        )

    show("2. locality is performance (the pruning-method rationale)")
    nvm = DeviceProfile.nvm()
    packed = SimulatedMemory(nvm, 1 << 20, cache_bytes=1 << 12)
    for i in range(256):
        packed.read(i * 8, 8)  # 256 objects packed on 8 lines
    scattered = SimulatedMemory(nvm, 1 << 20, cache_bytes=1 << 12)
    for i in range(256):
        scattered.read((i * 4099) % ((1 << 20) - 8), 8)  # one line each
    print(f"256 packed 8-byte reads   : {packed.clock.ns:9.0f} ns")
    print(f"256 scattered 8-byte reads: {scattered.clock.ns:9.0f} ns "
          f"({scattered.clock.ns / packed.clock.ns:.0f}x)")

    show("3. persistence is not free (phase vs operation level)")
    lazy = SimulatedMemory(nvm, 1 << 20)
    for i in range(512):
        lazy.write(i * 64, b"x" * 64)
    lazy.flush()
    eager = SimulatedMemory(nvm, 1 << 20)
    for i in range(512):
        eager.write(i * 64, b"x" * 64)
        eager.flush()  # per-operation durability
    print(f"512 writes, flush once     : {lazy.clock.ns:9.0f} ns")
    print(f"512 writes, flush each time: {eager.clock.ns:9.0f} ns "
          f"({eager.clock.ns / lazy.clock.ns:.1f}x)")

    show("4. endurance accounting (Section VII)")
    worn = SimulatedMemory(nvm, 1 << 20, track_wear=True)
    for round_number in range(50):
        worn.write(0, bytes([round_number]) * 256)     # hot line
        worn.write(4096 + round_number * 256, b"z" * 256)  # spread lines
        worn.flush()
    report = wear_report(worn)
    print(f"programs={report.total_programs}, cells={report.lines_touched}, "
          f"hottest cell={report.max_line_programs} programs "
          f"(imbalance {report.imbalance:.1f}x)")
    print(f"hottest cell used {report.lifetime_fraction_used() * 100:.4f}% "
          f"of a 10^7-cycle endurance budget")


if __name__ == "__main__":
    main()
