"""Synchronization designs head to head (Section 5).

Runs a synchronization-heavy benchmark under the JDK 1.1.6 monitor
cache, 24-bit thin locks and the 1-bit variant, showing the case mix
and where the thin lock's ~2x win comes from.

Usage::

    python examples/lock_designs.py [benchmark] [scale]
"""

import sys

from repro.analysis import run_vm
from repro.vm import RunConfig


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "jack"
    scale = sys.argv[2] if len(sys.argv) > 2 else "s1"

    print(f"lock designs on {benchmark} ({scale}), JIT mode\n")
    results = {}
    for mgr in ("monitor-cache", "thin-lock", "one-bit-lock"):
        results[mgr] = run_vm(benchmark, scale, RunConfig(lock_manager=mgr))

    mc = results["monitor-cache"]
    counts = mc.sync["case_counts"]
    total = sum(counts.values()) or 1
    print("acquisition case mix (same for every design):")
    for case, label in (("a", "unlocked"), ("b", "recursive < 256"),
                        ("c", "recursive >= 256"), ("d", "contended")):
        print(f"  ({case}) {label:18s}: {counts[case]:>6} "
              f"({100 * counts[case] / total:.1f}%)")

    print(f"\n{'design':16s}{'sync cycles':>14s}{'share of run':>14s}"
          f"{'speedup':>10s}")
    for mgr, r in results.items():
        share = 100 * r.sync_cycles / r.cycles
        speedup = mc.sync_cycles / max(1, r.sync_cycles)
        print(f"{mgr:16s}{r.sync_cycles:>14,}{share:>13.1f}%"
              f"{speedup:>9.2f}x")

    print("\nEvery design agrees semantically:",
          all(r.stdout == mc.stdout for r in results.values()))
    print("The thin lock removes the global cache lock + hash + chain walk")
    print("from cases (a)/(b); the 1-bit variant keeps most of the win for")
    print("one header bit by fast-pathing only case (a).")


if __name__ == "__main__":
    main()
