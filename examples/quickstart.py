"""Quickstart: run a benchmark under both JVM execution modes.

Runs the `compress` workload on the simulated JVM with the interpreter
and with the JIT compiler, and prints the comparison the whole paper is
built on: same program, same semantics, very different machine behavior.

Usage::

    python examples/quickstart.py [scale]
"""

import sys

from repro.analysis import run_vm


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "s1"

    print(f"running compress ({scale}) on the simulated JVM...\n")
    interp = run_vm("compress", scale, "interp")
    jit = run_vm("compress", scale, "jit")

    assert interp.stdout == jit.stdout, "modes must agree semantically"
    print(f"program output          : {interp.stdout}")
    print(f"bytecodes executed      : {interp.bytecodes_executed:,}")
    print()
    print(f"{'':24s}{'interpreter':>14s}{'JIT':>14s}")
    print(f"{'cycles':24s}{interp.cycles:>14,}{jit.cycles:>14,}")
    print(f"{'native instructions':24s}{interp.instructions:>14,}"
          f"{jit.instructions:>14,}")
    print(f"{'translate cycles':24s}{interp.translate_cycles:>14,}"
          f"{jit.translate_cycles:>14,}")
    print(f"{'methods compiled':24s}{interp.methods_compiled:>14}"
          f"{jit.methods_compiled:>14}")
    print(f"{'classes loaded':24s}{interp.classes_loaded:>14}"
          f"{jit.classes_loaded:>14}")
    print()
    speedup = interp.cycles / jit.cycles
    xlate = 100 * jit.translate_cycles / jit.cycles
    print(f"JIT speedup over interpretation : {speedup:.2f}x")
    print(f"share of JIT run spent translating : {xlate:.1f}%")
    print()
    print("Next: python -m repro.experiments fig1   (the full Figure 1 study)")


if __name__ == "__main__":
    main()
