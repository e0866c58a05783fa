"""Authoring a workload in the textual assembly syntax.

The same program as examples/custom_workload.py's spirit, but written as
assembly text, then inspected with the bytecode lister and the native
trace disassembler — the debugging workflow for workload authors.

Usage::

    python examples/assembler_demo.py
"""

from repro.isa.asm import assemble, list_method
from repro.native.disasm import disassemble, format_region_profile
from repro.vm import JavaVM

SOURCE = """
; gcd(1071, 462) by repeated subtraction, then print it
.class demo/Gcd
.method gcd static returns argc=2
loop:
    iload 0
    iload 1
    if_icmpeq done
    iload 0
    iload 1
    if_icmplt second
    iload 0
    iload 1
    isub
    istore 0
    goto loop
second:
    iload 1
    iload 0
    isub
    istore 1
    goto loop
done:
    iload 0
    ireturn
.end
.method main static
    getstatic java/lang/System out
    iconst 1071
    iconst 462
    invokestatic demo/Gcd gcd 2 ret
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""


def main() -> None:
    program = assemble(SOURCE)
    print("bytecode listing:")
    print(list_method(program.get_class("demo/Gcd").methods["gcd"]))

    vm = JavaVM(program, "interp,record=True")
    result = vm.run()
    print(f"\nprogram output: {result.stdout}   "
          f"({result.bytecodes_executed} bytecodes, "
          f"{result.instructions:,} native instructions)")

    print("\nfirst native instructions of the run (class loading):")
    print(disassemble(result.trace, start=0, count=10))

    print("\nwhere the run's references landed:")
    print(format_region_profile(result.trace))


if __name__ == "__main__":
    main()
