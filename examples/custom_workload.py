"""Authoring a new workload against the public bytecode API.

Builds a small program from scratch with the ProgramBuilder — a Fibonacci
class with a synchronized memo table — and puts it through the same
machinery the bundled benchmarks use: both execution modes, the oracle
analysis, and a branch-prediction measurement on its trace.

Usage::

    python examples/custom_workload.py
"""

from repro.analysis.hybrid import OracleAnalysis
from repro.arch.branch import compare_predictors
from repro.isa import ProgramBuilder
from repro.vm import JavaVM


def build_program():
    pb = ProgramBuilder("fib-demo", main_class="demo/Main")

    memo = pb.cls("demo/Memo")
    memo.field("table", "ref")
    init = memo.method("<init>", argc=1)
    init.aload(0)
    init.new("java/util/Hashtable").dup()
    init.invokespecial("java/util/Hashtable", "<init>", 0)
    init.putfield("demo/Memo", "table")
    init.return_()
    # synchronized lookup/store — the library Hashtable is itself
    # synchronized, so this produces recursive (case b) locking too.
    get = memo.method("lookup", argc=1, returns=True, synchronized=True)
    absent = get.new_label()
    get.aload(0).getfield("demo/Memo", "table").iload(1)
    get.invokevirtual("java/util/Hashtable", "containsKey", 1, True)
    get.ifeq(absent)
    get.aload(0).getfield("demo/Memo", "table").iload(1)
    get.invokevirtual("java/util/Hashtable", "get", 1, True)
    get.ireturn()
    get.bind(absent)
    get.iconst(-1).ireturn()
    put = memo.method("store", argc=2, synchronized=True)
    put.aload(0).getfield("demo/Memo", "table")
    put.iload(1).iload(2)
    put.invokevirtual("java/util/Hashtable", "put", 2, False)
    put.return_()

    main = pb.cls("demo/Main")
    fib = main.method("fib", argc=2, returns=True, static=True)
    # locals: 0=n 1=memo 2=cached 3=result
    base = fib.new_label()
    hit = fib.new_label()
    fib.iload(0).iconst(2).if_icmplt(base)
    fib.aload(1).iload(0)
    fib.invokevirtual("demo/Memo", "lookup", 1, True)
    fib.istore(2)
    fib.iload(2).ifge(hit)
    fib.iload(0).iconst(1).isub().aload(1)
    fib.invokestatic("demo/Main", "fib", 2, True)
    fib.iload(0).iconst(2).isub().aload(1)
    fib.invokestatic("demo/Main", "fib", 2, True)
    fib.iadd().istore(3)
    fib.aload(1).iload(0).iload(3)
    fib.invokevirtual("demo/Memo", "store", 2, False)
    fib.iload(3).ireturn()
    fib.bind(hit)
    fib.iload(2).ireturn()
    fib.bind(base)
    fib.iload(0).ireturn()

    m = main.method("main", static=True)
    m.new("demo/Memo").dup().iconst(0)
    m.invokespecial("demo/Memo", "<init>", 1)
    m.astore(0)
    m.iconst(25).aload(0)
    m.invokestatic("demo/Main", "fib", 2, True)
    m.istore(1)
    m.getstatic("java/lang/System", "out").iload(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def main() -> None:
    print("building and verifying demo/Main...\n")
    interp = JavaVM(build_program().build(), "interp,record=True").run()
    jit = JavaVM(build_program().build(), "jit,record=True").run()
    assert interp.stdout == jit.stdout
    print(f"fib(25) = {interp.stdout[0]}")
    print(f"interpreter: {interp.cycles:,} cycles   "
          f"JIT: {jit.cycles:,} cycles "
          f"({interp.cycles / jit.cycles:.2f}x)")
    print(f"monitor acquisitions: {jit.sync['acquire_ops']} "
          f"(cases {jit.sync['case_counts']})")

    analysis = OracleAnalysis(interp, jit)
    s = analysis.summary()
    print(f"oracle would compile {s['compiled_by_oracle']}/{s['methods']} "
          f"methods, saving {100 * s['oracle_saving']:.1f}% over always-JIT")

    print("\ngshare misprediction per mode:")
    for name, result in (("interp", interp), ("jit", jit)):
        res = compare_predictors(result.trace, names=("gshare",))["gshare"]
        print(f"  {name:7s}: {100 * res.misprediction_rate:.1f}% "
              f"of {res.transfers:,} transfers")


if __name__ == "__main__":
    main()
