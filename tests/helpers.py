"""Shared test utilities: tiny-program builders and run helpers."""

from __future__ import annotations

from repro.isa import OPINFO, ArrayType, Op, ProgramBuilder
from repro.vm import JavaVM


def expr_main(body) -> "ProgramBuilder":
    """A program whose static main() is filled in by ``body(m)``.

    ``body`` receives the MethodBuilder; it must leave one int on the
    stack, which is printed (so tests can assert on stdout) — or handle
    output itself and return ``False``.
    """
    pb = ProgramBuilder("test", main_class="Test")
    cb = pb.cls("Test")
    m = cb.method("main", static=True)
    wants_print = body(m)
    if wants_print is not False:
        m.istore(60)
        m.getstatic("java/lang/System", "out").iload(60)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def run_program(pb_or_program, config="interp"):
    """Build+run under ``config`` (a RunConfig or its token); returns
    the VMResult."""
    program = (pb_or_program.build()
               if isinstance(pb_or_program, ProgramBuilder)
               else pb_or_program)
    return JavaVM(program, config).run()


def eval_int(body, config="interp") -> int:
    """Evaluate a main() body that leaves an int on the stack."""
    result = run_program(expr_main(body), config)
    assert result.stdout, "program printed nothing"
    return int(result.stdout[-1])


def eval_both_modes(body) -> int:
    """Evaluate under interpreter and JIT; assert they agree."""
    interp = eval_int(body, "interp")
    jit = eval_int(body, "jit")
    assert interp == jit, f"mode divergence: interp={interp} jit={jit}"
    return interp


def observables(result) -> dict:
    """Every ``VMResult`` attribute but the trace, arrays as lists."""
    return {name: value.tolist() if hasattr(value, "tolist") else value
            for name, value in vars(result).items() if name != "trace"}


#: Opcode kinds whose ops may load classes, compile, OSR or deoptimize;
#: every other opcode is pure (a semantics function plus its emission).
_IMPURE_KINDS = frozenset({"return", "field", "invoke", "new",
                           "typecheck", "monitor"})
PURE_OPS = [op for op in Op if OPINFO[op].kind not in _IMPURE_KINDS]

#: Calls of ``work`` from the all-pure-ops program's ``main``.
ALL_OPS_CALLS = 12


def all_pure_ops_program():
    """A static ``work(n)`` whose loop runs every pure op, called
    ``ALL_OPS_CALLS`` times from ``main``: each conditional branch both
    taken and not taken (by the parity of the loop counter), each switch
    hitting a case and its default, every array kind loaded and stored,
    and one backward conditional branch.  ``main`` calls it often enough
    to compile it under ``jit`` and to promote it under ``tiered``."""
    pb = ProgramBuilder("pure_ops", main_class="Test")
    cb = pb.cls("Test")
    m = cb.method("work", argc=1, returns=True, static=True)
    # locals: 0 n, 1 i, 2 acc, 3 f, 4 int[], 5 float[], 6 Test[],
    # 7 byte[], 8 char[], 9 string, 10 i & 1, 11 inner counter
    for local, make in ((4, lambda: m.newarray(ArrayType.INT)),
                        (5, lambda: m.newarray(ArrayType.FLOAT)),
                        (6, lambda: m.anewarray("Test")),
                        (7, lambda: m.newarray(ArrayType.BYTE)),
                        (8, lambda: m.newarray(ArrayType.CHAR))):
        m.iconst(4)
        make()
        m.astore(local)
    m.ldc_str("pin").astore(9)
    m.aload(6).iconst(0).aload(9).aastore()
    m.aload(6).iconst(1).aconst_null().aastore()
    m.nop().iconst(0).istore(2).fconst(1.0).fstore(3).iconst(0).istore(1)
    loop, done = m.new_label(), m.new_label()
    m.bind(loop)
    m.iload(1).iload(0).if_icmpge(done)
    m.iload(1).iconst(1).iand().istore(10)
    # int arithmetic and narrowing
    m.iload(2).iload(1).iadd().iconst(3).imul().iconst(7).isub()
    m.iconst(5).idiv().iconst(1000).irem().ineg().iconst(2).ishl()
    m.iconst(1).ishr().iconst(3).iushr().iconst(255).iand()
    m.iconst(16).ior().iload(1).ixor().i2b().i2c().i2s().istore(2)
    # float arithmetic
    m.fload(3).iload(1).i2f().fadd().ldc_float(0.25).fsub()
    m.fconst(2.0).fmul().fconst(3.0).fdiv().fneg().fstore(3)
    m.fload(3).f2i().iload(2).iadd().istore(2)
    # stack shuffles
    m.iload(2).dup().iadd().istore(2)
    m.iload(1).iload(2).swap().isub().istore(2)
    m.iload(1).iload(2).dup_x1().iadd().iadd().istore(2)
    m.iconst(9).pop()

    def skip(push, branch):
        """``push`` operands, then ``branch`` over one ``iinc``: taken
        on one parity of ``i`` and not taken on the other."""
        over = m.new_label()
        push()
        branch(over)
        m.iinc(2, 1)
        m.bind(over)

    def p():                # i & 1
        return m.iload(10)

    def p_minus_1():
        return m.iload(10).iconst(1).isub()

    def ref():              # "pin" when i is even, null when it is odd
        return m.aload(6).iload(10).aaload()

    skip(p, m.ifeq)
    skip(p, m.ifne)
    skip(p_minus_1, m.iflt)
    skip(p_minus_1, m.ifge)
    skip(p, m.ifgt)
    skip(p, m.ifle)
    skip(lambda: p().iconst(0), m.if_icmpeq)
    skip(lambda: p().iconst(0), m.if_icmpne)
    skip(lambda: p().iconst(1), m.if_icmplt)
    skip(lambda: p().iconst(1), m.if_icmpge)
    skip(lambda: p().iconst(0), m.if_icmpgt)
    skip(lambda: p().iconst(0), m.if_icmple)
    skip(lambda: ref().aload(9), m.if_acmpeq)
    skip(lambda: ref().aload(9), m.if_acmpne)
    skip(ref, m.ifnull)
    skip(ref, m.ifnonnull)
    skip(lambda: p().i2f().ldc_float(0.5).fcmpl(), m.ifle)
    skip(lambda: p().i2f().ldc_float(0.5).fcmpg(), m.ifgt)
    # switches: i % 3 hits a case or the default / a key or the default
    join = m.new_label()
    cases = [m.new_label() for _ in range(3)]
    m.iload(1).iconst(3).irem().tableswitch(0, cases[:2], cases[2])
    for delta, case in zip((3, 5, 7), cases):
        m.bind(case)
        m.iinc(2, delta).goto(join)
    m.bind(join)
    join = m.new_label()
    hit, miss = m.new_label(), m.new_label()
    m.iload(1).iconst(3).irem().lookupswitch({0: hit, 5: hit}, miss)
    m.bind(hit)
    m.iinc(2, 11).goto(join)
    m.bind(miss)
    m.iinc(2, 13)
    m.bind(join)
    # array stores then loads, indexed by i & 1
    m.aload(4).iload(10).iload(2).iastore()
    m.aload(5).iload(10).fload(3).fastore()
    m.aload(7).iload(10).iload(2).bastore()
    m.aload(8).iload(10).iload(2).castore()
    m.aload(4).iload(10).iaload()
    m.aload(5).iload(10).faload().f2i().iadd()
    m.aload(7).iload(10).baload().iadd()
    m.aload(8).iload(10).caload().iadd()
    m.aload(4).arraylength().iadd().istore(2)
    # a backward conditional branch: a two-trip inner loop
    inner = m.new_label()
    m.iconst(0).istore(11)
    m.bind(inner)
    m.iinc(11, 1).iload(11).iconst(2).if_icmplt(inner)
    m.iinc(1, 1).goto(loop)
    m.bind(done)
    m.iload(2).ireturn()

    main = cb.method("main", static=True)
    top, end = main.new_label(), main.new_label()
    main.iconst(0).istore(0).iconst(0).istore(1)
    main.bind(top)
    main.iload(0).iconst(ALL_OPS_CALLS).if_icmpge(end)
    main.iload(1).iload(0).iconst(6).iadd().invokestatic(
        "Test", "work", 1, True).ixor().istore(1)
    main.iinc(0, 1).goto(top)
    main.bind(end)
    main.getstatic("java/lang/System", "out").iload(1)
    main.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    main.return_()
    return pb.build()
