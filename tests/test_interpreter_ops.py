"""Bytecode semantics, opcode by opcode, under both execution modes.

Every case runs the same program interpreted and JIT-compiled and
asserts identical results — the core contract that lets the paper's
methodology compare the two modes on one workload.
"""

import pytest

from repro.isa import ArrayType
from repro.isa.opcodes import Op
from repro.vm import JavaVM
from repro.vm import interpreter, pureops
from repro.vm.interp_templates import shared_templates

from helpers import all_pure_ops_program, eval_both_modes, expr_main


class TestArithmetic:
    @pytest.mark.parametrize("a,b,op,expected", [
        (7, 3, "iadd", 10),
        (7, 3, "isub", 4),
        (7, 3, "imul", 21),
        (7, 3, "idiv", 2),
        (-7, 3, "idiv", -2),
        (7, 3, "irem", 1),
        (-7, 3, "irem", -1),
        (6, 3, "iand", 2),
        (6, 3, "ior", 7),
        (6, 3, "ixor", 5),
        (3, 2, "ishl", 12),
        (-8, 1, "ishr", -4),
        (2**31 - 1, 1, "iadd", -(2**31)),
    ])
    def test_int_binops(self, a, b, op, expected):
        def body(m):
            m.iconst(a).iconst(b)
            getattr(m, op)()
        assert eval_both_modes(body) == expected

    def test_iushr(self):
        def body(m):
            m.iconst(-1).iconst(28).iushr()
        assert eval_both_modes(body) == 15

    def test_ineg(self):
        def body(m):
            m.iconst(42).ineg()
        assert eval_both_modes(body) == -42

    def test_imul_wraps(self):
        def body(m):
            m.iconst(0x10000).iconst(0x10000).imul()
        assert eval_both_modes(body) == 0

    def test_float_pipeline(self):
        def body(m):
            m.fconst(1.5).fconst(2.5).fadd()      # 4.0
            m.fconst(2.0).fmul()                  # 8.0
            m.fconst(4.0).fdiv()                  # 2.0
            m.fneg()                              # -2.0
            m.f2i()
        assert eval_both_modes(body) == -2

    def test_i2f_f2i_roundtrip(self):
        def body(m):
            m.iconst(123).i2f().f2i()
        assert eval_both_modes(body) == 123

    def test_narrowing_chain(self):
        def body(m):
            m.iconst(0x1FF).i2b()
        assert eval_both_modes(body) == -1

    def test_i2c(self):
        def body(m):
            m.iconst(-1).i2c()
        assert eval_both_modes(body) == 0xFFFF

    def test_i2s(self):
        def body(m):
            m.iconst(0x18000).i2s()
        assert eval_both_modes(body) == -32768

    @pytest.mark.parametrize("a,b,expected", [
        (1.0, 2.0, -1), (2.0, 1.0, 1), (1.0, 1.0, 0),
    ])
    def test_fcmpl(self, a, b, expected):
        def body(m):
            m.fconst(a).fconst(b).fcmpl()
        assert eval_both_modes(body) == expected


class TestLocalsAndStack:
    def test_store_load_roundtrip(self):
        def body(m):
            m.iconst(11).istore(1).iload(1)
        assert eval_both_modes(body) == 11

    def test_iinc(self):
        def body(m):
            m.iconst(5).istore(1)
            m.iinc(1, 7)
            m.iinc(1, -2)
            m.iload(1)
        assert eval_both_modes(body) == 10

    def test_dup(self):
        def body(m):
            m.iconst(4).dup().iadd()
        assert eval_both_modes(body) == 8

    def test_swap(self):
        def body(m):
            m.iconst(10).iconst(3).swap().isub()
        assert eval_both_modes(body) == -7

    def test_dup_x1(self):
        # [a b] -> [b a b]: (1 2) -> 2 1 2 -> 2 - (1 - 2)... compute concretely
        def body(m):
            m.iconst(1).iconst(2).dup_x1()
            m.isub().isub()   # 2 - (1 - 2) = 3... stack: [2,1,2] -> [2,-1] -> [3]
        assert eval_both_modes(body) == 3

    def test_pop(self):
        def body(m):
            m.iconst(9).iconst(5).pop()
        assert eval_both_modes(body) == 9

    def test_float_locals(self):
        def body(m):
            m.fconst(2.5).fstore(1).fload(1).fload(1).fadd().f2i()
        assert eval_both_modes(body) == 5


class TestControlFlow:
    @pytest.mark.parametrize("value,op,taken", [
        (0, "ifeq", True), (1, "ifeq", False),
        (0, "ifne", False), (1, "ifne", True),
        (-1, "iflt", True), (0, "iflt", False),
        (0, "ifge", True), (-1, "ifge", False),
        (1, "ifgt", True), (0, "ifgt", False),
        (0, "ifle", True), (1, "ifle", False),
    ])
    def test_if1(self, value, op, taken):
        def body(m):
            yes = m.new_label()
            out = m.new_label()
            m.iconst(value)
            getattr(m, op)(yes)
            m.iconst(0).goto(out)
            m.bind(yes)
            m.iconst(1)
            m.bind(out)
        assert eval_both_modes(body) == (1 if taken else 0)

    @pytest.mark.parametrize("a,b,op,taken", [
        (1, 1, "if_icmpeq", True), (1, 2, "if_icmpeq", False),
        (1, 2, "if_icmpne", True),
        (1, 2, "if_icmplt", True), (2, 2, "if_icmplt", False),
        (2, 2, "if_icmpge", True),
        (3, 2, "if_icmpgt", True),
        (2, 3, "if_icmple", True),
    ])
    def test_if2(self, a, b, op, taken):
        def body(m):
            yes = m.new_label()
            out = m.new_label()
            m.iconst(a).iconst(b)
            getattr(m, op)(yes)
            m.iconst(0).goto(out)
            m.bind(yes)
            m.iconst(1)
            m.bind(out)
        assert eval_both_modes(body) == (1 if taken else 0)

    def test_null_branches(self):
        def body(m):
            yes = m.new_label()
            out = m.new_label()
            m.aconst_null().ifnull(yes)
            m.iconst(0).goto(out)
            m.bind(yes)
            m.iconst(1)
            m.bind(out)
        assert eval_both_modes(body) == 1

    def test_acmp(self):
        def body(m):
            same = m.new_label()
            out = m.new_label()
            m.new("java/lang/Object").dup()
            m.invokespecial("java/lang/Object", "<init>", 0)
            m.astore(1)
            m.aload(1).aload(1).if_acmpeq(same)
            m.iconst(0).goto(out)
            m.bind(same)
            m.iconst(1)
            m.bind(out)
        assert eval_both_modes(body) == 1

    def test_counting_loop(self):
        def body(m):
            loop = m.new_label()
            done = m.new_label()
            m.iconst(0).istore(1)
            m.iconst(0).istore(2)
            m.bind(loop)
            m.iload(1).iconst(10).if_icmpge(done)
            m.iload(2).iload(1).iadd().istore(2)
            m.iinc(1, 1)
            m.goto(loop)
            m.bind(done)
            m.iload(2)
        assert eval_both_modes(body) == 45

    @pytest.mark.parametrize("key,expected", [(0, 10), (1, 11), (2, 12),
                                              (5, 99), (-3, 99)])
    def test_tableswitch(self, key, expected):
        def body(m):
            cases = [m.new_label() for _ in range(3)]
            default = m.new_label()
            out = m.new_label()
            m.iconst(key)
            m.tableswitch(0, cases, default)
            for i, label in enumerate(cases):
                m.bind(label)
                m.iconst(10 + i).goto(out)
            m.bind(default)
            m.iconst(99)
            m.bind(out)
        assert eval_both_modes(body) == expected

    @pytest.mark.parametrize("key,expected", [(7, 1), (42, 2), (0, -1)])
    def test_lookupswitch(self, key, expected):
        def body(m):
            c7, c42, default, out = (m.new_label() for _ in range(4))
            m.iconst(key)
            m.lookupswitch({7: c7, 42: c42}, default)
            m.bind(c7)
            m.iconst(1).goto(out)
            m.bind(c42)
            m.iconst(2).goto(out)
            m.bind(default)
            m.iconst(-1)
            m.bind(out)
        assert eval_both_modes(body) == expected


class TestArrays:
    @pytest.mark.parametrize("atype,store,load,value", [
        (ArrayType.INT, "iastore", "iaload", 12345),
        (ArrayType.BYTE, "bastore", "baload", -12),
        (ArrayType.CHAR, "castore", "caload", 65),
        (ArrayType.SHORT, "iastore", "iaload", 77),
    ])
    def test_primitive_roundtrip(self, atype, store, load, value):
        def body(m):
            m.iconst(4).newarray(atype).astore(1)
            m.aload(1).iconst(2).iconst(value)
            getattr(m, store)()
            m.aload(1).iconst(2)
            getattr(m, load)()
        assert eval_both_modes(body) == value

    def test_byte_store_truncates(self):
        def body(m):
            m.iconst(4).newarray(ArrayType.BYTE).astore(1)
            m.aload(1).iconst(0).iconst(0x1FF).bastore()
            m.aload(1).iconst(0).baload()
        assert eval_both_modes(body) == -1

    def test_float_array(self):
        def body(m):
            m.iconst(2).newarray(ArrayType.FLOAT).astore(1)
            m.aload(1).iconst(0).fconst(1.5).fastore()
            m.aload(1).iconst(0).faload().fconst(2.0).fmul().f2i()
        assert eval_both_modes(body) == 3

    def test_ref_array(self):
        def body(m):
            m.iconst(3).anewarray("java/lang/Object").astore(1)
            m.new("java/lang/Object").dup()
            m.invokespecial("java/lang/Object", "<init>", 0)
            m.astore(2)
            m.aload(1).iconst(1).aload(2).aastore()
            same = m.new_label()
            out = m.new_label()
            m.aload(1).iconst(1).aaload()
            m.aload(2).if_acmpeq(same)
            m.iconst(0).goto(out)
            m.bind(same)
            m.iconst(1)
            m.bind(out)
        assert eval_both_modes(body) == 1

    def test_arraylength(self):
        def body(m):
            m.iconst(17).newarray(ArrayType.INT).arraylength()
        assert eval_both_modes(body) == 17

    def test_out_of_bounds_raises(self):
        from repro.vm import VMError  # noqa: F401
        from helpers import expr_main, run_program
        def body(m):
            m.iconst(2).newarray(ArrayType.INT).astore(1)
            m.aload(1).iconst(5).iaload()
        with pytest.raises(IndexError):
            run_program(expr_main(body))


class TestFieldsAndObjects:
    def _with_point(self, pb):
        cb = pb.cls("Point")
        cb.field("x", "int").field("y", "float")
        init = cb.method("<init>")
        init.return_()

    def test_instance_fields(self):
        from helpers import expr_main, run_program
        pb = expr_main(lambda m: (
            m.new("Point").dup(),
            m.invokespecial("Point", "<init>", 0),
            m.astore(1),
            m.aload(1).iconst(33).putfield("Point", "x"),
            m.aload(1).getfield("Point", "x"),
        ) and None)
        self._with_point(pb)
        res_i = run_program(pb, "interp")
        pb2 = expr_main(lambda m: (
            m.new("Point").dup(),
            m.invokespecial("Point", "<init>", 0),
            m.astore(1),
            m.aload(1).iconst(33).putfield("Point", "x"),
            m.aload(1).getfield("Point", "x"),
        ) and None)
        self._with_point(pb2)
        res_j = run_program(pb2, "jit")
        assert res_i.stdout == res_j.stdout == ["33"]

    def test_static_fields(self):
        def body(m):
            m.iconst(7).putstatic("Test", "counter")
            m.getstatic("Test", "counter")
            m.iconst(1).iadd().putstatic("Test", "counter")
            m.getstatic("Test", "counter")

        from helpers import expr_main, run_program
        for mode in ("interp", "jit"):
            pb = expr_main(body)
            pb._class_builders[0].static_field("counter", "int")
            assert run_program(pb, mode).stdout == ["8"]

    def test_instanceof_and_checkcast(self):
        from helpers import expr_main, run_program
        def make():
            def body(m):
                m.new("Sub").dup()
                m.invokespecial("Sub", "<init>", 0)
                m.astore(1)
                m.aload(1).instanceof("Base").istore(2)
                m.aload(1).checkcast("Base").pop()
                m.aconst_null().instanceof("Base")
                m.iload(2).iadd()
            pb = expr_main(body)
            base = pb.cls("Base")
            base.method("<init>").return_()
            sub = pb.cls("Sub", super_name="Base")
            sub.method("<init>").return_()
            return pb
        for mode in ("interp", "jit"):
            assert run_program(make(), mode).stdout == ["1"]

    def test_bad_cast_raises(self):
        from repro.vm import VMError
        from helpers import expr_main, run_program
        def body(m):
            m.new("java/lang/Object").dup()
            m.invokespecial("java/lang/Object", "<init>", 0)
            m.checkcast("java/lang/Thread").pop()
            m.iconst(0)
        with pytest.raises(VMError, match="ClassCastException"):
            run_program(expr_main(body))


class TestDispatchTables:
    def test_each_opcode_has_a_sem_or_a_handler(self):
        """A pure op runs its sem and its ea builder in the stepper's
        frame-local loop and has no handler; every other op runs its
        full handler and has no sem or builder."""
        program = expr_main(lambda m: m.iconst(0)).build()
        interp = JavaVM(program, "interp").interp
        for op in Op:
            sem, handler = interp._sem[op], interp._handlers[op]
            assert (sem is None) != (handler is None), op.name
            assert (pureops.EAS[op] is None) == (sem is None), op.name
            assert pureops.DYN[op] is None or sem is not None, op.name

    def test_each_pure_op_builds_its_templates_eas(self, monkeypatch):
        """Each pure op's interpreter-ea builder returns one ea per
        patched ea row of its template, on a program that runs them all
        (a mismatch would otherwise surface only when the recording
        freezes)."""
        tpls = shared_templates().by_opcode
        counts: dict = {}

        def counted(op, build):
            def eas(frame, instr):
                built = build(frame, instr)
                counts.setdefault(op, set()).add(len(built))
                return built
            return eas

        monkeypatch.setattr(interpreter, "EAS", [
            build and counted(Op(op), build)
            for op, build in enumerate(pureops.EAS)])
        JavaVM(all_pure_ops_program(), "interp,record=True").run()
        pure = [Op(op) for op, build in enumerate(pureops.EAS) if build]
        assert sorted(counts) == pure
        assert {op.name: counts[op] for op in pure} == {
            op.name: {len(tpls[op].patch_ea)} for op in pure}
