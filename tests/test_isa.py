"""Bytecode ISA: opcode metadata, instructions, pools, builders."""

import pytest

from repro.isa import (
    ArrayType,
    ClassBuilder,
    ConstantPool,
    FieldRef,
    Instr,
    MethodRef,
    N_OPCODES,
    OPINFO,
    Op,
    ProgramBuilder,
    StringConst,
)


class TestOpcodeMetadata:
    def test_every_opcode_has_info(self):
        assert set(OPINFO) == set(Op)

    def test_opcode_count_reasonable(self):
        # The subset ISA: big enough for the workloads, documented in
        # DESIGN.md as a rescaling of the real 220-opcode set.
        assert 70 <= N_OPCODES <= 120

    def test_lengths_match_jvm_conventions(self):
        assert OPINFO[Op.IADD].length == 1
        assert OPINFO[Op.ILOAD].length == 2
        assert OPINFO[Op.GETFIELD].length == 3
        assert OPINFO[Op.GOTO].length == 3

    def test_stack_effects(self):
        assert (OPINFO[Op.IADD].pops, OPINFO[Op.IADD].pushes) == (2, 1)
        assert (OPINFO[Op.DUP].pops, OPINFO[Op.DUP].pushes) == (1, 2)
        assert (OPINFO[Op.PUTFIELD].pops, OPINFO[Op.PUTFIELD].pushes) == (2, 0)
        assert (OPINFO[Op.IASTORE].pops, OPINFO[Op.IASTORE].pushes) == (3, 0)

    def test_invoke_effects_pool_dependent(self):
        assert OPINFO[Op.INVOKEVIRTUAL].pops is None

    def test_kinds(self):
        assert OPINFO[Op.IFEQ].kind == "branch"
        assert OPINFO[Op.TABLESWITCH].kind == "switch"
        assert OPINFO[Op.MONITORENTER].kind == "monitor"


class TestInstr:
    def test_encoded_length_plain(self):
        assert Instr(Op.IADD).encoded_length() == 1

    def test_encoded_length_tableswitch_scales(self):
        i = Instr(Op.TABLESWITCH, extra=(0, [1, 2, 3], 9))
        assert i.encoded_length() == 12 + 12

    def test_encoded_length_lookupswitch_scales(self):
        i = Instr(Op.LOOKUPSWITCH, extra=({1: 4, 9: 5}, 7))
        assert i.encoded_length() == 12 + 16

    def test_branch_targets(self):
        assert Instr(Op.IFEQ, 7).branch_targets() == [7]
        assert Instr(Op.GOTO, 3).branch_targets() == [3]
        assert Instr(Op.IADD).branch_targets() == []
        sw = Instr(Op.TABLESWITCH, extra=(0, [1, 2], 9))
        assert sw.branch_targets() == [1, 2, 9]

    def test_equality(self):
        assert Instr(Op.ICONST, 5) == Instr(Op.ICONST, 5)
        assert Instr(Op.ICONST, 5) != Instr(Op.ICONST, 6)


class TestConstantPool:
    def test_dedup_strings(self):
        pool = ConstantPool()
        assert pool.string("x") == pool.string("x")
        assert pool.string("y") != pool.string("x")

    def test_dedup_method_refs_by_signature(self):
        pool = ConstantPool()
        a = pool.method_ref("C", "m", 1, True)
        b = pool.method_ref("C", "m", 1, True)
        c = pool.method_ref("C", "m", 2, True)
        assert a == b != c

    def test_entry_types(self):
        pool = ConstantPool()
        assert isinstance(pool[pool.string("s")], StringConst)
        assert isinstance(pool[pool.field_ref("C", "f")], FieldRef)
        assert isinstance(pool[pool.method_ref("C", "m", 0, False)], MethodRef)

    def test_resolution_cache_starts_empty(self):
        # The cache is the loading VM's (one slot per entry in the class
        # mirror); the entry itself stays symbolic.
        from repro.isa.method import JClass
        from repro.vm.classloader import ClassMirror
        cls = JClass("C")
        idx = cls.pool.class_ref("C")
        assert ClassMirror(cls, 0).resolved == [None]
        assert not hasattr(cls.pool[idx], "resolved")


class TestMethodBuilder:
    def test_labels_resolve_forward_and_back(self):
        cb = ClassBuilder("C")
        m = cb.method("m", static=True)
        top = m.new_label()
        out = m.new_label()
        m.bind(top)
        m.iconst(1).ifne(out)
        m.goto(top)
        m.bind(out)
        m.return_()
        method = m.build()
        assert method.code[1].a == 3   # ifne -> out
        assert method.code[2].a == 0   # goto -> top

    def test_unbound_label_raises(self):
        cb = ClassBuilder("C")
        m = cb.method("m", static=True)
        m.goto(m.new_label())
        m.return_()
        with pytest.raises(ValueError, match="unbound"):
            m.build()

    def test_double_bind_raises(self):
        cb = ClassBuilder("C")
        m = cb.method("m", static=True)
        label = m.new_label()
        m.bind(label)
        with pytest.raises(ValueError):
            m.bind(label)

    def test_max_locals_tracks_usage(self):
        cb = ClassBuilder("C")
        m = cb.method("m", argc=1, static=True)
        m.iload(0).istore(5)
        m.return_()
        assert m.build().max_locals == 6

    def test_switch_labels_resolve(self):
        cb = ClassBuilder("C")
        m = cb.method("m", argc=1, static=True)
        a, b, d = m.new_label(), m.new_label(), m.new_label()
        m.iload(0).tableswitch(0, [a, b], d)
        m.bind(a)
        m.return_()
        m.bind(b)
        m.return_()
        m.bind(d)
        m.return_()
        method = m.build()
        low, targets, default = method.code[1].extra
        assert (low, targets, default) == (0, [2, 3], 4)

    def test_synchronized_flag(self):
        cb = ClassBuilder("C")
        m = cb.method("m", synchronized=True)
        m.return_()
        assert m.build().is_synchronized


class TestClassAndProgramBuilders:
    def test_duplicate_method_rejected(self):
        cb = ClassBuilder("C")
        cb.method("m").return_()
        cb.method("m").return_()
        with pytest.raises(ValueError, match="duplicate"):
            cb.build()

    def test_duplicate_class_rejected(self):
        pb = ProgramBuilder("p")
        pb.cls("C").method("main", static=True).return_()
        pb.cls("C")
        with pytest.raises(ValueError, match="duplicate"):
            pb.build()

    def test_native_method(self):
        cb = ClassBuilder("C")
        cb.native_method("n", 1, True, lambda vm, t, a: 1)
        cls = cb.build()
        assert cls.methods["n"].is_native

    def test_find_method_walks_hierarchy(self):
        pb = ProgramBuilder("p", main_class="B")
        a = pb.cls("A")
        a.method("m", returns=True).iconst(1).ireturn()
        b = pb.cls("B", super_name="A")
        b.method("main", static=True).return_()
        program = pb.build()
        ca, cb_ = program.get_class("A"), program.get_class("B")
        cb_.super_class = ca
        assert cb_.find_method("m") is ca.methods["m"]
        assert cb_.find_method("nope") is None

    def test_entry_method_lookup(self):
        pb = ProgramBuilder("p", main_class="Main")
        pb.cls("Main").method("main", static=True).return_()
        assert pb.build().entry_method.name == "main"

    def test_program_merge_conflict(self):
        pb1 = ProgramBuilder("a")
        pb1.cls("X").method("main", static=True).return_()
        pb2 = ProgramBuilder("b")
        pb2.cls("X").method("main", static=True).return_()
        p1, p2 = pb1.build(), pb2.build()
        with pytest.raises(ValueError):
            p1.merge(p2)

    def test_field_declarations(self):
        cb = ClassBuilder("C")
        cb.field("x", "int").field("y", "float").static_field("z", "ref")
        cls = cb.build()
        names = {f.name: (f.ftype, f.is_static) for f in cls.fields}
        assert names == {"x": ("int", False), "y": ("float", False),
                         "z": ("ref", True)}

    def test_bad_field_type_rejected(self):
        from repro.isa import Field
        with pytest.raises(ValueError):
            Field("x", "long")
