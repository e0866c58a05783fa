"""Runtime library classes: Vector, StringBuffer, Hashtable, Random, String."""

import pytest

from repro.isa import ProgramBuilder
from repro.vm import JavaVM

from helpers import expr_main, run_program


def _run_body(body, mode="interp"):
    return run_program(expr_main(body), mode)


class TestVector:
    def test_add_and_element_at(self):
        def body(m):
            m.new("java/util/Vector").dup().iconst(4)
            m.invokespecial("java/util/Vector", "<init>", 1)
            m.astore(1)
            for _ in range(3):
                m.aload(1)
                m.new("java/lang/Object").dup()
                m.invokespecial("java/lang/Object", "<init>", 0)
                m.invokevirtual("java/util/Vector", "addElement", 1, False)
            m.aload(1).invokevirtual("java/util/Vector", "size", 0, True)
        for mode in ("interp", "jit"):
            assert _run_body(body, mode).stdout == ["3"]

    def test_growth_beyond_capacity(self):
        def body(m):
            m.new("java/util/Vector").dup().iconst(2)
            m.invokespecial("java/util/Vector", "<init>", 1)
            m.astore(1)
            loop = m.new_label()
            done = m.new_label()
            m.iconst(0).istore(2)
            m.bind(loop)
            m.iload(2).iconst(40).if_icmpge(done)
            m.aload(1)
            m.new("java/lang/Object").dup()
            m.invokespecial("java/lang/Object", "<init>", 0)
            m.invokevirtual("java/util/Vector", "addElement", 1, False)
            m.iinc(2, 1)
            m.goto(loop)
            m.bind(done)
            m.aload(1).invokevirtual("java/util/Vector", "size", 0, True)
        assert _run_body(body).stdout == ["40"]

    def test_element_identity(self):
        def body(m):
            m.new("java/util/Vector").dup().iconst(4)
            m.invokespecial("java/util/Vector", "<init>", 1)
            m.astore(1)
            m.new("java/lang/Object").dup()
            m.invokespecial("java/lang/Object", "<init>", 0)
            m.astore(2)
            m.aload(1).aload(2)
            m.invokevirtual("java/util/Vector", "addElement", 1, False)
            same = m.new_label()
            out = m.new_label()
            m.aload(1).iconst(0)
            m.invokevirtual("java/util/Vector", "elementAt", 1, True)
            m.aload(2).if_acmpeq(same)
            m.iconst(0).goto(out)
            m.bind(same)
            m.iconst(1)
            m.bind(out)
        assert _run_body(body).stdout == ["1"]

    def test_vector_ops_are_synchronized(self):
        def body(m):
            m.new("java/util/Vector").dup().iconst(4)
            m.invokespecial("java/util/Vector", "<init>", 1)
            m.astore(1)
            m.aload(1).invokevirtual("java/util/Vector", "size", 0, True)
        result = _run_body(body)
        assert result.sync["acquire_ops"] > 0


class TestStringBuffer:
    def test_append_chars_and_tostring(self):
        def body(m):
            m.new("java/lang/StringBuffer").dup()
            m.invokespecial("java/lang/StringBuffer", "<init>", 0)
            m.astore(1)
            for ch in "ok!":
                m.aload(1).iconst(ord(ch))
                m.invokevirtual("java/lang/StringBuffer", "append", 1, True)
                m.pop()
            m.aload(1)
            m.invokevirtual("java/lang/StringBuffer", "toString", 0, True)
            m.invokevirtual("java/lang/String", "length", 0, True)
        for mode in ("interp", "jit"):
            assert _run_body(body, mode).stdout == ["3"]

    def test_growth_past_initial_capacity(self):
        def body(m):
            m.new("java/lang/StringBuffer").dup()
            m.invokespecial("java/lang/StringBuffer", "<init>", 0)
            m.astore(1)
            loop = m.new_label()
            done = m.new_label()
            m.iconst(0).istore(2)
            m.bind(loop)
            m.iload(2).iconst(50).if_icmpge(done)
            m.aload(1).iconst(ord("x"))
            m.invokevirtual("java/lang/StringBuffer", "append", 1, True)
            m.pop()
            m.iinc(2, 1)
            m.goto(loop)
            m.bind(done)
            m.aload(1)
            m.invokevirtual("java/lang/StringBuffer", "length", 0, True)
        assert _run_body(body).stdout == ["50"]


class TestHashtable:
    def test_put_get_containskey(self):
        def body(m):
            m.new("java/util/Hashtable").dup()
            m.invokespecial("java/util/Hashtable", "<init>", 0)
            m.astore(1)
            m.aload(1).iconst(7).iconst(70)
            m.invokevirtual("java/util/Hashtable", "put", 2, False)
            m.aload(1).iconst(8).iconst(80)
            m.invokevirtual("java/util/Hashtable", "put", 2, False)
            m.aload(1).iconst(7)
            m.invokevirtual("java/util/Hashtable", "get", 1, True)
            m.aload(1).iconst(9)
            m.invokevirtual("java/util/Hashtable", "containsKey", 1, True)
            m.iadd()
        for mode in ("interp", "jit"):
            assert _run_body(body, mode).stdout == ["70"]

    def test_string_keys(self):
        def body(m):
            m.new("java/util/Hashtable").dup()
            m.invokespecial("java/util/Hashtable", "<init>", 0)
            m.astore(1)
            m.aload(1).ldc_str("key").iconst(5)
            m.invokevirtual("java/util/Hashtable", "put", 2, False)
            m.aload(1).ldc_str("key")
            m.invokevirtual("java/util/Hashtable", "get", 1, True)
        assert _run_body(body).stdout == ["5"]

    def test_put_overwrites(self):
        def body(m):
            m.new("java/util/Hashtable").dup()
            m.invokespecial("java/util/Hashtable", "<init>", 0)
            m.astore(1)
            m.aload(1).iconst(1).iconst(10)
            m.invokevirtual("java/util/Hashtable", "put", 2, False)
            m.aload(1).iconst(1).iconst(20)
            m.invokevirtual("java/util/Hashtable", "put", 2, False)
            m.aload(1).iconst(1)
            m.invokevirtual("java/util/Hashtable", "get", 1, True)
            m.aload(1).invokevirtual("java/util/Hashtable", "size", 0, True)
            m.iadd()
        assert _run_body(body).stdout == ["21"]


class TestString:
    def test_length_charat(self):
        def body(m):
            m.ldc_str("abc").astore(1)
            m.aload(1).invokevirtual("java/lang/String", "length", 0, True)
            m.aload(1).iconst(1)
            m.invokevirtual("java/lang/String", "charAt", 1, True)
            m.iadd()
        assert _run_body(body).stdout == [str(3 + ord("b"))]

    def test_equals_and_interning(self):
        def body(m):
            eq = m.new_label()
            out = m.new_label()
            m.ldc_str("same").ldc_str("same").if_acmpeq(eq)
            m.iconst(0).goto(out)
            m.bind(eq)
            m.iconst(1)
            m.bind(out)
        # ldc interns: identical literals are the same object
        assert _run_body(body).stdout == ["1"]

    def test_hashcode_java_semantics(self):
        def body(m):
            m.ldc_str("Ab").invokevirtual("java/lang/String", "hashCode",
                                          0, True)
        # Java: "Ab".hashCode() == 31*'A' + 'b' == 2113
        assert _run_body(body).stdout == ["2113"]

    def test_indexof(self):
        def body(m):
            m.ldc_str("hello").iconst(ord("l"))
            m.invokevirtual("java/lang/String", "indexOf", 1, True)
        assert _run_body(body).stdout == ["2"]


class TestRandom:
    def test_deterministic_sequence(self):
        def body(m):
            m.new("java/util/Random").dup().iconst(42)
            m.invokespecial("java/util/Random", "<init>", 1)
            m.astore(1)
            m.iconst(0).istore(2)
            for _ in range(4):
                m.iload(2).iconst(10).imul()
                m.aload(1).iconst(10)
                m.invokevirtual("java/util/Random", "nextInt", 1, True)
                m.iadd().istore(2)
            m.iload(2)
        a = _run_body(body).stdout
        b = _run_body(body, mode="jit").stdout
        assert a == b
        assert 0 <= int(a[0]) <= 9999

    def test_bounded(self):
        def body(m):
            m.new("java/util/Random").dup().iconst(7)
            m.invokespecial("java/util/Random", "<init>", 1)
            m.astore(1)
            loop = m.new_label()
            done = m.new_label()
            bad = m.new_label()
            m.iconst(0).istore(2)       # i
            m.iconst(1).istore(3)       # all_ok
            m.bind(loop)
            m.iload(2).iconst(50).if_icmpge(done)
            m.aload(1).iconst(5)
            m.invokevirtual("java/util/Random", "nextInt", 1, True)
            m.istore(4)
            m.iload(4).iflt(bad)
            m.iload(4).iconst(5).if_icmpge(bad)
            m.iinc(2, 1)
            m.goto(loop)
            m.bind(bad)
            m.iconst(0).istore(3)
            m.bind(done)
            m.iload(3)
        assert _run_body(body).stdout == ["1"]


class TestSystemAndIO:
    def test_println_string(self):
        def body(m):
            m.getstatic("java/lang/System", "out")
            m.ldc_str("output line")
            m.invokevirtual("java/io/PrintStream", "println", 1, False)
            m.iconst(0)
        result = _run_body(body)
        assert result.stdout == ["output line", "0"]

    def test_arraycopy(self):
        from repro.isa import ArrayType
        def body(m):
            m.iconst(5).newarray(ArrayType.INT).astore(1)
            m.iconst(5).newarray(ArrayType.INT).astore(2)
            m.aload(1).iconst(0).iconst(77).iastore()
            m.aload(1).iconst(1).iconst(88).iastore()
            m.aload(1).iconst(0).aload(2).iconst(2).iconst(2)
            m.invokestatic("java/lang/System", "arraycopy", 5, False)
            m.aload(2).iconst(2).iaload()
            m.aload(2).iconst(3).iaload().iadd()
        assert _run_body(body).stdout == ["165"]

    def test_math_natives(self):
        def body(m):
            m.fconst(16.0).invokestatic("java/lang/Math", "sqrt", 1, True)
            m.f2i()
            m.iconst(-5).invokestatic("java/lang/Math", "abs", 1, True)
            m.iadd()
            m.iconst(3).iconst(9)
            m.invokestatic("java/lang/Math", "max", 2, True)
            m.iadd()
            m.iconst(3).iconst(9)
            m.invokestatic("java/lang/Math", "min", 2, True)
            m.iadd()
        assert _run_body(body).stdout == ["21"]

    def test_object_hashcode_stable(self):
        def body(m):
            same = m.new_label()
            out = m.new_label()
            m.new("java/lang/Object").dup()
            m.invokespecial("java/lang/Object", "<init>", 0)
            m.astore(1)
            m.aload(1).invokevirtual("java/lang/Object", "hashCode", 0, True)
            m.aload(1).invokevirtual("java/lang/Object", "hashCode", 0, True)
            m.if_icmpeq(same)
            m.iconst(0).goto(out)
            m.bind(same)
            m.iconst(1)
            m.bind(out)
        assert _run_body(body).stdout == ["1"]
