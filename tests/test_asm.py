"""Textual assembler."""

import pytest

from repro.isa.asm import AsmError, assemble, list_method
from repro.vm import JavaVM

COUNTER = """
.class demo/Main
.method main static
    iconst 0
    istore 1
loop:
    iload 1
    iconst 10
    if_icmpge done
    iinc 1 1
    goto loop
done:
    getstatic java/lang/System out
    iload 1
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""


def _run(program, mode="interp"):
    return JavaVM(program, mode).run()


class TestAssemble:
    def test_counter_program_runs(self):
        program = assemble(COUNTER)
        assert _run(program).stdout == ["10"]
        assert _run(assemble(COUNTER), mode="jit").stdout == ["10"]

    def test_fields_and_objects(self):
        src = """
.class demo/Box
.field value int
.method <init>
    return
.end
.method get returns
    aload 0
    getfield demo/Box value
    ireturn
.end
.class demo/Main
.method main static
    new demo/Box
    dup
    invokespecial demo/Box <init> 0
    astore 1
    aload 1
    iconst 41
    putfield demo/Box value
    getstatic java/lang/System out
    aload 1
    invokevirtual demo/Box get 0 ret
    iconst 1
    iadd
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""
        program = assemble(src, main_class="demo/Main")
        assert _run(program).stdout == ["42"]

    def test_arrays_and_strings(self):
        src = """
.class demo/Main
.method main static
    iconst 3
    newarray int
    astore 1
    aload 1
    iconst 1
    iconst 99
    iastore
    getstatic java/lang/System out
    ldc_str "from asm"
    invokevirtual java/io/PrintStream println 1 void
    getstatic java/lang/System out
    aload 1
    iconst 1
    iaload
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""
        assert _run(assemble(src)).stdout == ["from asm", "99"]

    def test_method_args(self):
        src = """
.class demo/Main
.method add3 static returns argc=2
    iload 0
    iload 1
    iadd
    iconst 3
    iadd
    ireturn
.end
.method main static
    getstatic java/lang/System out
    iconst 10
    iconst 20
    invokestatic demo/Main add3 2 ret
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""
        assert _run(assemble(src)).stdout == ["33"]

    def test_comments_and_blank_lines(self):
        src = """
; leading comment
.class demo/Main

.method main static   ; trailing comment
    return            ; done
.end
"""
        program = assemble(src)
        assert "demo/Main" in program.classes


class TestAsmErrors:
    @pytest.mark.parametrize("src,fragment", [
        ("iconst 1", "outside a method"),
        (".method m\nreturn\n.end", ".method outside a class"),
        (".class A\n.method m static\n", "unterminated"),
        (".class A\n.method m bogus\nreturn\n.end", "unknown flags"),
        (".class A\n.method m static\nfrobnicate\nreturn\n.end",
         "unknown mnemonic"),
        (".class A\n.method m static\niconst\nreturn\n.end",
         "bad operands"),
        ("", "no .class"),
    ])
    def test_rejects(self, src, fragment):
        with pytest.raises(AsmError, match=fragment):
            assemble(src)

    def test_verifier_errors_surface(self):
        src = """
.class demo/Main
.method main static
    iadd
    return
.end
"""
        with pytest.raises(AsmError, match="verification"):
            assemble(src)


class TestListing:
    def test_lists_with_depths(self):
        program = assemble(COUNTER)
        text = list_method(program.entry_method)
        assert "demo/Main.main" in text
        assert "iconst" in text
        assert "[ 0]" in text


class TestSwitchSyntax:
    def test_tableswitch(self):
        src = """
.class demo/Main
.method pick static returns argc=1
    iload 0
    tableswitch 0 a b default other
a:
    iconst 10
    ireturn
b:
    iconst 20
    ireturn
other:
    iconst -1
    ireturn
.end
.method main static
    getstatic java/lang/System out
    iconst 1
    invokestatic demo/Main pick 1 ret
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""
        assert _run(assemble(src)).stdout == ["20"]

    def test_lookupswitch(self):
        src = """
.class demo/Main
.method main static
    getstatic java/lang/System out
    iconst 42
    lookupswitch 7:seven 42:answer default other
seven:
    iconst 1
    goto out
answer:
    iconst 2
    goto out
other:
    iconst 3
out:
    invokevirtual java/io/PrintStream printlnInt 1 void
    return
.end
"""
        assert _run(assemble(src)).stdout == ["2"]

    def test_switch_missing_default(self):
        src = """
.class demo/Main
.method main static
    iconst 0
    tableswitch 0 a
a:
    return
.end
"""
        with pytest.raises(AsmError, match="default"):
            assemble(src)
