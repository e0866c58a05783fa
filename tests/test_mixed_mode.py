"""Mixed-mode execution: interpreted and compiled frames interleaving
(the transitions the oracle / counter strategies exercise)."""

import pytest

from repro.isa import ProgramBuilder
from repro.vm import JavaVM, RunConfig


def _call_chain_program():
    """main -> a -> b -> c, each layer loops a little."""
    pb = ProgramBuilder("t", main_class="Main")
    cb = pb.cls("Main")
    for name, callee in (("a", "b"), ("b", "c")):
        f = cb.method(name, argc=1, returns=True, static=True)
        f.iload(0).iconst(1).iadd()
        f.invokestatic("Main", callee, 1, True)
        f.ireturn()
    c = cb.method("c", argc=1, returns=True, static=True)
    loop = c.new_label()
    done = c.new_label()
    c.iconst(0).istore(1)
    c.bind(loop)
    c.iload(1).iconst(5).if_icmpge(done)
    c.iload(0).iconst(1).iadd().istore(0)
    c.iinc(1, 1)
    c.goto(loop)
    c.bind(done)
    c.iload(0).ireturn()
    m = cb.method("main", static=True)
    m.iconst(100).invokestatic("Main", "a", 1, True).istore(1)
    m.getstatic("java/lang/System", "out").iload(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb.build()


EXPECTED = "107"


@pytest.mark.parametrize("compiled_set", [
    set(),
    {"Main.a"},
    {"Main.b"},
    {"Main.c"},
    {"Main.a", "Main.c"},
    {"Main.main"},
    {"Main.main", "Main.a", "Main.b", "Main.c"},
])
def test_every_interleaving_agrees(compiled_set):
    """Interp->compiled and compiled->interp call transitions must be
    semantically invisible, whatever the mix."""
    vm = JavaVM(_call_chain_program(),
                RunConfig(policy="oracle", compile_set=compiled_set))
    result = vm.run()
    assert result.stdout == [EXPECTED], compiled_set
    compiled = {name for name, p in result.profiles.items()
                if p["translate_cycles"] > 0}
    assert compiled == compiled_set


def test_mixed_trace_switches_fetch_regions():
    """A compiled caller with an interpreted callee alternates between
    code-cache and interpreter-text fetches."""
    from repro.native.layout import (
        CODE_CACHE_BASE, CODE_CACHE_SIZE, INTERP_TEXT_BASE, INTERP_TEXT_SIZE,
    )
    vm = JavaVM(_call_chain_program(), "oracle,compile_set=Main.a;Main.main,"
                                       "record=True")
    trace = vm.run().trace
    in_cc = ((trace.pc >= CODE_CACHE_BASE)
             & (trace.pc < CODE_CACHE_BASE + CODE_CACHE_SIZE))
    in_interp = ((trace.pc >= INTERP_TEXT_BASE)
                 & (trace.pc < INTERP_TEXT_BASE + INTERP_TEXT_SIZE))
    assert in_cc.any() and in_interp.any()


def test_counter_strategy_mixes_over_time():
    """With threshold 3, the c() method is interpreted twice then
    compiled — both kinds of cycles appear in its profile."""
    pb = ProgramBuilder("t", main_class="Main")
    cb = pb.cls("Main")
    f = cb.method("f", returns=True, static=True)
    f.iconst(1).ireturn()
    m = cb.method("main", static=True)
    m.iconst(0).istore(1)
    for _ in range(6):
        m.iload(1).invokestatic("Main", "f", 0, True).iadd().istore(1)
    m.getstatic("java/lang/System", "out").iload(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    vm = JavaVM(pb.build(), "counter3,inline=False")
    result = vm.run()
    assert result.stdout == ["6"]
    prof = result.profiles["Main.f"]
    assert prof["interp_cycles"] > 0
    assert prof["compiled_cycles"] > 0
    assert prof["invocations"] == 6
