"""Method invocation: dispatch, recursion, arguments, returns."""

import pytest

from repro.isa import ProgramBuilder
from repro.vm import JavaVM, VMError

from helpers import run_program


def _both(pb_factory, expected):
    for mode in ("interp", "jit"):
        result = run_program(pb_factory(), mode)
        assert result.stdout == [str(expected)], mode


class TestStaticInvocation:
    def test_args_and_result(self):
        def make():
            pb = ProgramBuilder("t", main_class="Main")
            cb = pb.cls("Main")
            f = cb.method("sub3", argc=2, returns=True, static=True)
            f.iload(0).iload(1).isub().ireturn()
            m = cb.method("main", static=True)
            m.iconst(10).iconst(4)
            m.invokestatic("Main", "sub3", 2, True)
            m.istore(1)
            m.getstatic("java/lang/System", "out").iload(1)
            m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
            m.return_()
            return pb
        _both(make, 6)

    def test_recursion_factorial(self):
        def make():
            pb = ProgramBuilder("t", main_class="Main")
            cb = pb.cls("Main")
            f = cb.method("fact", argc=1, returns=True, static=True)
            base = f.new_label()
            f.iload(0).iconst(2).if_icmplt(base)
            f.iload(0)
            f.iload(0).iconst(1).isub()
            f.invokestatic("Main", "fact", 1, True)
            f.imul().ireturn()
            f.bind(base)
            f.iconst(1).ireturn()
            m = cb.method("main", static=True)
            m.iconst(10).invokestatic("Main", "fact", 1, True).istore(1)
            m.getstatic("java/lang/System", "out").iload(1)
            m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
            m.return_()
            return pb
        _both(make, 3628800)

    def test_mutual_recursion(self):
        def make():
            pb = ProgramBuilder("t", main_class="Main")
            cb = pb.cls("Main")
            even = cb.method("isEven", argc=1, returns=True, static=True)
            z = even.new_label()
            even.iload(0).ifeq(z)
            even.iload(0).iconst(1).isub()
            even.invokestatic("Main", "isOdd", 1, True).ireturn()
            even.bind(z)
            even.iconst(1).ireturn()
            odd = cb.method("isOdd", argc=1, returns=True, static=True)
            z = odd.new_label()
            odd.iload(0).ifeq(z)
            odd.iload(0).iconst(1).isub()
            odd.invokestatic("Main", "isEven", 1, True).ireturn()
            odd.bind(z)
            odd.iconst(0).ireturn()
            m = cb.method("main", static=True)
            m.iconst(9).invokestatic("Main", "isEven", 1, True).istore(1)
            m.getstatic("java/lang/System", "out").iload(1)
            m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
            m.return_()
            return pb
        _both(make, 0)


def _animal_program(receiver_cls):
    pb = ProgramBuilder("t", main_class="Main")
    animal = pb.cls("Animal")
    animal.method("<init>").return_()
    sound = animal.method("sound", returns=True)
    sound.iconst(1).ireturn()
    dog = pb.cls("Dog", super_name="Animal")
    dog.method("<init>").return_()
    bark = dog.method("sound", returns=True)
    bark.iconst(2).ireturn()
    cat = pb.cls("Cat", super_name="Animal")
    cat.method("<init>").return_()
    m = pb.cls("Main").method("main", static=True)
    m.new(receiver_cls).dup()
    m.invokespecial(receiver_cls, "<init>", 0)
    m.invokevirtual("Animal", "sound", 0, True)
    m.istore(1)
    m.getstatic("java/lang/System", "out").iload(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


class TestVirtualDispatch:
    def test_override_selected_by_runtime_class(self):
        _both(lambda: _animal_program("Dog"), 2)

    def test_inherited_method_used_when_not_overridden(self):
        _both(lambda: _animal_program("Cat"), 1)

    def test_base_class_receiver(self):
        _both(lambda: _animal_program("Animal"), 1)

    def test_null_receiver_raises(self):
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        m.aconst_null()
        m.invokevirtual("java/lang/Object", "hashCode", 0, True)
        m.pop()
        m.return_()
        with pytest.raises(VMError, match="null receiver"):
            run_program(pb)

    def test_missing_method_raises(self):
        from repro.vm.classloader import ClassLoadError
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        m.new("java/lang/Object").dup()
        m.invokespecial("java/lang/Object", "<init>", 0)
        m.invokevirtual("java/lang/Object", "frobnicate", 0, True)
        m.pop()
        m.return_()
        with pytest.raises(ClassLoadError, match="not found"):
            run_program(pb)


class TestNativeMethods:
    def test_native_receives_receiver_and_args(self):
        seen = []

        def impl(vm, thread, args):
            seen.append(args)
            return 99

        pb = ProgramBuilder("t", main_class="Main")
        cb = pb.cls("Main")
        cb.native_method("probe", 1, True, impl)
        m = cb.method("main", static=True)
        m.new("Main").dup()
        m.invokespecial("Main", "<init>", 0)
        m.iconst(5)
        m.invokevirtual("Main", "probe", 1, True)
        m.istore(1)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        init = cb.method("<init>")
        init.return_()
        m.return_()
        result = run_program(pb)
        assert result.stdout == ["99"]
        assert len(seen) == 1
        receiver, arg = seen[0]
        assert arg == 5
        assert receiver.jclass.name == "Main"


class TestProfiling:
    def test_invocation_counts(self):
        pb = ProgramBuilder("t", main_class="Main")
        cb = pb.cls("Main")
        f = cb.method("f", returns=True, static=True)
        f.iconst(1).ireturn()
        m = cb.method("main", static=True)
        for _ in range(5):
            m.invokestatic("Main", "f", 0, True)
            m.pop()
        m.return_()
        vm = JavaVM(pb.build(), "interp")
        result = vm.run()
        assert result.profiles["Main.f"]["invocations"] == 5
        assert result.profiles["Main.f"]["interp_cycles"] > 0
        assert result.profiles["Main.f"]["translate_cycles"] == 0

    def test_jit_profile_buckets(self):
        pb = ProgramBuilder("t", main_class="Main")
        cb = pb.cls("Main")
        f = cb.method("f", returns=True, static=True)
        f.iconst(1).ireturn()
        m = cb.method("main", static=True)
        m.invokestatic("Main", "f", 0, True)
        m.pop()
        m.return_()
        # Disable inlining so the callee actually executes as compiled code.
        vm = JavaVM(pb.build(), "jit,inline=False")
        result = vm.run()
        prof = result.profiles["Main.f"]
        assert prof["translate_cycles"] > 0
        assert prof["compiled_cycles"] > 0
        assert prof["interp_cycles"] == 0
