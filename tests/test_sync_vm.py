"""Synchronization at the VM level: synchronized methods, explicit
monitors, recursion, static-method class locks."""

import pytest

from repro.isa import ProgramBuilder
from repro.vm import JavaVM

from helpers import run_program


class TestSynchronizedMethods:
    def _program(self):
        pb = ProgramBuilder("t", main_class="Main")
        box = pb.cls("Box")
        box.field("v", "int")
        box.method("<init>").return_()
        # synchronized outer calls synchronized inner on the same object
        # -> guaranteed recursive (case b) acquisition
        outer = box.method("bump2", synchronized=True)
        outer.aload(0).invokevirtual("Box", "bump", 0, False)
        outer.aload(0).invokevirtual("Box", "bump", 0, False)
        outer.return_()
        inner = box.method("bump", synchronized=True)
        inner.aload(0)
        inner.aload(0).getfield("Box", "v").iconst(1).iadd()
        inner.putfield("Box", "v")
        inner.return_()
        m = pb.cls("Main").method("main", static=True)
        m.new("Box").dup().invokespecial("Box", "<init>", 0).astore(1)
        m.aload(1).invokevirtual("Box", "bump2", 0, False)
        m.getstatic("java/lang/System", "out")
        m.aload(1).getfield("Box", "v")
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        return pb

    def test_semantics(self):
        assert run_program(self._program()).stdout == ["2"]
        assert run_program(self._program(), "jit").stdout == ["2"]

    def test_recursive_case_b_recorded(self):
        result = run_program(self._program())
        assert result.sync["case_counts"]["b"] >= 2

    def test_lock_released_after_return(self):
        pb = self._program()
        program = pb.build()
        vm = JavaVM(program, "interp")
        vm.run()
        # every monitor released: all lock states have count 0
        for obj in vm.heap.objects.values():
            if getattr(obj, "lock", None) is not None:
                assert obj.lock.count == 0

    def test_acquires_balance_releases(self):
        result = run_program(self._program())
        assert result.sync["acquire_ops"] == result.sync["release_ops"]


class TestStaticSynchronized:
    def test_class_lock_used(self):
        pb = ProgramBuilder("t", main_class="Main")
        cb = pb.cls("Main")
        f = cb.method("f", returns=True, static=True, synchronized=True)
        f.iconst(7).ireturn()
        m = cb.method("main", static=True)
        m.invokestatic("Main", "f", 0, True).istore(1)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        program = pb.build()
        vm = JavaVM(program, "interp")
        result = vm.run()
        assert result.stdout == ["7"]
        cls = vm.loader.mirrors[program.get_class("Main")]
        assert cls.lock is not None       # the class mirror was locked
        assert cls.lock.count == 0


class TestExplicitMonitors:
    def _program(self):
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        m.new("java/lang/Object").dup()
        m.invokespecial("java/lang/Object", "<init>", 0)
        m.astore(1)
        m.aload(1).monitorenter()
        m.aload(1).monitorenter()        # recursive
        m.aload(1).monitorexit()
        m.aload(1).monitorexit()
        m.getstatic("java/lang/System", "out").iconst(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        return pb

    def test_nested_enter_exit(self):
        for mode in ("interp", "jit"):
            result = run_program(self._program(), mode)
            assert result.stdout == ["1"]
            assert result.sync["case_counts"]["b"] >= 1

    def test_monitorenter_on_null_raises(self):
        from repro.vm import VMError
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        # Statically balanced (the verifier now rejects unbalanced
        # monitors); the runtime null check fires at the monitorenter.
        m.aconst_null().monitorenter()
        m.aconst_null().monitorexit()
        m.return_()
        with pytest.raises(VMError, match="null"):
            run_program(pb)


class TestDeterminism:
    def test_recorded_traces_bit_identical(self):
        results = []
        for _ in range(2):
            results.append(run_program(self._any_program(),
                                       "interp,record=True"))
        a, b = results
        assert a.trace.n == b.trace.n
        assert (a.trace.pc == b.trace.pc).all()
        assert (a.trace.ea == b.trace.ea).all()
        assert (a.trace.flags == b.trace.flags).all()
        assert (a.trace.target == b.trace.target).all()

    @staticmethod
    def _any_program():
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        loop = m.new_label()
        done = m.new_label()
        m.iconst(0).istore(1)
        m.bind(loop)
        m.iload(1).iconst(25).if_icmpge(done)
        m.new("java/lang/Object").dup()
        m.invokespecial("java/lang/Object", "<init>", 0)
        m.pop()
        m.iinc(1, 1)
        m.goto(loop)
        m.bind(done)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        return pb
