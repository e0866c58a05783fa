"""Escape-analysis lock elision and liveness-driven JIT DSE.

Both optimizations must be invisible to program semantics; their only
observable effects are fewer lock-manager operations / smaller compiled
code, reported through the stats counters.
"""

import pytest

from repro.analysis.runner import run_vm
from repro.isa import ProgramBuilder
from repro.vm import JavaVM


def _fresh(pb, config):
    vm = JavaVM(pb.build(), f"{config},spawn_daemons=False")
    return vm.run()


def _local_lock_program(n=5):
    """main repeatedly allocates an object and locks it; the allocation
    never escapes, so every acquisition is elidable."""
    pb = ProgramBuilder("t", main_class="Main")
    m = pb.cls("Main").method("main", static=True)
    loop = m.new_label()
    done = m.new_label()
    m.iconst(0).istore(1)
    m.bind(loop)
    m.iload(1).iconst(n).if_icmpge(done)
    m.new("java/lang/Object").dup()
    m.invokespecial("java/lang/Object", "<init>", 0)
    m.astore(2)
    m.aload(2).monitorenter()
    m.aload(2).monitorexit()
    m.iinc(1, 1)
    m.goto(loop)
    m.bind(done)
    m.getstatic("java/lang/System", "out").iload(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def _escaping_lock_program():
    """The locked object is stored to a static field: never elidable."""
    pb = ProgramBuilder("t", main_class="Main")
    cb = pb.cls("Main")
    cb.static_field("g", "ref")
    m = cb.method("main", static=True)
    m.new("java/lang/Object").dup()
    m.invokespecial("java/lang/Object", "<init>", 0)
    m.putstatic("Main", "g")
    m.getstatic("Main", "g").monitorenter()
    m.getstatic("Main", "g").monitorexit()
    m.getstatic("java/lang/System", "out").iconst(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


class TestLockElision:
    def test_thread_local_locks_elided(self):
        base = _fresh(_local_lock_program(), "interp")
        opt = _fresh(_local_lock_program(), "interp,lock_elision=True")
        assert base.stdout == opt.stdout == ["5"]
        assert opt.sync["elided_acquires"] == 5
        assert opt.sync["elided_releases"] == 5
        assert opt.sync["elided_case_counts"]["a"] == 5
        assert opt.sync["elision_violations"] == 0
        assert opt.sync["acquire_ops"] == base.sync["acquire_ops"] - 5

    def test_escaping_object_not_elided(self):
        opt = _fresh(_escaping_lock_program(), "interp,lock_elision=True")
        assert opt.stdout == ["1"]
        assert opt.sync["elided_acquires"] == 0

    def test_recursive_elision_classified_case_b(self):
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        m.new("java/lang/Object").dup()
        m.invokespecial("java/lang/Object", "<init>", 0)
        m.astore(1)
        m.aload(1).monitorenter()
        m.aload(1).monitorenter()
        m.aload(1).monitorexit()
        m.aload(1).monitorexit()
        m.getstatic("java/lang/System", "out").iconst(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        opt = _fresh(pb, "interp,lock_elision=True")
        assert opt.stdout == ["1"]
        cases = opt.sync["elided_case_counts"]
        assert (cases["a"], cases["b"], cases["c"]) == (1, 1, 0)

    def test_disabled_by_default(self):
        res = _fresh(_local_lock_program(), "interp")
        assert res.sync["elided_acquires"] == 0

    @pytest.mark.parametrize("workload", ("jack", "jess", "javac"))
    def test_workload_semantics_preserved(self, workload):
        base = run_vm(workload, "s0", "jit", cache_dir="")
        opt = run_vm(workload, "s0", "jit,jit_opt=True,lock_elision=True",
                     cache_dir="")
        assert base.stdout == opt.stdout
        assert base.bytecodes_executed == opt.bytecodes_executed
        assert opt.sync["elision_violations"] == 0

    def test_jack_elides_most_acquisitions(self):
        base = run_vm("jack", "s0", "jit", cache_dir="")
        opt = run_vm("jack", "s0", "jit,jit_opt=True,lock_elision=True",
                     cache_dir="")
        elided = opt.sync["elided_acquires"]
        assert elided > 0
        assert opt.sync["acquire_ops"] == base.sync["acquire_ops"] - elided
        assert opt.sync_cycles < base.sync_cycles


class TestJitDeadStoreElimination:
    def _dead_store_program(self):
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        m.iconst(41).istore(1)      # dead: overwritten before any read
        m.iconst(42).istore(1)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        return pb

    def test_dead_store_dropped_from_compiled_code(self):
        base = _fresh(self._dead_store_program(),
                      "jit")
        opt = _fresh(self._dead_store_program(),
                     "jit,jit_opt=True")
        assert base.stdout == opt.stdout == ["42"]
        assert opt.dead_stores_eliminated >= 1
        assert opt.instructions <= base.instructions

    def test_javac_workload_has_dead_store(self):
        opt = run_vm("javac", "s0", "jit,jit_opt=True", cache_dir="")
        assert opt.dead_stores_eliminated >= 1

    def test_counters_zero_when_disabled(self):
        base = _fresh(self._dead_store_program(),
                      "jit")
        assert base.dead_stores_eliminated == 0
        assert base.spill_stores_eliminated == 0
