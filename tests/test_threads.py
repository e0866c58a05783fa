"""Threads: spawn/join, scheduling, contention, daemons, deadlock."""

import pytest

from repro.isa import ProgramBuilder
from repro.vm import DeadlockError, JavaVM

from helpers import run_program


def _two_counter_threads(with_sync: bool):
    """Two worker threads each add 1..n into a shared accumulator."""
    pb = ProgramBuilder("t", main_class="Main")

    acc = pb.cls("Acc")
    acc.field("total", "int")
    acc.method("<init>").return_()
    add = acc.method("add", argc=1, synchronized=with_sync)
    add.aload(0)
    add.aload(0).getfield("Acc", "total")
    add.iload(1).iadd()
    add.putfield("Acc", "total")
    add.return_()
    get = acc.method("get", returns=True, synchronized=with_sync)
    get.aload(0).getfield("Acc", "total").ireturn()

    worker = pb.cls("Worker", super_name="java/lang/Thread")
    worker.field("acc", "ref")
    init = worker.method("<init>", argc=1)
    init.aload(0).aload(1).putfield("Worker", "acc")
    init.return_()
    run = worker.method("run")
    loop = run.new_label()
    done = run.new_label()
    run.iconst(0).istore(1)
    run.bind(loop)
    run.iload(1).iconst(50).if_icmpge(done)
    run.aload(0).getfield("Worker", "acc")
    run.iload(1)
    run.invokevirtual("Acc", "add", 1, False)
    run.iinc(1, 1)
    run.goto(loop)
    run.bind(done)
    run.return_()

    m = pb.cls("Main").method("main", static=True)
    m.new("Acc").dup().invokespecial("Acc", "<init>", 0).astore(0)
    for slot in (1, 2):
        m.new("Worker").dup().aload(0)
        m.invokespecial("Worker", "<init>", 1)
        m.astore(slot)
    m.aload(1).invokevirtual("java/lang/Thread", "start", 0, False)
    m.aload(2).invokevirtual("java/lang/Thread", "start", 0, False)
    m.aload(1).invokevirtual("java/lang/Thread", "join", 0, False)
    m.aload(2).invokevirtual("java/lang/Thread", "join", 0, False)
    m.aload(0).invokevirtual("Acc", "get", 0, True).istore(3)
    m.getstatic("java/lang/System", "out").iload(3)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


class TestThreads:
    def test_two_threads_complete_and_join(self):
        result = run_program(_two_counter_threads(True), "interp,quantum=20")
        assert result.stdout == [str(2 * sum(range(50)))]

    def test_both_modes_agree(self):
        a = run_program(_two_counter_threads(True), "interp,quantum=20")
        b = run_program(_two_counter_threads(True), "jit,quantum=20")
        assert a.stdout == b.stdout

    def test_contention_occurs_with_small_quantum(self):
        result = run_program(_two_counter_threads(True), "interp,quantum=7")
        assert result.sync["case_counts"]["d"] > 0

    def test_threads_interleave(self):
        # With a small quantum, neither thread runs to completion alone:
        # the scheduler switches between them (both see fresh state).
        result = run_program(_two_counter_threads(True), "interp,quantum=5")
        assert result.stdout == [str(2 * sum(range(50)))]

    def test_join_on_finished_thread_is_noop(self):
        pb = ProgramBuilder("t", main_class="Main")
        w = pb.cls("W", super_name="java/lang/Thread")
        w.method("<init>").return_()
        r = w.method("run")
        r.return_()
        m = pb.cls("Main").method("main", static=True)
        m.new("W").dup().invokespecial("W", "<init>", 0).astore(1)
        m.aload(1).invokevirtual("java/lang/Thread", "start", 0, False)
        # join twice: second join must see FINISHED and not block
        m.aload(1).invokevirtual("java/lang/Thread", "join", 0, False)
        m.aload(1).invokevirtual("java/lang/Thread", "join", 0, False)
        m.getstatic("java/lang/System", "out").iconst(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        assert run_program(pb).stdout == ["1"]

    def test_is_alive(self):
        pb = ProgramBuilder("t", main_class="Main")
        w = pb.cls("W", super_name="java/lang/Thread")
        w.method("<init>").return_()
        w.method("run").return_()
        m = pb.cls("Main").method("main", static=True)
        m.new("W").dup().invokespecial("W", "<init>", 0).astore(1)
        m.aload(1).invokevirtual("java/lang/Thread", "start", 0, False)
        m.aload(1).invokevirtual("java/lang/Thread", "join", 0, False)
        m.aload(1).invokevirtual("java/lang/Thread", "isAlive", 0, True)
        m.istore(2)
        m.getstatic("java/lang/System", "out").iload(2)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        assert run_program(pb).stdout == ["0"]

    def test_self_deadlock_detected(self):
        # Main blocks on a monitor held by a finished-but-never-releasing
        # scenario is impossible with balanced bytecode, so use two
        # threads blocking on each other's monitors.
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        # main locks A twice via a worker that holds it forever is hard
        # to express; instead: main waits on a monitor the worker holds
        # while the worker joins main's never-finishing... Simpler:
        # thread joins itself -> waits forever -> deadlock.
        w = pb.cls("W", super_name="java/lang/Thread")
        w.method("<init>").return_()
        r = w.method("run")
        r.aload(0).invokevirtual("java/lang/Thread", "join", 0, False)
        r.return_()
        m.new("W").dup().invokespecial("W", "<init>", 0).astore(1)
        m.aload(1).invokevirtual("java/lang/Thread", "start", 0, False)
        m.aload(1).invokevirtual("java/lang/Thread", "join", 0, False)
        m.return_()
        with pytest.raises(DeadlockError):
            run_program(pb)


    def test_vms_number_their_own_threads(self):
        # Thread ids (and so each thread's stack region) are per VM:
        # building a second VM before the first runs changes nothing.
        def observe(vm):
            r = vm.run()
            return (r.cycles, r.stdout, [t.thread_id for t in vm.threads])

        alone = [observe(JavaVM(_two_counter_threads(True).build(),
                                "interp,quantum=20"))
                 for _ in range(2)]
        vms = [JavaVM(_two_counter_threads(True).build(), "interp,quantum=20")
               for _ in range(2)]
        assert [observe(vm) for vm in vms] == alone
        assert alone[0][2] == list(range(len(alone[0][2])))


class TestDaemons:
    def test_daemon_threads_run_at_boot(self):
        pb = ProgramBuilder("t", main_class="Main")
        pb.cls("Main").method("main", static=True).return_()
        vm = JavaVM(pb.build(), "interp")
        result = vm.run()
        names = {t.name for t in vm.threads}
        assert "finalizer" in names and "refcleaner" in names
        assert all(not t.is_alive for t in vm.threads)
        # Daemons performed synchronized queue passes.
        assert result.sync["acquire_ops"] >= 10

    def test_daemons_can_be_disabled(self):
        pb = ProgramBuilder("t", main_class="Main")
        pb.cls("Main").method("main", static=True).return_()
        vm = JavaVM(pb.build(), "interp,spawn_daemons=False")
        vm.run()
        assert len(vm.threads) == 1


class TestExecutionLimits:
    def test_runaway_loop_capped(self):
        from repro.vm import ExecutionLimitExceeded
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        top = m.new_label()
        m.bind(top)
        m.goto(top)
        m.return_()
        vm = JavaVM(pb.build(), "interp,max_bytecodes=5000")
        with pytest.raises(ExecutionLimitExceeded):
            vm.run()

    def test_stack_overflow_detected(self):
        from repro.vm.threads import StackOverflow
        pb = ProgramBuilder("t", main_class="Main")
        cb = pb.cls("Main")
        f = cb.method("f", static=True)
        f.invokestatic("Main", "f", 0, False)
        f.return_()
        m = cb.method("main", static=True)
        m.invokestatic("Main", "f", 0, False)
        m.return_()
        vm = JavaVM(pb.build(), "interp")
        with pytest.raises(StackOverflow):
            vm.run()
