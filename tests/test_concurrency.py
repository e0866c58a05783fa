"""The interprocedural concurrency analysis: MHP, locksets, races, and
the static/dynamic cross-check property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.concurrency import ConcurrencyAnalysis, analyze_program
from repro.analysis.concurrency.callgraph import CallGraph
from repro.analysis.concurrency.lockset import analyze_method
from repro.analysis.concurrency.mhp import MHP
from repro.analysis.dataflow.escape import EscapeSummaries
from repro.fuzz.crosscheck import check_spec, run_crosscheck
from repro.fuzz.gen import gen_mt_program, gen_program
from repro.fuzz.oracle import run_oracle
from repro.isa.builder import ProgramBuilder
from repro.vm.library import ensure_library
from repro.vm.machine import JavaVM


def _thread_program(copies=2, in_loop=False):
    """main spawns ``copies`` W threads; W.run bumps a static counter."""
    pb = ProgramBuilder("mhp-test", "M/Main")
    g = pb.cls("M/Globals")
    g.static_field("n", "int")
    g.method("<init>", 0, returns=False).return_()
    w = pb.cls("M/W", super_name="java/lang/Thread")
    w.method("<init>", 0, returns=False).return_()
    w.method("run", 0, returns=False, max_stack=4) \
        .getstatic("M/Globals", "n").iconst(1).iadd() \
        .putstatic("M/Globals", "n").return_()
    mb = pb.cls("M/Main").method("main", 0, returns=False, static=True,
                                 max_stack=4)
    mb.iconst(5).putstatic("M/Globals", "n")       # pre-spawn write
    if in_loop:
        top, end = mb.new_label(), mb.new_label()
        mb.iconst(copies).istore(0)
        mb.bind(top).iload(0).ifle(end)
        mb.new("M/W").dup().invokespecial("M/W", "<init>", 0, False) \
            .invokevirtual("java/lang/Thread", "start", 0, False)
        mb.iinc(0, -1).goto(top)
        mb.bind(end)
    else:
        for slot in range(copies):
            mb.new("M/W").dup() \
                .invokespecial("M/W", "<init>", 0, False).astore(slot) \
                .aload(slot) \
                .invokevirtual("java/lang/Thread", "start", 0, False)
    mb.getstatic("M/Globals", "n").putstatic("M/Globals", "n")  # post-spawn
    mb.return_()
    program = pb.build(verify=True)
    ensure_library(program)
    return program


def _mhp_for(program):
    return MHP(program, CallGraph(program))


class TestMHP:
    def test_discovers_main_and_thread_entries(self):
        mhp = _mhp_for(_thread_program())
        assert "main" in mhp.entries
        assert "thread:M/W" in mhp.entries

    def test_single_spawn_is_not_multi(self):
        mhp = _mhp_for(_thread_program(copies=1))
        assert not mhp.entries["thread:M/W"].multi

    def test_two_spawn_sites_are_multi(self):
        mhp = _mhp_for(_thread_program(copies=2))
        assert mhp.entries["thread:M/W"].multi

    def test_spawn_in_loop_is_multi(self):
        mhp = _mhp_for(_thread_program(copies=1, in_loop=True))
        assert mhp.entries["thread:M/W"].multi

    def test_pre_spawn_main_never_parallel_with_thread(self):
        mhp = _mhp_for(_thread_program())
        assert not mhp.may_parallel(("main", "pre"),
                                    ("thread:M/W", "run"))
        assert mhp.may_parallel(("main", "post"), ("thread:M/W", "run"))

    def test_phase_splits_mains_writes(self):
        program = _thread_program()
        mhp = _mhp_for(program)
        main = program.get_class("M/Main").methods["main"]
        # instruction 0 (iconst before any start) is pre-only; the last
        # putstatic (after both starts) carries the post context too
        assert mhp.contexts(main, 0) == (("main", "pre"),)
        last = len(main.code) - 2
        assert ("main", "post") in mhp.contexts(main, last)

    def test_multi_thread_parallel_with_itself(self):
        mhp = _mhp_for(_thread_program(copies=2))
        ctx = ("thread:M/W", "run")
        assert mhp.may_parallel(ctx, ctx)
        single = _mhp_for(_thread_program(copies=1))
        assert not single.may_parallel(ctx, ctx)


class TestLockset:
    def _method(self, build):
        pb = ProgramBuilder("lockset-test", "L/Main")
        c = pb.cls("L/C")
        c.static_field("lock", "ref")
        c.static_field("v", "int")
        c.method("<init>", 0, returns=False).return_()
        build(pb.cls("L/Main").method("main", 0, returns=False,
                                      static=True, max_stack=4))
        program = pb.build(verify=True)
        main = program.get_class("L/Main").methods["main"]
        return main, EscapeSummaries(program)

    def test_held_inside_monitor(self):
        def build(mb):
            mb.getstatic("L/C", "lock").monitorenter()
            mb.getstatic("L/C", "v").putstatic("L/C", "v")
            mb.getstatic("L/C", "lock").monitorexit()
            mb.return_()
        method, summaries = self._method(build)
        info = analyze_method(method, summaries)
        guarded = [a for a in info.accesses if a.name == "v"]
        assert guarded and all(
            any(("g", "L/C", "lock") in lk for lk in a.held)
            for a in guarded)

    def test_join_intersects_locksets(self):
        def build(mb):
            skip, done = mb.new_label(), mb.new_label()
            mb.iconst(1).ifeq(skip)
            mb.getstatic("L/C", "lock").monitorenter()
            mb.getstatic("L/C", "v").putstatic("L/C", "v")
            mb.getstatic("L/C", "lock").monitorexit()
            mb.goto(done)
            mb.bind(skip).iconst(0).putstatic("L/C", "v")
            # after the merge the lock is held on only one path: gone
            mb.bind(done).getstatic("L/C", "v").putstatic("L/C", "v")
            mb.return_()
        method, summaries = self._method(build)
        info = analyze_method(method, summaries)
        merged = [a for a in info.accesses if a.write][-1]
        assert merged.held == frozenset()

    def test_synchronized_method_holds_receiver(self):
        pb = ProgramBuilder("sync-test", "L/Main")
        c = pb.cls("L/C")
        c.field("f", "int")
        c.method("<init>", 0, returns=False).return_()
        c.method("m", 0, returns=False, synchronized=True) \
            .aload(0).iconst(1).putfield("L/C", "f").return_()
        pb.cls("L/Main").method("main", 0, returns=False, static=True,
                                max_stack=2) \
            .new("L/C").dup().invokespecial("L/C", "<init>", 0, False) \
            .invokevirtual("L/C", "m", 0, False).return_()
        program = pb.build(verify=True)
        summaries = EscapeSummaries(program)
        info = analyze_method(program.get_class("L/C").methods["m"],
                              summaries)
        (access,) = [a for a in info.accesses if a.write]
        assert frozenset((("p", 0),)) in access.held


class TestStaticPlansInVM:
    def test_concurrency_plan_blacklists_shared_class(self):
        from repro.lint.corpus import _shared_counter
        program = _shared_counter(synchronized=True)
        vm = JavaVM(program, "jit,static_concurrency=True")
        main = program.entry_method
        safe, racy = vm.concurrency_plan(main)
        assert 0 in racy            # the shared T/Result allocation
        assert 0 not in safe

    def test_concurrency_plan_proves_single_locker(self):
        from repro.lint.corpus import _single_locker
        program = _single_locker()
        vm = JavaVM(program, "jit,static_concurrency=True")
        main = program.entry_method
        safe, racy = vm.concurrency_plan(main)
        assert 0 in safe
        assert 0 not in racy


class TestCrossCheck:
    def test_small_campaign_is_sound(self):
        result = run_crosscheck(seed=11, count=6)
        assert result.ok, result.summary()
        assert result.checked == 6

    def test_mt_specs_agree_across_all_configs(self):
        for seed in range(4):
            verdict = run_oracle(gen_mt_program(seed))
            assert verdict.agreed, (seed, verdict.divergences)

    def test_mt_spec_extends_single_threaded_spec(self):
        st_spec, mt_spec = gen_program(9), gen_mt_program(9)
        assert st_spec.body == mt_spec.body
        assert mt_spec.workers

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_statically_elidable_never_foreign_touched(self, seed):
        """Proven-elidable sites never see a foreign lock at runtime,
        and the tiered VM consuming the static plans matches pure
        interpretation with zero elision violations."""
        check = check_spec(gen_mt_program(seed))
        assert check.error is None
        assert check.violations == []
        assert check.equivalence_ok, check.equivalence_detail


class TestWorkloadClassification:
    @pytest.fixture(scope="class")
    def mtrt_analysis(self):
        from repro.workloads.base import get_workload
        program = get_workload("mtrt").build("s0")
        ensure_library(program)
        return analyze_program(program)

    def test_mtrt_guarded_scene_is_race_free(self, mtrt_analysis):
        codes = {f.code for f in mtrt_analysis.all_findings()}
        assert not codes & {"RC001", "RC002", "RC003"}

    def test_mtrt_shared_result_is_blacklisted(self, mtrt_analysis):
        keys = {f.key for f in mtrt_analysis.all_findings()}
        assert "RC005 spec/Mtrt.main@53" in keys

    def test_analysis_is_deterministic(self):
        from repro.lint.corpus import _shared_counter
        runs = [
            [f.key for f in
             ConcurrencyAnalysis(_shared_counter(False)).all_findings()]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
