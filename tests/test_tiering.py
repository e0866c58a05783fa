"""The tiered execution engine: promotion, OSR, deoptimization.

Semantic ground rule: tier transitions are emission-side policy over
the single bytecode stepper, so no tiered configuration may disturb any
program observable.  The tests here drive each transition explicitly —
counter and priced promotion, on-stack replacement of a running frame,
both deoptimization triggers with their exact-repair obligations — and
close with a hypothesis property over the threshold space.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runner import run_vm
from repro.experiments.tiered import (
    SCENARIOS,
    TIERED,
    class_load_program,
    lock_escape_program,
    run_scenario,
)
from repro.isa import ProgramBuilder
from repro.vm import JavaVM, RunConfig
from repro.vm.config import STRESS_TIERED
from repro.vm.tiering import estimated_translate_cycles

INTERP = RunConfig(threshold=None)
JIT = RunConfig()


def _hot_loop_program(iters: int = 500) -> ProgramBuilder:
    """main() runs one long loop: only OSR can ever compile it."""
    pb = ProgramBuilder("hotloop", main_class="Main")
    m = pb.cls("Main").method("main", static=True)
    loop = m.new_label()
    done = m.new_label()
    m.iconst(0).istore(0)
    m.iconst(0).istore(1)
    m.bind(loop)
    m.iload(1).iconst(iters).if_icmpge(done)
    m.iload(0).iload(1).iadd().istore(0)
    m.iinc(1, 1)
    m.goto(loop)
    m.bind(done)
    m.getstatic("java/lang/System", "out").iload(0)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def _run(pb, config):
    return JavaVM(pb.build(), config.replace(spawn_daemons=False)).run()


class TestPromotion:
    def test_cold_methods_stay_interpreted(self):
        res = _run(_hot_loop_program(3),
                   TIERED)                     # 3 backedges < osr gate
        assert res.methods_compiled == 0
        assert res.tiering["promotions_t1"] == 0

    def test_priced_promotion_waits_for_spent_cycles(self):
        """With an enormous compile_ratio nothing ever repays translate."""
        res = _run(_hot_loop_program(500),
                   TIERED.replace(compile_ratio=1e9))
        assert res.tiering["promotions_t1"] == 0

    def test_snapshot_records_strategy_and_transitions(self):
        res = _run(_hot_loop_program(500), STRESS_TIERED)
        assert res.strategy_config["name"] == "tiered"
        assert res.tiering["strategy"]["t2_screen"] is False
        assert any(
            ["promote", 1] in m["transitions"]
            for m in res.tiering["methods"].values()
        )

    def test_non_tiered_runs_have_no_tiering(self):
        res = _run(_hot_loop_program(50), JIT)
        assert res.tiering is None
        assert res.strategy_config["name"] == "jit"

    def test_translate_cost_model_tracks_method_size(self):
        pb = _hot_loop_program(5)
        program = pb.build()
        main = program.get_class("Main").methods["main"]
        est = estimated_translate_cycles(main)
        assert est > len(main.code) * 100


class TestOSR:
    def test_single_invocation_loop_is_osr_compiled(self):
        """main runs once, so only the backedge rung can promote it —
        and the running frame must hop into the compiled code."""
        res = _run(_hot_loop_program(500), STRESS_TIERED)
        assert res.stdout == [str(sum(range(500)))]
        assert res.tiering["promotions_t1"] >= 1
        assert res.tiering["osr_entries"] >= 1
        assert res.tiering["methods"]["Main.main"]["tier"] >= 1

    def test_osr_preserves_observables_vs_interp(self):
        base = _run(_hot_loop_program(500), INTERP)
        osr = _run(_hot_loop_program(500), STRESS_TIERED)
        assert osr.stdout == base.stdout
        assert osr.bytecodes_executed == base.bytecodes_executed
        assert osr.heap == base.heap

    def test_osr_entry_charged_to_compiled_execution(self):
        """After OSR the remaining iterations run as compiled code."""
        res = _run(_hot_loop_program(500), STRESS_TIERED)
        profile = res.profiles["Main.main"]
        assert profile["osr_entries"] >= 1
        assert profile["compiled_cycles"] > 0


class TestLockEscapeDeopt:
    def test_speculation_fails_and_deopts(self):
        res = run_scenario("lock_escape")
        assert res.stdout == SCENARIOS["lock_escape"][1]
        assert res.tiering["deopts"] == 1
        assert res.tiering["deopt_reasons"] == {"lock_escape": 1}
        assert res.tiering["speculation_failures"] == 1

    def test_exact_repair_keeps_sync_consistent(self):
        """Elided + real acquire totals must match the interpreter run,
        and the repair must never be misfiled as an elision violation."""
        base = _run(lock_escape_program(), INTERP)
        res = run_scenario("lock_escape")
        assert (res.sync["acquire_ops"] + res.sync["elided_acquires"]
                == base.sync["acquire_ops"])
        assert (res.sync["release_ops"] + res.sync["elided_releases"]
                == base.sync["release_ops"])
        assert res.sync["elision_violations"] == 0

    def test_blacklisted_site_is_not_respeculated(self):
        """The loop keeps allocating after the deopt; a second failure
        would mean the blacklist did not hold."""
        res = run_scenario("lock_escape")
        assert res.tiering["speculation_failures"] == 1
        assert res.tiering["speculative_marks"] >= 1

    def test_deopted_method_reprofiles_and_repromotes(self):
        res = run_scenario("lock_escape")
        tr = res.tiering["methods"]["S.run"]["transitions"]
        deopt_at = next(i for i, t in enumerate(tr) if t[0] == "deopt")
        after = [t for t in tr[deopt_at + 1:] if t[0] == "promote"]
        assert after and after[0][1] == 1    # ladder restarts at tier 1


class TestClassLoadDeopt:
    def test_cha_assumption_broken_by_loading(self):
        res = run_scenario("class_load")
        assert res.stdout == SCENARIOS["class_load"][1]   # 100*1 + 2
        assert res.tiering["deopts"] == 1
        assert res.tiering["deopt_reasons"] == {"class_load": 1}

    def test_result_matches_interp_and_jit(self):
        for config in (INTERP, JIT):
            res = _run(class_load_program(), config)
            assert res.stdout == SCENARIOS["class_load"][1]

    def test_deopt_invalidates_then_ladder_restarts(self):
        """Eager invalidation: the class-load deopt is recorded for
        Main.call, and any re-promotion restarts from tier 1 — the
        post-deopt tier-2 code is compiled against the enlarged loaded
        world, so it carries no broken assumption."""
        res = run_scenario("class_load")
        tr = res.tiering["methods"]["Main.call"]["transitions"]
        deopt_at = next(i for i, t in enumerate(tr)
                        if t[0] == "deopt" and t[2] == "class_load")
        after = [t for t in tr[deopt_at + 1:] if t[0] == "promote"]
        if after:
            assert after[0][1] == 1


WORKLOAD_SAMPLE = ("db", "jack", "mtrt")


@pytest.mark.parametrize("workload", WORKLOAD_SAMPLE)
def test_workload_observables_identical_across_engines(workload):
    """interp / jit / tiered on real workloads: stdout, heap and
    normalized sync effects must be indistinguishable."""
    interp = run_vm(workload, "s0", "interp")
    jit = run_vm(workload, "s0", "jit")
    tiered = run_vm(workload, "s0",
                    "tiered,t2_invocations=3,t2_backedges=32")
    for res in (jit, tiered):
        assert res.stdout == interp.stdout
        assert res.bytecodes_executed == interp.bytecodes_executed
        assert res.heap == interp.heap
        acquires = res.sync["acquire_ops"] + res.sync["elided_acquires"]
        assert acquires == interp.sync["acquire_ops"]


def _check_transition_wellformedness(snapshot):
    """Tier is monotonically non-decreasing between deopts; every deopt
    resets to tier 0; promotions climb one rung at a time from there."""
    for name, entry in snapshot["methods"].items():
        tier = 0
        for t in entry["transitions"]:
            kind = t[0]
            if kind == "promote":
                assert t[1] > tier, (name, entry["transitions"])
                tier = t[1]
            elif kind == "deopt":
                assert tier >= 2, (name, "deopt below tier 2")
                tier = 0
            elif kind == "osr":
                assert tier >= 1, (name, "OSR without compiled code")
        assert entry["tier"] == tier


@settings(max_examples=15, deadline=None)
@given(
    t1=st.integers(1, 6),
    t2_extra=st.integers(1, 60),
    osr=st.integers(1, 50),
    ratio=st.sampled_from([0.01, 0.125, 1.0]),
    scenario=st.sampled_from(sorted(SCENARIOS)),
)
def test_property_ladder_wellformed(t1, t2_extra, osr, ratio, scenario):
    """Any threshold assignment: observables match the interpreter and
    the transition log forms legal promote/OSR/deopt cycles."""
    config = TIERED.replace(
        t1_invocations=t1, t2_invocations=t1 + t2_extra,
        osr_backedges=osr, t2_backedges=8 * osr,
        compile_ratio=ratio, t2_screen=False)
    builder, expected = SCENARIOS[scenario]
    res = run_scenario(scenario, config)
    assert res.stdout == expected
    _check_transition_wellformedness(res.tiering)
