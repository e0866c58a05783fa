"""Cross-layer consistency invariants tying the semantic VM to its
emitted traces — the load-bearing assumptions of the methodology."""

import numpy as np
import pytest

from repro.analysis import run_vm
from repro.native.layout import BYTECODE_BASE, BYTECODE_SIZE
from repro.native.nisa import NCat
from repro.vm.interp_templates import JUMPTABLE_BASE


@pytest.fixture(scope="module")
def interp_run():
    return run_vm("jess", "s0", "interp,record=True")


class TestInterpreterEmissionInvariants:
    def test_one_dispatch_per_interpreted_bytecode(self, interp_run):
        """Every interpreted bytecode fetches exactly one jump-table
        entry, so table loads == bytecodes executed (modulo runtime
        work, which never touches the table)."""
        tr = interp_run.trace
        table_loads = (
            (tr.ea >= JUMPTABLE_BASE) & (tr.ea < JUMPTABLE_BASE + 4 * 256)
            & tr.is_memory & ~tr.is_write
        )
        assert int(table_loads.sum()) == interp_run.bytecodes_executed

    def test_one_bytecode_fetch_per_dispatch(self, interp_run):
        """The dispatch block's bytecode fetch reads the bytecode area."""
        tr = interp_run.trace
        bc_reads = (
            (tr.ea >= BYTECODE_BASE) & (tr.ea < BYTECODE_BASE + BYTECODE_SIZE)
            & tr.is_memory & ~tr.is_write
        )
        # >= because translation/classloading also read bytecode bytes
        assert int(bc_reads.sum()) >= interp_run.bytecodes_executed

    def test_dispatch_ijump_count_matches(self, interp_run):
        tr = interp_run.trace
        from repro.vm.interp_templates import shared_templates
        dispatch_pc = shared_templates().dispatch_pc + 7 * 4  # the IJUMP row
        ijumps_at_dispatch = int(
            ((tr.cat == int(NCat.IJUMP)) & (tr.pc == dispatch_pc)).sum()
        )
        assert ijumps_at_dispatch == interp_run.bytecodes_executed

    def test_bytecode_fetch_addresses_in_loaded_methods(self, interp_run):
        tr = interp_run.trace
        bc = tr.ea[(tr.ea >= BYTECODE_BASE)
                   & (tr.ea < BYTECODE_BASE + BYTECODE_SIZE)]
        assert bc.size > 0
        assert int(bc.max()) < BYTECODE_BASE + 0x10000  # inside loaded code


class TestCycleConservation:
    def test_sink_cycles_equal_trace_cost(self, interp_run):
        assert interp_run.trace.base_cycles() == interp_run.cycles

    def test_category_counts_equal_trace_histogram(self, interp_run):
        assert (interp_run.category_counts
                == interp_run.trace.category_counts()).all()

    def test_profiled_plus_overhead_below_total(self):
        result = run_vm("jess", "s0", "jit")
        attributed = sum(
            p["interp_cycles"] + p["compiled_cycles"] + p["translate_cycles"]
            for p in result.profiles.values()
        )
        assert 0 < attributed <= result.cycles

    def test_translate_flag_cycles_match_profiler(self):
        result = run_vm("jess", "s0", "jit")
        profiled_translate = sum(
            p["translate_cycles"] for p in result.profiles.values()
        )
        # sink-side (flag-based) and profiler-side (per-method) agree
        assert profiled_translate == result.translate_cycles


class TestSchedulerInvariance:
    def test_quantum_does_not_change_single_thread_results(self):
        results = [
            run_vm("db", "s0", "jit")
            for _ in range(1)
        ]
        from repro.vm import JavaVM
        from repro.workloads import get_workload
        small_q = JavaVM(get_workload("db").build("s0"),
                         "jit,quantum=7").run()
        assert small_q.stdout == results[0].stdout
        assert small_q.cycles == results[0].cycles

    def test_quantum_changes_mtrt_interleaving_not_output(self):
        from repro.vm import JavaVM, RunConfig
        from repro.workloads import get_workload
        outs = set()
        sync_d = []
        for quantum in (11, 60, 400):
            vm = JavaVM(get_workload("mtrt").build("s0"),
                        RunConfig(quantum=quantum))
            r = vm.run()
            outs.add(tuple(r.stdout))
            sync_d.append(r.sync["case_counts"]["d"])
        assert len(outs) == 1              # output schedule-independent
        assert sync_d[0] >= sync_d[-1]     # more switching, more contention
