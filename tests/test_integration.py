"""Whole-system integration: every workload agrees under every
configuration (strategy x lock manager x inlining), and the VM's cycle
accounting is internally consistent."""

import pytest

from repro.analysis import run_vm
from repro.workloads import all_workloads

WORKLOADS = sorted(all_workloads())
CONFIGS = [
    "interp",
    "jit",
    "jit,lock_manager=thin-lock",
    "jit,lock_manager=one-bit-lock",
    "jit,inline=False",
    "counter3,lock_manager=thin-lock",
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_invariant_under_configuration(workload):
    """The architectural configuration must never change program output."""
    outputs = set()
    for config in CONFIGS:
        result = run_vm(workload, "s0", config)
        outputs.add(tuple(result.stdout))
    assert len(outputs) == 1, f"{workload}: divergent outputs {outputs}"


@pytest.mark.parametrize("workload", ("db", "compress", "mtrt"))
def test_cycle_accounting_consistent(workload):
    r = run_vm(workload, "s0", "jit")
    assert 0 <= r.translate_cycles < r.cycles
    assert 0 <= r.sync_cycles < r.cycles
    method_cycles = sum(
        p["interp_cycles"] + p["compiled_cycles"] + p["translate_cycles"]
        for p in r.profiles.values()
    )
    # Per-method attribution plus runtime services (loader, allocator,
    # sync, native bodies) must not exceed the total.
    assert method_cycles <= r.cycles


@pytest.mark.parametrize("workload", ("db", "jack"))
def test_bytecode_count_mode_invariant(workload):
    a = run_vm(workload, "s0", "interp")
    b = run_vm(workload, "s0", "jit")
    assert a.bytecodes_executed == b.bytecodes_executed


def test_trace_instruction_totals_match_counting():
    for mode in ("interp", "jit"):
        counted = run_vm("jess", "s0", mode)
        recorded = run_vm("jess", "s0", f"{mode},record=True")
        assert counted.instructions == recorded.trace.n
        assert counted.cycles == recorded.trace.base_cycles()


def test_interp_jit_native_instruction_ratio():
    """The JIT's whole point: far fewer native instructions per bytecode."""
    interp = run_vm("compress", "s0", "interp")
    jit = run_vm("compress", "s0", "jit")
    per_bc_interp = interp.instructions / interp.bytecodes_executed
    per_bc_jit = jit.instructions / jit.bytecodes_executed
    assert 18 <= per_bc_interp <= 32      # the paper's ~25
    assert per_bc_jit < 0.6 * per_bc_interp
