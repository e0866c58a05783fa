"""Bytecode/method locality statistics (the [27] figures the paper cites).

Section 4.3 grounds the interpreter's cache behaviour in dynamic
bytecode concentration (15 unique bytecodes cover 60-85 % of the
stream; <=20 % of distinct bytecodes cover 90 %) and in tiny-method
dominance (45 % of invoked methods are <=16 bytecode bytes).  This
experiment recomputes those statistics for our workloads.
"""

from __future__ import annotations

from ..analysis.locality import (
    BytecodeLocality,
    MethodLocality,
    method_sizes_of,
)
from ..analysis.parallel import run_job
from ..analysis.runner import run_vm
from ..isa.opcodes import N_OPCODES
from ..workloads.base import SPEC_BENCHMARKS, get_workload
from .base import ExperimentResult, experiment


def _jobs(scale: str = "s1", benchmarks=None) -> list:
    return [run_job(n, scale, "interp")
            for n in benchmarks or SPEC_BENCHMARKS]


@experiment("locality", jobs=_jobs)
def run(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    benchmarks = benchmarks or SPEC_BENCHMARKS
    rows = []
    top15 = []
    small = []
    for name in benchmarks:
        program = get_workload(name).build(scale)
        result = run_vm(name, scale, "interp")
        bl = BytecodeLocality(result.opcode_counts)
        ml = MethodLocality(result.profiles, method_sizes_of(program))
        b = bl.summary()
        m = ml.summary()
        rows.append([
            name,
            b["distinct_opcodes"],
            round(100 * b["top15_coverage"], 1),
            b["opcodes_for_90pct"],
            round(100 * b["opcodes_for_90pct"] / N_OPCODES, 1),
            round(m["mean_method_bytes"], 1),
            round(100 * m["small_method_invocation_fraction"], 1),
        ])
        top15.append(b["top15_coverage"])
        small.append(m["small_method_invocation_fraction"])
    return ExperimentResult(
        "locality",
        "Dynamic bytecode & method locality (interpreter runs)",
        ["benchmark", "distinct opcodes", "top-15 coverage %",
         "opcodes for 90%", "as % of ISA", "mean method bytes",
         "invocations of <=16B methods %"],
        rows,
        paper_claim=(
            "[27]: 15 unique bytecodes cover 60-85% of the dynamic "
            "stream; <20% of distinct bytecodes cover 90%; ~45% of "
            "dynamically invoked methods are tiny (<=16 bytecode bytes)."
        ),
        observed=(
            f"top-15 coverage {100 * min(top15):.0f}%..{100 * max(top15):.0f}%; "
            f"tiny-method invocation share "
            f"{100 * min(small):.0f}%..{100 * max(small):.0f}%"
        ),
    )
