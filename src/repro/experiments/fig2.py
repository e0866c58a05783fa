"""Figure 2 — native instruction mix, cumulative over the suite.

Interpreter vs JIT vs traditional C/C++ reference traces: memory
operations 25-40 % (about 5 % more frequent when interpreting), control
transfers 15-20 %, and the interpreter's characteristic indirect-jump
share from switch dispatch.
"""

from __future__ import annotations

import numpy as np

from ..analysis.mix import indirect_fraction, mix_from_counts, summarize
from ..analysis.parallel import run_job
from ..analysis.runner import run_vm
from ..native.nisa import N_CATEGORIES
from ..workloads.base import SPEC_BENCHMARKS
from ..workloads.native_reference import PROFILES, generate_reference_trace
from .base import ExperimentResult, experiment


def _jobs(scale: str = "s1", benchmarks=None) -> list:
    return [run_job(n, scale, mode)
            for mode in ("interp", "jit")
            for n in benchmarks or SPEC_BENCHMARKS]


@experiment("fig2", jobs=_jobs)
def run(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    benchmarks = benchmarks or SPEC_BENCHMARKS
    rows = []
    observed_bits = []
    mem_by_mode = {}
    for mode in ("interp", "jit"):
        counts = np.zeros(N_CATEGORIES, dtype=np.int64)
        for name in benchmarks:
            result = run_vm(name, scale, mode)
            counts += result.category_counts
        rows.append(_row(f"java/{mode}", counts))
        mem_by_mode[mode] = rows[-1][1]
    for pname, profile in PROFILES.items():
        trace = generate_reference_trace(profile, n=300_000)
        rows.append(_row(pname, trace.category_counts()))
    observed_bits.append(
        f"memory ops: interp {mem_by_mode['interp']:.1f}% vs "
        f"jit {mem_by_mode['jit']:.1f}%"
    )
    return ExperimentResult(
        "fig2",
        "Instruction mix, cumulative over the suite (%)",
        ["workload", "memory", "load", "store", "transfer", "branch",
         "call", "ijump", "indirect", "compute"],
        rows,
        paper_claim=(
            "15-20% transfers and 25-40% memory ops in both Java modes, "
            "similar to C/C++; memory ops ~5% more frequent when "
            "interpreting; interpreter has far more indirect jumps, JIT "
            "more branches/calls (inlining removes indirect jumps)."
        ),
        observed="; ".join(observed_bits),
    )


def _row(label: str, counts: np.ndarray) -> list:
    mix = mix_from_counts(counts)
    s = summarize(mix)
    return [
        label,
        round(100 * s["memory"], 1),
        round(100 * mix["load"], 1),
        round(100 * mix["store"], 1),
        round(100 * s["transfer"], 1),
        round(100 * mix["branch"], 1),
        round(100 * mix["call"], 1),
        round(100 * mix["ijump"], 2),
        round(100 * indirect_fraction(counts), 2),
        round(100 * s["compute"], 1),
    ]
