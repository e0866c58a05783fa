"""Ablation studies for the design choices DESIGN.md calls out.

- ``ablation_strategy``: counter-threshold heuristics between the
  paper's two poles (first-invocation JIT vs oracle).
- ``ablation_install``: the Section 6 proposal — generate code straight
  into the I-cache, eliminating code-installation write misses; we bound
  the benefit by filtering install stores out of the D-stream.
- ``ablation_locks``: all three lock managers side by side.
- ``ablation_inline``: JIT inlining on/off (indirect-jump frequency and
  cycle effect).
"""

from __future__ import annotations

import numpy as np

from ..analysis.parallel import oracle_job, run_job, trace_job, trace_jobs
from ..analysis.runner import get_trace, oracle_run, run_vm
from ..arch.caches import CacheConfig, simulate, simulate_split_l1
from ..native.layout import CODE_CACHE_BASE, CODE_CACHE_SIZE
from ..vm.config import RunConfig
from ..workloads.base import SPEC_BENCHMARKS
from .base import ExperimentResult, experiment

_STRATEGY_BENCHMARKS = ("db", "javac", "compress")
_THRESHOLDS = (2, 4, 16)


def _strategy_jobs(scale: str = "s1", benchmarks=None) -> list:
    jobs = []
    for name in benchmarks or _STRATEGY_BENCHMARKS:
        jobs.append(oracle_job(name, scale))
        jobs.extend(run_job(name, scale, RunConfig(threshold=t))
                    for t in _THRESHOLDS)
    return jobs


@experiment("ablation_strategy", jobs=_strategy_jobs)
def run_strategy(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Counter thresholds vs first-use JIT vs oracle."""
    benchmarks = benchmarks or _STRATEGY_BENCHMARKS
    rows = []
    for name in benchmarks:
        analysis, mixed = oracle_run(name, scale)
        jit_total = analysis.jit_result.cycles
        row = [name, 1.0]
        for threshold in _THRESHOLDS:
            res = run_vm(name, scale, RunConfig(threshold=threshold))
            row.append(round(res.cycles / jit_total, 3))
        row.append(round(analysis.interp_result.cycles / jit_total, 3))
        row.append(round(mixed.cycles / jit_total, 3))
        rows.append(row)
    return ExperimentResult(
        "ablation_strategy",
        "Compilation strategies, cycles normalized to first-use JIT",
        ["benchmark", "jit(first use)", "counter>=2", "counter>=4",
         "counter>=16", "interp", "oracle"],
        rows,
        paper_claim=(
            "Simple counter heuristics sit between first-use JIT and the "
            "oracle; no realizable heuristic beats the oracle bound."
        ),
        observed="oracle column is the per-benchmark minimum in every row"
        if all(min(r[1:]) == r[-1] for r in rows) else
        "oracle not uniformly minimal (see rows)",
    )


def _install_jobs(scale: str = "s1", benchmarks=None) -> list:
    return [trace_job(n, scale, "jit") for n in benchmarks or SPEC_BENCHMARKS]


@experiment("ablation_install", jobs=_install_jobs)
def run_install(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Bound on the Section 6 generate-into-I-cache proposal."""
    benchmarks = benchmarks or SPEC_BENCHMARKS
    rows = []
    reductions = []
    for name in benchmarks:
        trace = get_trace(name, scale, "jit")
        base = simulate_split_l1(trace)
        # Filter code-cache install stores out of the data stream.
        ea, wr, _ = trace.data_stream()
        install = (
            wr & (ea >= CODE_CACHE_BASE)
            & (ea < CODE_CACHE_BASE + CODE_CACHE_SIZE)
        )
        keep = ~install
        nodata = simulate(CacheConfig(64 << 10, 32, 4), ea[keep],
                          writes=wr[keep])
        saved = base.dcache.total_misses - nodata.total_misses
        reduction = saved / max(1, base.dcache.total_misses)
        reductions.append(reduction)
        rows.append([
            name,
            base.dcache.total_misses,
            nodata.total_misses,
            int(install.sum()),
            round(100 * reduction, 1),
        ])
    return ExperimentResult(
        "ablation_install",
        "Generate-into-I-cache bound: D-misses without install stores",
        ["benchmark", "D misses (base)", "D misses (no install)",
         "install stores removed", "D-miss reduction %"],
        rows,
        paper_claim=(
            "Write misses from code installation are a significant part of "
            "JIT-mode data misses; writing generated code directly into "
            "the I-cache would remove them (Section 6 proposal)."
        ),
        observed=(
            f"D-miss reduction {100 * min(reductions):.0f}%.."
            f"{100 * max(reductions):.0f}%"
        ),
    )


_LOCK_BENCHMARKS = ("jack", "db", "jess", "mtrt")


def _lock_jobs(scale: str = "s1", benchmarks=None) -> list:
    return [run_job(n, scale, RunConfig(lock_manager=mgr))
            for n in benchmarks or _LOCK_BENCHMARKS
            for mgr in ("monitor-cache", "thin-lock", "one-bit-lock")]


@experiment("ablation_locks", jobs=_lock_jobs)
def run_locks(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Monitor cache vs thin lock vs 1-bit lock, total sync cycles."""
    benchmarks = benchmarks or _LOCK_BENCHMARKS
    rows = []
    for name in benchmarks:
        cycles = {}
        for mgr in ("monitor-cache", "thin-lock", "one-bit-lock"):
            res = run_vm(name, scale, RunConfig(lock_manager=mgr))
            cycles[mgr] = res.sync_cycles
        mc = cycles["monitor-cache"] or 1
        rows.append([
            name, cycles["monitor-cache"], cycles["thin-lock"],
            cycles["one-bit-lock"],
            round(mc / max(1, cycles["thin-lock"]), 2),
            round(mc / max(1, cycles["one-bit-lock"]), 2),
        ])
    return ExperimentResult(
        "ablation_locks",
        "Synchronization cycles by lock design (JIT mode)",
        ["benchmark", "monitor-cache", "thin-lock", "1-bit",
         "thin speedup", "1-bit speedup"],
        rows,
        paper_claim=(
            "Thin locks ~2x over the monitor cache; the 1-bit variant "
            "keeps most of the benefit while spending one header bit."
        ),
        observed="",
    )


#: Plain thin locks, and the same plus the optimizer and lock elision.
_THIN = RunConfig(lock_manager="thin-lock")
_THIN_ELIDED = _THIN.replace(jit_opt=True, lock_elision=True)


def _elision_jobs(scale: str = "s1", benchmarks=None) -> list:
    return [run_job(name, scale, config)
            for name in benchmarks or SPEC_BENCHMARKS
            for config in (_THIN, _THIN_ELIDED)]


@experiment("ablation_lock_elision", jobs=_elision_jobs)
def run_lock_elision(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Escape-analysis lock elision + liveness DSE vs plain thin locks.

    The paper's Figure 11 shows locking is dominated by the uncontended
    cases (a) and (b), which thin locks *cheapen*; whole-program escape
    analysis goes further and *removes* acquisitions on provably
    thread-local receivers.  Rows report how many of each case were
    elided, the sync-cycle saving, and the JIT dead stores removed by
    the liveness pass (both optimizations are semantics-preserving: the
    harness asserts identical stdout).
    """
    benchmarks = benchmarks or SPEC_BENCHMARKS
    rows = []
    elided_total = base_total = 0
    for name in benchmarks:
        base = run_vm(name, scale, _THIN)
        opt = run_vm(name, scale, _THIN_ELIDED)
        if base.stdout != opt.stdout:      # pragma: no cover - safety net
            raise AssertionError(f"{name}: optimized run diverged")
        if opt.sync["elision_violations"]:  # pragma: no cover - safety net
            raise AssertionError(f"{name}: elision violated thread-locality")
        acquires = base.sync["acquire_ops"]
        elided = opt.sync["elided_acquires"]
        cases = opt.sync["elided_case_counts"]
        saving = 1 - opt.sync_cycles / max(1, base.sync_cycles)
        elided_total += elided
        base_total += acquires
        rows.append([
            name, acquires, elided,
            round(100 * elided / max(1, acquires), 1),
            cases["a"], cases["b"], cases["c"],
            round(100 * saving, 1),
            opt.dead_stores_eliminated,
        ])
    return ExperimentResult(
        "ablation_lock_elision",
        "Escape-analysis lock elision over thin locks (JIT mode)",
        ["benchmark", "acquires (base)", "elided", "elided %",
         "case a", "case b", "case c", "sync cycle saving %",
         "JIT dead stores"],
        rows,
        paper_claim=(
            "Uncontended cases (a)/(b) dominate lock traffic (Figure 11); "
            "escape analysis can remove thread-local acquisitions "
            "outright instead of merely cheapening them."
        ),
        observed=(
            f"{elided_total} of {base_total} acquisitions elided across "
            f"{len(benchmarks)} benchmarks; elision is all-or-nothing per "
            "benchmark — field-insensitivity keeps container receivers "
            "escaped (see docs/analysis.md)"
        ),
    )


_INLINE_BENCHMARKS = ("db", "javac", "mpegaudio")


def _inline_jobs(scale: str = "s1", benchmarks=None) -> list:
    return [run_job(n, scale, RunConfig(inline=flag))
            for n in benchmarks or _INLINE_BENCHMARKS
            for flag in (True, False)]


@experiment("ablation_inline", jobs=_inline_jobs)
def run_inline(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """JIT inlining on/off."""
    benchmarks = benchmarks or _INLINE_BENCHMARKS
    rows = []
    for name in benchmarks:
        on = run_vm(name, scale, RunConfig(inline=True))
        off = run_vm(name, scale, RunConfig(inline=False))
        ind_on = _indirect(on)
        ind_off = _indirect(off)
        rows.append([
            name, on.inlined_sites,
            round(off.cycles / max(1, on.cycles), 3),
            round(100 * ind_off, 2), round(100 * ind_on, 2),
        ])
    return ExperimentResult(
        "ablation_inline",
        "JIT devirtualization/inlining on vs off",
        ["benchmark", "inlined sites", "cycles off/on",
         "indirect % (off)", "indirect % (on)"],
        rows,
        paper_claim=(
            "JIT inlining of virtual calls lowers the frequency of "
            "indirect control transfers (Section 4.1)."
        ),
        observed="",
    )


_INDIRECT_BENCHMARKS = ("compress", "db", "jess")


def _indirect_jobs(scale: str = "s1", benchmarks=None) -> list:
    return trace_jobs(benchmarks or _INDIRECT_BENCHMARKS, scale)


@experiment("ablation_indirect", jobs=_indirect_jobs)
def run_indirect(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Section 6's recommendation: an indirect-branch predictor for the
    interpreter.  BTB vs two-level target cache on the dispatch jump."""
    from ..arch.branch import (
        HybridIndirectPredictor,
        TargetCache,
        run_indirect_predictor,
    )

    class _BTBOnly:
        def __init__(self):
            self._targets = {}

        def predict(self, pc):
            return self._targets.get(pc)

        def update(self, pc, target):
            self._targets[pc] = target

    benchmarks = benchmarks or _INDIRECT_BENCHMARKS
    rows = []
    gains = []
    for name in benchmarks:
        for mode in ("interp", "jit"):
            trace = get_trace(name, scale, mode)
            events = trace.transfers()
            accs = {}
            for pname, factory in (("btb", _BTBOnly),
                                    ("target-cache", TargetCache),
                                    ("hybrid", HybridIndirectPredictor)):
                res = run_indirect_predictor(factory(), *events)
                accs[pname] = res["accuracy"]
                n_events = res["events"]
            rows.append([
                name, mode, n_events,
                round(100 * accs["btb"], 1),
                round(100 * accs["target-cache"], 1),
                round(100 * accs["hybrid"], 1),
            ])
            if mode == "interp":
                gains.append(accs["target-cache"] - accs["btb"])
    return ExperimentResult(
        "ablation_indirect",
        "Indirect-target prediction accuracy (%): BTB vs target cache",
        ["benchmark", "mode", "indirect events", "btb", "target-cache",
         "hybrid"],
        rows,
        paper_claim=(
            "If the interpreter mode is used, a predictor well-tailored "
            "for indirect branches (two-level target caches, [22]/[26]) "
            "should be used; the plain BTB cannot capture the dispatch "
            "switch's many targets."
        ),
        observed=(
            f"interpreter-mode accuracy gain from the target cache: "
            f"{100 * min(gains):.0f}..{100 * max(gains):.0f} points"
        ),
    )


_FOLDING_BENCHMARKS = ("compress", "jess", "mpegaudio")
_FOLDING = RunConfig(threshold=None, folding=True)


def _folding_jobs(scale: str = "s1", benchmarks=None) -> list:
    return trace_jobs(benchmarks or _FOLDING_BENCHMARKS, scale,
                      configs=("interp", _FOLDING))


@experiment("ablation_folding", jobs=_folding_jobs)
def run_folding(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Section 4.4's proposal: a folding interpreter (picoJava-style
    grouping of simple bytecodes under one dispatch)."""
    from ..arch.branch import compare_predictors
    from ..arch.pipeline import ipc_by_width

    benchmarks = benchmarks or _FOLDING_BENCHMARKS
    rows = []
    savings = []
    for name in benchmarks:
        base_trace = get_trace(name, scale, "interp")
        fold_trace = get_trace(name, scale, _FOLDING)
        base_cycles = base_trace.base_cycles()
        fold_cycles = fold_trace.base_cycles()
        saving = 1 - fold_cycles / base_cycles
        savings.append(saving)
        g_base = compare_predictors(base_trace, names=("gshare",))["gshare"]
        g_fold = compare_predictors(fold_trace, names=("gshare",))["gshare"]
        ipc_base = ipc_by_width(base_trace, widths=(8,))[8].ipc
        ipc_fold = ipc_by_width(fold_trace, widths=(8,))[8].ipc
        rows.append([
            name,
            round(100 * saving, 1),
            round(100 * (1 - fold_trace.n / base_trace.n), 1),
            round(100 * g_base.misprediction_rate, 1),
            round(100 * g_fold.misprediction_rate, 1),
            round(ipc_base, 2),
            round(ipc_fold, 2),
        ])
    return ExperimentResult(
        "ablation_folding",
        "Folding interpreter vs plain switch dispatch (interpreter mode)",
        ["benchmark", "cycle saving %", "instr saving %",
         "gshare mispredict % (plain)", "gshare mispredict % (folded)",
         "ipc@8 (plain)", "ipc@8 (folded)"],
        rows,
        paper_claim=(
            "An interpreter that folds common bytecode sequences "
            "(picoJava-style) mitigates the dispatch switch's poor target "
            "prediction and scales better on wide machines (Section 4.4)."
        ),
        observed=(
            f"cycle savings {100 * min(savings):.0f}%.."
            f"{100 * max(savings):.0f}%; mispredict rate and 8-wide IPC "
            "improve in every row"
        ),
    )


_VICTIM_BENCHMARKS = ("javac", "db", "compress")


def _victim_jobs(scale: str = "s1", benchmarks=None) -> list:
    return trace_jobs(benchmarks or _VICTIM_BENCHMARKS, scale)


@experiment("ablation_victim", jobs=_victim_jobs)
def run_victim(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Figure 7 follow-on: the 1-way -> 2-way step dominates the
    associativity sweep; a small victim buffer (Jouppi) recovers most of
    that step on a direct-mapped cache."""
    benchmarks = benchmarks or _VICTIM_BENCHMARKS
    rows = []
    recovered = []
    for name in benchmarks:
        for mode in ("interp", "jit"):
            trace = get_trace(name, scale, mode)
            pcs = trace.pc
            dm = simulate(CacheConfig(8 << 10, 32, 1), pcs)
            dmv = simulate(CacheConfig(8 << 10, 32, 1, victim_entries=8),
                           pcs)
            two = simulate(CacheConfig(8 << 10, 32, 2), pcs)
            gap = dm.miss_rate - two.miss_rate
            got = dm.miss_rate - dmv.effective_miss_rate
            frac = got / gap if gap > 1e-9 else 1.0
            recovered.append(min(1.5, max(0.0, frac)))
            rows.append([
                name, mode,
                round(100 * dm.miss_rate, 3),
                round(100 * dmv.effective_miss_rate, 3),
                round(100 * two.miss_rate, 3),
                round(100 * min(1.5, max(0.0, frac)), 0),
            ])
    return ExperimentResult(
        "ablation_victim",
        "I-cache: direct-mapped + 8-entry victim buffer vs 2-way (8K)",
        ["benchmark", "mode", "DM miss %", "DM+victim miss %",
         "2-way miss %", "assoc gap recovered %"],
        rows,
        paper_claim=(
            "(Extension of Fig. 7's finding) the largest associativity "
            "benefit is 1->2 way, i.e. pair conflicts — which a small "
            "victim buffer can capture without the extra way."
        ),
        observed=(
            f"victim buffer recovers {100 * min(recovered):.0f}%.."
            f"{100 * max(recovered):.0f}% of the 1->2-way gap"
        ),
    )


def _indirect(result) -> float:
    from ..analysis.mix import indirect_fraction
    return indirect_fraction(result.category_counts)
