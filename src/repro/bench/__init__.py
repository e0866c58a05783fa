"""Kernel benchmark harness: scalar vs. vector replay wall-clock.

Times the *analysis* phase of selected experiments (the figure/table
``run`` functions) under each simulation kernel, against a warm trace
cache but cold simulator state — the replay memo is dropped before
every timed invocation, so each measurement includes trace load,
stream derivation and simulation, exactly what a fresh CLI run pays.

Each timing doubles as an equivalence check: the scalar and vector
result dictionaries must be identical, or the benchmark fails.

``python -m repro.bench`` writes the measurements as JSON
(``BENCH_kernels.json``) judged by :data:`GUARDS`: results identical,
every sample stream steady, and the speedup of each target the
committed :data:`BASELINE` also measured within :data:`SPEEDUP_FLOOR`
of the baseline's — ratios, not absolute seconds, so the guard is
machine-independent.
``python -m repro.bench check PATH...`` re-checks any record
(:mod:`repro.obs.record`).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..arch.kernels import ENV_VAR, KERNELS
from ..arch.compiled import IMPLEMENTATIONS
from ..experiments.base import collect_jobs, get_experiment
from ..obs import TRACER, measure_disabled_overhead
from ..obs.record import correctness
from .stats import DEFAULT_CV, DEFAULT_WINDOW, bootstrap_ci, detect_steady

#: The replay-dominated experiments the acceptance targets name.
DEFAULT_TARGETS = ("fig3", "fig7", "table3", "fig9", "table2")

#: The committed record every kernel run's speedups are held against.
BASELINE = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "../../../benchmarks/bench_baseline.json"))

#: A speedup may fall to this fraction of the baseline's (CI noise).
SPEEDUP_FLOOR = 0.75


def _time_target(fn, kernel: str, repeats: int, scale: str,
                 benchmarks) -> tuple[float, list[float], dict]:
    """(best_seconds, all_seconds, result_dict) for one kernel."""
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = kernel
    try:
        seconds = []
        result = None
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn(scale=scale, benchmarks=benchmarks)
            seconds.append(time.perf_counter() - started)
    finally:
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved
    return min(seconds), seconds, result.to_dict()


def prewarm(targets, scale: str, benchmarks, max_workers: int = 1) -> None:
    """Compute and cache every trace the targets will replay."""
    from ..analysis.parallel import run_jobs

    jobs = collect_jobs(targets, scale=scale, benchmarks=benchmarks)
    if jobs:
        run_jobs(jobs, max_workers=max_workers)


def bench_analysis(scale: str = "s0", benchmarks=None) -> dict:
    """Per-workload wall-clock of each static-analysis pass.

    Times the four dataflow passes (typed verification, liveness,
    constant propagation, whole-program escape) over every bytecode
    method of each workload with the library linked, reporting totals
    and per-method averages.  This is the analysis cost a
    ``lock_elision``/``jit_opt`` VM run or a ``repro.lint`` invocation
    pays up front.
    """
    from ..analysis.dataflow.constprop import solve_constants
    from ..analysis.dataflow.escape import EscapeSummaries
    from ..analysis.dataflow.liveness import dead_stores, pop_only_pushes
    from ..analysis.dataflow.typestate import typecheck_method
    from ..vm.library import ensure_library
    from ..workloads.base import SPEC_BENCHMARKS, get_workload

    report = {}
    for name in benchmarks or SPEC_BENCHMARKS:
        program = get_workload(name).build(scale)
        ensure_library(program)
        methods = [m for m in program.all_methods()
                   if not m.is_native and m.code]

        def timed(thunk):
            started = time.perf_counter()
            thunk()
            return time.perf_counter() - started

        passes = {
            "typecheck": timed(
                lambda: [typecheck_method(m, program) for m in methods]),
            "liveness": timed(
                lambda: [(dead_stores(m), pop_only_pushes(m))
                         for m in methods]),
            "constprop": timed(
                lambda: [solve_constants(m) for m in methods]),
            "escape": timed(lambda: EscapeSummaries(program)),
        }
        n = len(methods)
        entry = {"methods": n}
        for pname, secs in passes.items():
            entry[f"{pname}_ms"] = round(1000 * secs, 3)
            entry[f"{pname}_us_per_method"] = round(1e6 * secs / max(1, n), 1)
        entry["total_ms"] = round(1000 * sum(passes.values()), 3)
        report[name] = entry
    return report


def _steady_median(runs, window: int, cv_threshold: float):
    """(median seconds, steady-verdict dict) for one sample stream.

    The median is taken over the steady suffix when one exists —
    discarding the warmup iterations instead of hoping ``min()``
    dodged them — and over all samples otherwise (with the verdict
    recording that the stream never stabilized).
    """
    verdict = detect_steady(runs, window=window, cv_threshold=cv_threshold)
    samples = verdict.steady_samples if verdict.steady else runs
    median = float(np.median(np.asarray(samples, dtype=np.float64)))
    out = verdict.to_dict()
    if len(samples) >= 2:
        out["median_ci"] = bootstrap_ci(samples)
    return median, out


def run_bench(targets=DEFAULT_TARGETS, scale: str = "s0",
              benchmarks=None, repeats: int = 5,
              analysis: bool = True,
              steady_window: int = DEFAULT_WINDOW,
              steady_cv: float = DEFAULT_CV,
              progress=None) -> dict:
    """Benchmark ``targets`` under every kernel.

    Returns ``{"meta": ..., "targets": {id: {scalar_seconds,
    vector_seconds, speedup, identical}}}``.  ``identical`` is the
    scalar-vs-vector result comparison — the report keeps it per
    target rather than raising, so one divergence doesn't hide the
    other measurements.

    Each kernel's timing is a *sample stream*, not a single number:
    the per-repeat samples run through warmup detection
    (:func:`repro.bench.stats.detect_steady`) and the reported
    ``speedup`` is the ratio of steady medians with bootstrap CIs
    alongside — fewer than ``steady_window`` repeats can never be
    declared steady, so the ``steady`` guard also enforces a minimum
    sample count.
    """
    say = progress or (lambda msg: None)
    say(f"pre-warming trace cache for {', '.join(targets)} "
        f"(scale={scale})")
    prewarm(targets, scale, benchmarks)

    report: dict = {
        "meta": {
            "scale": scale,
            "benchmarks": list(benchmarks) if benchmarks else None,
            "repeats": repeats,
            "kernels": list(KERNELS),
            "steady": {"window": steady_window, "cv_threshold": steady_cv},
            "speedup_basis": "steady-median",
        },
        "targets": {},
    }
    for exp_id in targets:
        fn = get_experiment(exp_id)
        entry: dict = {}
        results = {}
        medians = {}
        for kernel in KERNELS:
            with TRACER.span("bench.target", id=exp_id, kernel=kernel):
                best, runs, result = _time_target(fn, kernel, repeats,
                                                  scale, benchmarks)
            median, steady = _steady_median(runs, steady_window, steady_cv)
            entry[f"{kernel}_seconds"] = round(best, 4)
            entry[f"{kernel}_median"] = round(median, 4)
            entry[f"{kernel}_runs"] = [round(s, 4) for s in runs]
            entry[f"{kernel}_steady"] = steady
            medians[kernel] = median
            results[kernel] = result
            say(f"{exp_id:8s} {kernel:6s} median {median:7.3f}s "
                f"(best {best:.3f}s of {len(runs)}, "
                f"steady={steady['steady']})")
        entry["speedup"] = round(
            medians["scalar"] / max(medians["vector"], 1e-9), 2
        )
        entry["identical"] = results["scalar"] == results["vector"]
        say(f"{exp_id:8s} speedup {entry['speedup']:.2f}x "
            f"identical={entry['identical']}")
        report["targets"][exp_id] = entry
    # Per compiled layer the vector runs reached: "c", or "python" on
    # the fallback.
    report["meta"]["compiled"] = dict(sorted(IMPLEMENTATIONS.items()))
    if analysis:
        say("timing static-analysis passes")
        report["analysis"] = bench_analysis(scale, benchmarks)
        for name, entry in report["analysis"].items():
            say(f"{name:10s} {entry['methods']:3d} methods "
                f"{entry['total_ms']:8.1f}ms total")
    if not TRACER.enabled:
        # Record the disabled tracer's per-call cost alongside the
        # kernel numbers so the zero-overhead-when-off property is a
        # tracked measurement, not an assumption.
        probe = measure_disabled_overhead(100_000)
        report["obs_overhead"] = {
            "check_ns": round(probe["check_ns"], 1),
            "span_ns": round(probe["span_ns"], 1),
        }
        say(f"disabled tracer: {report['obs_overhead']['check_ns']}ns "
            f"check, {report['obs_overhead']['span_ns']}ns span()")
    return report


def _baseline_speedups() -> dict:
    with open(BASELINE) as fh:
        return {t: e["speedup"] for t, e in json.load(fh)["targets"].items()}


def _speedups_hold(targets: dict) -> bool:
    """Every target the record shares with the baseline keeps its
    speedup within :data:`SPEEDUP_FLOOR` of the baseline's; a record
    that shares none fails, so the guard is never vacuous."""
    shared = [(targets[t]["speedup"], base)
              for t, base in _baseline_speedups().items() if t in targets]
    return bool(shared) and all(
        speedup >= SPEEDUP_FLOOR * base for speedup, base in shared)


#: Guards over a kernel record (see :mod:`repro.obs.record`).
GUARDS = {
    "schema": correctness(
        lambda d: d["meta"]["kernels"] == list(KERNELS)
        and d["meta"]["speedup_basis"] == "steady-median"),
    "identical": correctness(
        lambda d: all(e["identical"] for e in d["targets"].values())),
    "steady": lambda d: all(e[f"{k}_steady"]["steady"]
                            for e in d["targets"].values()
                            for k in d["meta"]["kernels"]),
    "speedup_floor": lambda d: _speedups_hold(d["targets"]),
}

