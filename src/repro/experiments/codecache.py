"""Cross-process shared JIT code archive: warm-start vs cold-start.

The paper charges every dynamic compile its full translate cost —
Figure 1's "translate" bars assume each JVM instance pays to compile
every hot method from scratch.  A persistent content-addressed archive
of compiled methods (in the spirit of ShareJIT) converts the second and
later runs' translate cost into a much cheaper *install* cost: copy the
already-translated native code into the code cache and relink.  This
experiment measures that conversion on the seven SPEC-style workloads:

- ``warm_cold_comparison``: per workload, an archive-disabled baseline,
  a cold-archive run (populates the archive, pays full translate) and a
  warm run (hits the archive, pays install).  Execution must be
  byte-identical across all three — the archive may only move cycles
  between the translate and install buckets, never change what runs.
- ``tiered_warm_start``: the online tier ladder with a warm archive —
  promotions price against the install cost, so hot methods reach
  native code earlier and the whole run gets cheaper, not just the
  translate bar.
- ``pooled_sharing``: two pool workers populate one archive
  concurrently (first pass), then a second pass is served entirely
  from it — the cross-*process* sharing the archive exists for.
- ``chaos_quarantine``: flip bytes in one archive entry and rerun warm;
  the corrupt entry must be quarantined and recompiled, never executed.

``python -m repro.experiments.codecache --out BENCH_codecache.json``
writes a record judged by :data:`GUARDS`; under a ``REPRO_FAULTS`` plan
(the chaos CI job) only its correctness guards apply.
"""

from __future__ import annotations

import glob
import os
import tempfile

from ..analysis import cache
from ..analysis.parallel import run_job, run_jobs
from ..analysis.runner import run_vm
from ..obs.record import correctness, write
from ..workloads.base import SPEC_BENCHMARKS
from .base import ExperimentResult, experiment


def _run(name: str, scale: str, mode, archive: str):
    """Archive-enabled runs bypass the run-result cache automatically
    (the warm/cold split must be measured fresh); the archive-disabled
    baselines are deterministic and cacheable like any other run."""
    return run_vm(name, scale, mode, code_archive=archive)


def _jobs(scale: str = "s1", benchmarks=None) -> list:
    # Only the archive-disabled baselines are pre-warmable; the
    # cold/warm archive runs must execute fresh to be meaningful.
    return [run_job(n, scale, "jit")
            for n in (benchmarks or SPEC_BENCHMARKS)]


def _same_execution(a, b) -> bool:
    """True when two runs did identical work outside the translate /
    install split: same output, same heap shape, same classes, same
    executed cycles.  (Total ``cycles`` may differ — that is the
    translate saving being measured.)"""
    return (a.stdout == b.stdout
            and a.heap == b.heap
            and a.classes_loaded == b.classes_loaded
            and a.execute_cycles == b.execute_cycles)


def warm_cold_comparison(scale: str = "s1", benchmarks=None,
                         archive_dir: str | None = None,
                         mode: str = "jit") -> dict:
    """Disabled / cold / warm triple per workload, plus suite totals."""
    benchmarks = tuple(benchmarks or SPEC_BENCHMARKS)
    archive_dir = archive_dir or tempfile.mkdtemp(prefix="repro-codecache-")
    per = {}
    cold_total = warm_total = 0
    hits = misses = 0
    for name in benchmarks:
        # One archive per workload: library methods compiled for an
        # earlier workload can legitimately serve a later one (same
        # bytecode, same baked addresses), which would make its "cold"
        # run partially warm and muddy the per-workload comparison.
        wdir = os.path.join(archive_dir, name)
        base = _run(name, scale, mode, "")    # archive disabled
        cold = _run(name, scale, mode, wdir)  # populates
        warm = _run(name, scale, mode, wdir)  # installs
        arch = warm.archive or {}
        row = {
            "base_cycles": base.cycles,
            "cold_cycles": cold.cycles,
            "warm_cycles": warm.cycles,
            "cold_translate": cold.translate_cycles,
            "warm_translate": warm.translate_cycles,
            "warm_install": warm.install_cycles,
            "methods_compiled_cold": cold.methods_compiled,
            "methods_installed_warm": warm.methods_installed,
            "archive_hits": arch.get("hits", 0),
            "archive_misses": arch.get("misses", 0),
            # The archive may only move cycles between buckets:
            "identical": (_same_execution(base, cold)
                          and _same_execution(base, warm)),
            "disabled_equals_cold": base.cycles == cold.cycles,
        }
        per[name] = row
        cold_total += row["cold_translate"]
        warm_total += row["warm_translate"]
        hits += row["archive_hits"]
        misses += row["archive_misses"]
    return {
        "scale": scale,
        "mode": mode,
        "benchmarks": list(benchmarks),
        "per_workload": per,
        "totals": {
            "cold_translate": cold_total,
            "warm_translate": warm_total,
            "reduction_fraction": round(1 - warm_total / cold_total, 4)
            if cold_total else None,
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0,
            "all_identical": all(r["identical"] for r in per.values()),
        },
    }


def tiered_warm_start(scale: str = "s0", benchmark: str = "jess") -> dict:
    """The tier ladder against a warm archive: promotions price against
    the install cost, so the warm run promotes earlier and finishes in
    fewer *total* cycles — a whole-run win, not just a translate-bar
    one.  Only stdout equivalence holds (the warm run intentionally
    spends more of its life in native code)."""
    d = tempfile.mkdtemp(prefix="repro-codecache-tiered-")
    cold = _run(benchmark, scale, "tiered", d)
    warm = _run(benchmark, scale, "tiered", d)
    return {
        "benchmark": benchmark,
        "scale": scale,
        "cold_cycles": cold.cycles,
        "warm_cycles": warm.cycles,
        "cold_translate": cold.translate_cycles,
        "warm_translate": warm.translate_cycles,
        "archive_installs": warm.tiering["archive_installs"],
        "stdout_ok": warm.stdout == cold.stdout,
        "warm_beats_cold": warm.cycles < cold.cycles,
    }


def pooled_sharing(scale: str = "s0", benchmarks=("db", "compress"),
                   mode: str = "jit") -> dict:
    """Two workers, one archive.  The first pass populates it from both
    processes at once (pid-file locks arbitrate); the second pass is
    served entirely from the shared store."""
    d = tempfile.mkdtemp(prefix="repro-codecache-pool-")
    jobs = [run_job(n, scale, mode, code_archive=d) for n in benchmarks]

    def counters(summary):
        snap = summary.stats.snapshot()
        return {k: snap.get(k, 0)
                for k in ("code_hits", "code_misses", "code_stores")}

    first = run_jobs(jobs, max_workers=2, cache_dir="")
    second = run_jobs(jobs, max_workers=2, cache_dir="")
    return {
        "benchmarks": list(benchmarks),
        "scale": scale,
        "first_pass": counters(first),
        "second_pass": counters(second),
        "errors": len(first.errors) + len(second.errors),
    }


def chaos_quarantine(scale: str = "s0", benchmark: str = "db",
                     mode: str = "jit") -> dict:
    """Flip bytes in one archive entry, rerun warm: the sidecar digest
    must catch it, the entry must be quarantined and recompiled, and
    the corrupted code must never execute."""
    d = tempfile.mkdtemp(prefix="repro-codecache-chaos-")
    base = _run(benchmark, scale, mode, "")
    _run(benchmark, scale, mode, d)                 # populate
    entries = sorted(glob.glob(os.path.join(d, "code", "*.pkl")))
    with open(entries[0], "r+b") as fh:
        fh.write(b"\xde\xad\xbe\xef")
    before = cache.STATS.snapshot()
    warm = _run(benchmark, scale, mode, d)
    delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
    return {
        "benchmark": benchmark,
        "scale": scale,
        "entries": len(entries),
        "quarantined": delta.get("quarantined", 0),
        "recompiled_stores": delta.get("code_stores", 0),
        "identical": _same_execution(base, warm),
        "quarantine_dir_exists": os.path.isdir(
            os.path.join(d, "quarantine")),
    }


@experiment("codecache", jobs=_jobs)
def run_codecache(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Warm vs cold shared-archive translate cost."""
    data = warm_cold_comparison(scale, benchmarks)
    rows = []
    for name, r in data["per_workload"].items():
        saved = r["cold_translate"] - r["warm_translate"]
        rows.append([
            name,
            r["cold_translate"],
            r["warm_translate"],
            round(saved / r["cold_translate"], 3)
            if r["cold_translate"] else None,
            r["archive_hits"],
            r["methods_installed_warm"],
            "yes" if r["identical"] else "NO",
        ])
    tot = data["totals"]
    return ExperimentResult(
        "codecache",
        "Shared JIT code archive: warm vs cold translate cycles",
        ["benchmark", "cold translate", "warm translate", "saved",
         "hits", "installs", "identical"],
        rows,
        paper_claim=(
            "Translate overhead (Fig. 1) is charged per JVM instance; "
            "sharing compiled code across instances converts it into a "
            "far cheaper install cost without changing execution."
        ),
        observed=(
            f"warm start cuts suite translate cycles by "
            f"{100 * (tot['reduction_fraction'] or 0):.1f}% "
            f"(hit rate {100 * tot['hit_rate']:.1f}%), output "
            f"{'identical' if tot['all_identical'] else 'DIVERGED'}"
        ),
        extra=(f"suite translate: cold={tot['cold_translate']} "
               f"warm={tot['warm_translate']}"),
    )


# ----------------------------------------------------------------------
# BENCH_codecache.json
# ----------------------------------------------------------------------
#: Guards over a code-archive record (see :mod:`repro.obs.record`).
GUARDS = {
    "schema": correctness(lambda d: set(d) == {
        "scale", "mode", "benchmarks", "per_workload", "totals",
        "tiered", "pooled", "chaos"}),
    "identical": correctness(lambda d: d["totals"]["all_identical"] and all(
        r["identical"] for r in d["per_workload"].values())),
    "disabled_equals_cold": correctness(lambda d: all(
        r["disabled_equals_cold"] for r in d["per_workload"].values())),
    "translate_halved": lambda d: d["totals"]["reduction_fraction"] >= 0.5,
    "warm_all_hits": lambda d: d["totals"]["hit_rate"] > 0 and all(
        r["archive_misses"] == 0 for r in d["per_workload"].values()),
    "tiered_stdout_ok": correctness(lambda d: d["tiered"]["stdout_ok"]),
    "tiered_warm_start": lambda d: (d["tiered"]["warm_beats_cold"]
                                    and d["tiered"]["archive_installs"] >= 1),
    "pool_errors": correctness(lambda d: d["pooled"]["errors"] == 0),
    "pool_shared": lambda d: (
        d["pooled"]["first_pass"]["code_stores"] >= 1
        and d["pooled"]["second_pass"]["code_hits"] >= 1
        and d["pooled"]["second_pass"]["code_misses"] == 0),
    "quarantined": lambda d: (d["chaos"]["quarantined"] >= 1
                              and d["chaos"]["recompiled_stores"] >= 1
                              and d["chaos"]["quarantine_dir_exists"]),
    "chaos_identical": correctness(lambda d: d["chaos"]["identical"]),
}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="shared code-archive benchmark summary")
    parser.add_argument("--out", default="BENCH_codecache.json")
    parser.add_argument("--scale", default="s1")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated workload subset")
    args = parser.parse_args(argv)
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    data = warm_cold_comparison(args.scale, benchmarks)
    data["tiered"] = tiered_warm_start()
    data["pooled"] = pooled_sharing()
    data["chaos"] = chaos_quarantine()
    tot = data["totals"]
    print(f"suite translate: cold={tot['cold_translate']} "
          f"warm={tot['warm_translate']} "
          f"({100 * (tot['reduction_fraction'] or 0):.1f}% saved, "
          f"hit rate {100 * tot['hit_rate']:.1f}%)")
    t = data["tiered"]
    print(f"tiered warm start: {t['cold_cycles']} -> {t['warm_cycles']} "
          f"cycles ({t['archive_installs']} archive installs)")
    p = data["pooled"]
    print(f"pooled: first pass {p['first_pass']}, "
          f"second pass {p['second_pass']}")
    c = data["chaos"]
    print(f"chaos: quarantined={c['quarantined']} "
          f"recompiled={c['recompiled_stores']} identical={c['identical']}")
    return write(args.out, "repro.experiments.codecache", data, vars(args),
                 argv)


if __name__ == "__main__":
    raise SystemExit(main())
