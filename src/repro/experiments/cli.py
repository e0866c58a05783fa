"""Command-line entry point: ``python -m repro.experiments <ids...>``.

Regenerates any of the paper's tables/figures (or all of them) and
prints the rows the paper reports.

The declared (workload, scale, run config) job lists of the selected
experiments are deduplicated, recordings first, and run to pre-warm the
shared content-addressed cache (inline at ``--jobs 1``, over ``N``
worker processes at ``--jobs N``, not at all with caching disabled);
the rendering pass then runs serially against a warm cache, so every
``--jobs`` gives identical output.  Every invocation ends with the
cache hit/miss/latency summary.

``--faults`` (or ``$REPRO_FAULTS``) activates the deterministic
fault-injection layer (:mod:`repro.faults`); the hardened scheduler and
cache recover via retries, pool replacement, lock breaking, and
quarantine, so a faulted run still exits 0 with byte-identical JSON —
the run manifest records what was injected and recovered.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

from .. import faults, obs
from ..analysis import cache
from ..analysis.parallel import RetryPolicy, run_jobs
from ..obs.record import correctness
from .base import all_experiments, collect_jobs, get_experiment

#: Order used by ``all``: cheap scalar experiments first.
DEFAULT_ORDER = (
    "fig1", "table1", "fig2", "fig11",
    "table2", "table3", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10",
    "locality", "scale_study", "tiered",
    "ablation_strategy", "ablation_tiered", "ablation_install",
    "ablation_locks",
    "ablation_inline", "ablation_indirect", "ablation_folding",
    "ablation_victim",
)

#: Guards over a ``--json`` record (see :mod:`repro.obs.record`); a
#: faulted run's injections and recoveries are the ``faults`` guard's.
GUARDS = {
    "schema": correctness(lambda d: all(
        set(r) == {"id", "title", "headers", "rows", "paper_claim",
                   "observed"} and r["id"] in all_experiments()
        for r in d)),
}


def _progress(i: int, total: int, outcome: dict) -> None:
    job = outcome["job"]
    stats = outcome["stats"]
    computed = (stats.get("trace_misses", 0) + stats.get("run_misses", 0)) > 0
    note = "computed" if computed else "cached"
    if outcome.get("recovery"):
        note += f" (recovered: {outcome['recovery']})"
    if outcome["error"]:
        note = f"ERROR {outcome['error']}"
    print(f"[{i:3d}/{total}] {job.describe():44s} "
          f"{outcome['seconds']:6.1f}s  {note}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce tables/figures from 'Architectural Issues in "
            "Java Runtime Systems' (HPCA 2000)."
        ),
    )
    parser.add_argument(
        "ids", nargs="*", default=["all"],
        help="experiment ids (fig1..fig11, table1..table3, ablation_*) "
             "or 'all' / 'list'",
    )
    parser.add_argument("--scale", default="s1", choices=("s0", "s1", "s10"),
                        help="workload input scale (default s1)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the cache pre-warm pass "
                             "(default 1 = inline)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="trace/result cache directory (default: "
                             "$REPRO_TRACE_CACHE or .trace_cache; "
                             "'' disables caching)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also dump all results as JSON (plus a "
                             "run manifest next to it)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record span/counter events and write them "
                             "as JSONL (also enabled by $REPRO_OBS)")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="activate a seeded fault-injection plan, "
                             "e.g. 'worker-kill@1;seed=7' (also read "
                             "from $REPRO_FAULTS; see docs/robustness.md)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock timeout per pre-warm job; a "
                             "stuck worker is replaced and the job "
                             "retried (default: $REPRO_JOB_TIMEOUT "
                             "or none)")
    args = parser.parse_args(argv)

    if args.faults:
        try:
            # Export so spawned pool workers inherit the same plan.
            os.environ[faults.ENV_VAR] = args.faults
            faults.activate(args.faults)
        except faults.PlanError as exc:
            print(f"bad --faults plan: {exc}", file=sys.stderr)
            return 2
    else:
        # Re-read the env var each invocation: main() may be called
        # repeatedly in-process (tests), and budgets must be fresh.
        faults.activate_from_env()

    events_path = args.trace or os.environ.get("REPRO_OBS") or None
    if events_path:
        obs.TRACER.enable()
        obs.TRACER.reset()  # scope the stream to this invocation

    if args.cache_dir is not None:
        # Call-time resolution means the whole run (and its spawned
        # workers, which inherit the environment) picks this up.
        os.environ["REPRO_TRACE_CACHE"] = args.cache_dir

    available = all_experiments()
    if args.ids == ["list"] or args.ids == []:
        for exp_id in DEFAULT_ORDER:
            print(exp_id)
        return 0
    ids = list(args.ids)
    if ids == ["all"]:
        ids = [e for e in DEFAULT_ORDER if e in available]

    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    cache.reset_stats()
    faults.LEDGER.reset()  # manifest reports this invocation only
    status = 0

    known_ids = [e for e in ids if e in available]
    prewarm = None
    # Recordings first, so each distinct run executes once; with no
    # store there is nothing to warm.
    jobs = (collect_jobs(known_ids, scale=args.scale, benchmarks=benchmarks)
            if known_ids and cache.resolve_dir(args.cache_dir) else [])
    if jobs:
        try:
            policy = RetryPolicy.from_env()
        except ValueError as exc:
            print(f"bad environment: {exc}", file=sys.stderr)
            return 2
        if args.job_timeout is not None:
            import dataclasses
            policy = dataclasses.replace(
                policy, job_timeout=args.job_timeout or None)
        print(f"pre-warming cache: {len(jobs)} jobs on "
              f"{args.jobs} workers")
        prewarm = run_jobs(jobs, max_workers=args.jobs,
                           cache_dir=args.cache_dir,
                           progress=_progress, policy=policy)
        print(f"pre-warm: {prewarm.format_summary()}")
        print()
        for outcome in prewarm.errors:
            print(f"pre-warm error in {outcome['job'].describe()}: "
                  f"{outcome['error']}", file=sys.stderr)
        if prewarm.errors:
            # Retries, pool replacement, and the serial fallback
            # have all been exhausted for these jobs; the rendering
            # pass below may still succeed (it recomputes inline),
            # but the run must report the infrastructure failure.
            status = status or 1

    collected = []
    ran = []          # per-experiment manifest entries, in run order
    failures = []
    for exp_id in ids:
        try:
            fn = get_experiment(exp_id)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            status = 2
            ran.append({"id": exp_id, "seconds": 0.0, "error": str(exc)})
            continue
        # perf_counter, matching the rest of the stack, so these
        # durations are comparable with span/manifest timings.
        started = time.perf_counter()
        try:
            with obs.TRACER.span("experiment", id=exp_id):
                result = fn(scale=args.scale, benchmarks=benchmarks)
        except Exception as exc:  # noqa: BLE001 - one failure must not
            # abort the CLI: report it, keep the collected results, and
            # still emit JSON + manifest below.
            elapsed = time.perf_counter() - started
            entry = {"id": exp_id, "seconds": round(elapsed, 3),
                     "error": f"{type(exc).__name__}: {exc}"}
            ran.append(entry)
            failures.append(entry)
            status = status or 1
            traceback.print_exc()
            print(f"ERROR: {exp_id} failed after {elapsed:.1f}s: "
                  f"{entry['error']}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - started
        ran.append({"id": exp_id, "seconds": round(elapsed, 3),
                    "error": None})
        collected.append(result)
        print(result.render())
        print(f"({exp_id} completed in {elapsed:.1f}s)")
        print()
    if args.json:
        import json
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in collected], fh, indent=2)
        print(f"wrote {len(collected)} results to {args.json}")

    totals = cache.CacheStats()
    totals.merge(cache.STATS.snapshot())
    if prewarm is not None:
        # A job run in this process counted into STATS as it ran.
        for outcome in prewarm.outcomes:
            if not outcome["inline"]:
                totals.merge(outcome["stats"])

    if args.json:
        manifest = obs.build_manifest(
            "repro.experiments",
            argv=argv if argv is not None else sys.argv[1:],
            experiments=ran,
            cache_stats=totals.snapshot(),
            extra={"ids": ids, "scale": args.scale,
                   "benchmarks": benchmarks, "jobs": args.jobs,
                   "prewarm": None if prewarm is None else {
                       "jobs": len(prewarm.outcomes),
                       "errors": len(prewarm.errors),
                       "retries": prewarm.retries,
                       "pool_replacements": prewarm.pool_replacements,
                       "serial_recoveries": prewarm.serial_recoveries,
                   }},
        )
        manifest_path = obs.manifest_path_for(args.json)
        obs.write_manifest(manifest_path, manifest)
        print(f"wrote manifest to {manifest_path}")
    if events_path:
        n_events = obs.write_events(events_path)
        print(f"wrote {n_events} events to {events_path}")

    if failures:
        print(f"{len(failures)} experiment(s) failed: "
              + ", ".join(f["id"] for f in failures), file=sys.stderr)
    print(f"run summary: {totals.format_summary()}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
