"""``python -m repro.bench`` — scalar-vs-vector kernel benchmarks.

Examples::

    python -m repro.bench --out BENCH_kernels.json
    python -m repro.bench --scale s0 --benchmarks db,compress \
        --repeats 2 --check benchmarks/bench_baseline.json
"""

from __future__ import annotations

import argparse
import os
import sys

from .. import obs
from . import (DEFAULT_TARGETS, check_regression, load_report,
               nonsteady_targets, run_bench, save_report)
from .stats import DEFAULT_CV, DEFAULT_WINDOW


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the scalar vs. vector simulation kernels.",
    )
    parser.add_argument("--targets", default=",".join(DEFAULT_TARGETS),
                        help="comma-separated experiment ids "
                             f"(default {','.join(DEFAULT_TARGETS)})")
    parser.add_argument("--scale", default="s1",
                        choices=("s0", "s1", "s10"),
                        help="workload input scale (default s1)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per kernel; best is kept")
    parser.add_argument("--no-analysis", action="store_true",
                        help="skip the static-analysis pass timing section")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report JSON here")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare speedups against a baseline report")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed relative speedup drop vs. the "
                             "baseline (default 0.2)")
    parser.add_argument("--steady-window", type=int, default=DEFAULT_WINDOW,
                        help="minimum steady suffix length for warmup "
                             f"detection (default {DEFAULT_WINDOW})")
    parser.add_argument("--steady-cv", type=float, default=DEFAULT_CV,
                        help="coefficient-of-variation threshold declaring "
                             f"a sample suffix steady (default {DEFAULT_CV})")
    parser.add_argument("--strict-steady", action="store_true",
                        help="exit nonzero when any timed sample stream "
                             "never reaches detected steady state")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="trace cache directory (default: "
                             "$REPRO_TRACE_CACHE or .trace_cache)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record span/counter events and write them "
                             "as JSONL (also enabled by $REPRO_OBS)")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        os.environ["REPRO_TRACE_CACHE"] = args.cache_dir

    events_path = args.trace or os.environ.get("REPRO_OBS") or None
    if events_path:
        obs.TRACER.enable()
        obs.TRACER.reset()

    targets = [t for t in args.targets.split(",") if t]
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    report = run_bench(targets=targets, scale=args.scale,
                       benchmarks=benchmarks, repeats=args.repeats,
                       analysis=not args.no_analysis,
                       steady_window=args.steady_window,
                       steady_cv=args.steady_cv,
                       progress=lambda msg: print(msg, flush=True))

    status = 0
    broken = [t for t, e in report["targets"].items()
              if not e["identical"]]
    if broken:
        print(f"FAIL: scalar/vector results differ for: "
              f"{', '.join(broken)}", file=sys.stderr)
        status = 1

    nonsteady = nonsteady_targets(report)
    if nonsteady:
        level = "FAIL" if args.strict_steady else "warning"
        print(f"{level}: non-steady sample streams: "
              f"{', '.join(nonsteady)}", file=sys.stderr)
        if args.strict_steady:
            status = 1

    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
        manifest = obs.build_manifest(
            "repro.bench",
            argv=argv if argv is not None else sys.argv[1:],
            extra={"targets": targets, "scale": args.scale,
                   "benchmarks": benchmarks, "repeats": args.repeats,
                   "steady": report["meta"]["steady"],
                   "strict_steady": args.strict_steady},
        )
        manifest_path = obs.manifest_path_for(args.out)
        obs.write_manifest(manifest_path, manifest)
        print(f"wrote manifest to {manifest_path}")
    if events_path:
        n_events = obs.write_events(events_path)
        print(f"wrote {n_events} events to {events_path}")

    if args.check:
        failures = check_regression(report, load_report(args.check),
                                    tolerance=args.tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"speedups within {args.tolerance:.0%} of "
                  f"{args.check}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
