"""``python -m repro.bench`` — scalar-vs-vector kernel benchmarks.

Examples::

    python -m repro.bench --out BENCH_kernels.json
    python -m repro.bench --scale s0 --benchmarks db,compress
    python -m repro.bench check BENCH_*.json benchmarks/bench_baseline.json
"""

from __future__ import annotations

import argparse
import os
import sys

from .. import obs
from ..obs import record
from . import DEFAULT_TARGETS, run_bench
from .stats import DEFAULT_CV, DEFAULT_WINDOW


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        return record.check(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the scalar vs. vector simulation kernels "
                    "(or: repro-bench check RECORD...).",
    )
    parser.add_argument("--targets", default=",".join(DEFAULT_TARGETS),
                        help="comma-separated experiment ids "
                             f"(default {','.join(DEFAULT_TARGETS)})")
    parser.add_argument("--scale", default="s1",
                        choices=("s0", "s1", "s10"),
                        help="workload input scale (default s1)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per kernel (default 5)")
    parser.add_argument("--no-analysis", action="store_true",
                        help="skip the static-analysis pass timing section")
    parser.add_argument("--out", default="BENCH_kernels.json",
                        metavar="FILE", help="write the report JSON here")
    parser.add_argument("--steady-window", type=int, default=DEFAULT_WINDOW,
                        help="minimum steady suffix length for warmup "
                             f"detection (default {DEFAULT_WINDOW})")
    parser.add_argument("--steady-cv", type=float, default=DEFAULT_CV,
                        help="coefficient-of-variation threshold declaring "
                             f"a sample suffix steady (default {DEFAULT_CV})")
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

    report = run_bench(targets=[t for t in args.targets.split(",") if t],
                       scale=args.scale,
                       benchmarks=(args.benchmarks.split(",")
                                   if args.benchmarks else None),
                       repeats=args.repeats,
                       analysis=not args.no_analysis,
                       steady_window=args.steady_window,
                       steady_cv=args.steady_cv,
                       progress=lambda msg: print(msg, flush=True))
    status = record.write(args.out, "repro.bench", report, vars(args), argv)
    if events_path:
        n_events = obs.write_events(events_path)
        print(f"wrote {n_events} events to {events_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
