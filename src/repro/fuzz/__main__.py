"""``python -m repro.fuzz`` — differential fuzzing campaigns.

Examples::

    python -m repro.fuzz --seed 0 --count 200          # smoke campaign
    python -m repro.fuzz --seed 7 --count 2000 --time-budget 600
    python -m repro.fuzz --seed 0 --count 500 --promote
    python -m repro.fuzz --selftest                    # oracle has teeth?
    python -m repro.fuzz --crosscheck --count 200      # static vs dynamic

Exit status: 1 on any semantic divergence (or a failed selftest, or a
cross-check soundness/equivalence failure), 0 otherwise — performance
anomalies alone do not fail the run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .gen import FUEL, gen_program
from .harness import run_campaign
from .mutate import flip_one_opcode
from .oracle import DEFAULT_TOLERANCE, run_oracle


def selftest(say) -> int:
    """Prove the oracle can detect a planted miscompile.

    Flips one opcode in the program handed to the ``jit`` config only;
    the oracle must flag a divergence.  A fuzzer whose oracle cannot
    see a planted bug is a random-program *generator*, not a tester.
    """
    rng = random.Random(0)
    caught = tried = 0
    for seed in range(12):
        spec = gen_program(seed)
        try:
            program = spec.render()
        except Exception:  # noqa: BLE001 - skip verify-rejected programs
            continue
        tried += 1
        # A single flip can land in dead code (an untaken branch, an
        # ``x | 1`` idiom); a *miscompiling JIT* would mangle many
        # sites, so plant up to 6 independent single flips and count
        # the program as covered when any one is flagged.
        for _ in range(6):
            verdict = run_oracle(
                spec, mutate=("jit", lambda p: flip_one_opcode(p, rng)),
                program=program)
            if not verdict.agreed:
                caught += 1
                break
    say(f"selftest: {caught}/{tried} planted miscompiles detected")
    return 0 if tried and caught >= max(1, tried * 2 // 3) else 1


def crosscheck_campaign(args, say) -> int:
    """Static race detector vs the running VM (see ``crosscheck``)."""
    from .crosscheck import run_crosscheck

    def progress(index, result):
        if not args.quiet and (index + 1) % 50 == 0:
            say(f"  {index + 1}/{args.count}: "
                f"{len(result.violations)} violation(s), "
                f"{len(result.equivalence_failures)} equivalence "
                f"failure(s)")

    result = run_crosscheck(seed=args.seed, count=args.count,
                            fuel=args.fuel, out_dir=args.out,
                            minimize=args.minimize, progress=progress)
    summary = result.summary()
    precision = summary["racy_precision"]
    say(f"crosscheck: {summary['checked']} programs, "
        f"{summary['static_claims']} safe claims, "
        f"{summary['foreign_locked_sites']} foreign-locked sites, "
        f"{summary['soundness_violations']} soundness violation(s), "
        f"{summary['equivalence_failures']} equivalence failure(s), "
        f"racy precision "
        + (f"{precision:.2f}" if precision is not None else "n/a")
        + f" ({summary['racy_confirmed']}/{summary['racy_claims']})")
    for v in result.violations:
        print(f"  SOUNDNESS: seed {v['seed']} sites {v['sites']}",
              file=sys.stderr)
    for e in result.equivalence_failures:
        print(f"  EQUIVALENCE: seed {e['seed']}: {e['detail']}",
              file=sys.stderr)
    for path in result.reproducers:
        say(f"  reproducer: {path}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        from ..obs.manifest import (
            build_manifest,
            manifest_path_for,
            write_manifest,
        )
        manifest = build_manifest(
            tool="repro-fuzz-crosscheck", argv=sys.argv[1:],
            extra={"crosscheck": {k: v for k, v in summary.items()
                                  if k not in ("violations",
                                               "reproducers")}})
        write_manifest(manifest_path_for(args.json), manifest)
        say(f"wrote {args.json}")

    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differential fuzzing of interp/jit/jit_opt/"
                    "lock_elision.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--count", type=int, default=200,
                        help="programs to generate (default 200)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock cap; stop cleanly when exceeded")
    parser.add_argument("--minimize", action="store_true",
                        help="delta-debug diverging programs before "
                             "writing reproducers")
    parser.add_argument("--promote", action="store_true",
                        help="promote performance-anomaly survivors into "
                             "the workload registry")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for reproducer .asm files")
    parser.add_argument("--fuel", type=int, default=FUEL,
                        help=f"per-config bytecode budget "
                             f"(default {FUEL})")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="perf-anomaly headroom fraction "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the campaign summary as JSON "
                             "(manifest written alongside)")
    parser.add_argument("--selftest", action="store_true",
                        help="planted-miscompile oracle check, then exit")
    parser.add_argument("--crosscheck", action="store_true",
                        help="static/dynamic concurrency cross-check "
                             "campaign over multithreaded programs")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    say = (lambda msg: None) if args.quiet else (
        lambda msg: print(msg, flush=True))

    if args.selftest:
        return selftest(say)

    if args.crosscheck:
        return crosscheck_campaign(args, say)

    def progress(index, result):
        if not args.quiet and (index + 1) % 50 == 0:
            say(f"  {index + 1}/{args.count}: "
                f"{result.diverged} divergence(s), "
                f"{result.anomalous} anomaly(ies)")

    result = run_campaign(
        seed=args.seed, count=args.count, time_budget=args.time_budget,
        minimize=args.minimize, promote=args.promote, out_dir=args.out,
        fuel=args.fuel, tolerance=args.tolerance, progress=progress,
    )

    summary = result.summary()
    say(f"generated {summary['generated']} "
        f"(verify-rejected {summary['verify_rejected']}), "
        f"executed {summary['executed']}, agreed {summary['agreed']}, "
        f"diverged {summary['diverged']}, "
        f"anomalous {summary['anomalous']} "
        f"in {summary['elapsed_seconds']}s"
        + (" [stopped early]" if summary["stopped_early"] else ""))
    for finding in result.findings:
        say(f"  [{finding.kind}] index {finding.index} "
            f"seed {finding.seed}: " + "; ".join(finding.details[:3])
            + (f" -> {finding.reproducer}" if finding.reproducer else ""))
    for name in result.promoted:
        say(f"  promoted workload: {name}")

    if args.json:
        # Byte-stable across runs: the time lives in the manifest only,
        # and reproducers are named relative to --out.
        record = {k: v for k, v in summary.items()
                  if k != "elapsed_seconds"}
        for finding in record["findings"]:
            if finding["reproducer"] and args.out:
                finding["reproducer"] = os.path.relpath(
                    finding["reproducer"], args.out)
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        from ..obs.manifest import (
            build_manifest,
            manifest_path_for,
            write_manifest,
        )
        manifest = build_manifest(tool="repro-fuzz", argv=sys.argv[1:],
                                  extra={"fuzz": {
                                      k: v for k, v in summary.items()
                                      if k != "findings"
                                  }})
        write_manifest(manifest_path_for(args.json), manifest)
        say(f"wrote {args.json}")

    return 1 if result.diverged else 0


if __name__ == "__main__":
    sys.exit(main())
