"""Server traffic: the execution-strategy ladder under sustained load.

The paper's measurements are batch runs; server workloads stress the
same architectural tradeoffs differently — translate cost lands on the
*tail latency* of early requests, monitor traffic is continuous rather
than phased, and a shared code archive converts cold-start translate
time into install time.  This experiment drives one declarative traffic
scenario (:mod:`repro.traffic`) through four configurations:

- ``jit`` — compile on first use: every endpoint pays full translate
  cost on its first request,
- ``tiered`` — the online hotness ladder: cold endpoints stay
  interpreted, hot ones climb,
- ``tiered_cold`` — tiered against an empty shared code archive
  (populating it), and
- ``tiered_warm`` — tiered against the archive the cold run populated:
  the second server process of Section 6's multi-VM argument.

``python -m repro.experiments.server --out BENCH_server.json`` writes
the machine-checkable record: per-config throughput, tail-latency
percentiles in exact cycles, lock-case mix, tier-transition and archive
counters, per-window samples with a steady-state verdict
(:mod:`repro.bench.stats`) — plus the guard verdicts CI enforces:

- every config reaches detected steady state,
- the tiered ladder beats first-use JIT on total cycles under traffic,
- the warm archive beats the cold archive on cold-start tail latency
  and serves every compile from the archive (zero misses),
- all configs print the same checksum (they executed the same work),
- the scenario actually exercised the monitor ladder (contended
  acquires and elisions both observed).

``--check FILE`` re-evaluates the guards of an existing record (used by
CI against both the freshly generated file and the committed one).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from .. import obs
from ..traffic import get_preset, run_scenario
from ..traffic.spec import ScenarioSpec
from .base import ExperimentResult

#: Config name -> (mode, archive role); order is the report order.
CONFIGS = ("jit", "tiered", "tiered_cold", "tiered_warm")

#: Steady-state detection defaults for traffic windows.  Cycle-domain
#: samples are deterministic, so the threshold is tighter than the
#: wall-clock default in repro.bench.stats.
STEADY_WINDOW = 5
STEADY_CV = 0.10


def run_server(spec: ScenarioSpec, *, windows: int = 50,
               steady_window: int = STEADY_WINDOW,
               steady_cv: float = STEADY_CV,
               archive_dir: str | None = None) -> dict:
    """Run the four-config ladder over ``spec``; JSON-ready record."""
    kw = dict(windows=windows, steady_window=steady_window,
              steady_cv=steady_cv)
    configs = {}
    configs["jit"] = run_scenario(spec, "jit", **kw).to_dict()
    configs["tiered"] = run_scenario(spec, "tiered", **kw).to_dict()
    if archive_dir is not None:
        configs["tiered_cold"] = run_scenario(
            spec, "tiered", code_archive=archive_dir, **kw).to_dict()
        configs["tiered_warm"] = run_scenario(
            spec, "tiered", code_archive=archive_dir, **kw).to_dict()
    else:
        with tempfile.TemporaryDirectory(prefix="repro-archive-") as d:
            configs["tiered_cold"] = run_scenario(
                spec, "tiered", code_archive=d, **kw).to_dict()
            configs["tiered_warm"] = run_scenario(
                spec, "tiered", code_archive=d, **kw).to_dict()
    data = {
        "spec": spec.to_dict(),
        "steady_params": {"window": steady_window, "cv": steady_cv,
                          "windows": windows},
        "configs": configs,
    }
    data["guards"] = evaluate_guards(data)
    return data


def evaluate_guards(data: dict) -> dict:
    """Named guard verdicts over a server record (True = pass)."""
    cfg = data["configs"]
    jit, tiered = cfg["jit"], cfg["tiered"]
    cold, warm = cfg["tiered_cold"], cfg["tiered_warm"]
    checksums = {tuple(c["stdout"]) for c in cfg.values()}
    sync = tiered["lock_mix"]
    guards = {
        "all_steady": all(c["steady"]["steady"] for c in cfg.values()),
        "tiered_beats_jit": tiered["cycles"] < jit["cycles"],
        "warm_improves_cold_start_tail":
            warm["cold_start"]["p99"] < cold["cold_start"]["p99"],
        "warm_archive_all_hits":
            warm["archive"]["misses"] == 0 and warm["archive"]["hits"] > 0,
        "cold_archive_populated": cold["archive"]["stores"] > 0,
        "checksums_agree": len(checksums) == 1,
        "monitor_ladder_exercised":
            sync["case_counts"]["d"] > 0 and sync["elided_acquires"] > 0,
        "requests_completed":
            all(c["requests"] == data["spec"]["requests"]
                for c in cfg.values()),
    }
    return guards


def guard_failures(data: dict) -> list[str]:
    """Human-readable failure lines (empty = all guards green)."""
    cfg = data["configs"]
    failures = []
    for name, ok in data.get("guards", evaluate_guards(data)).items():
        if ok:
            continue
        detail = ""
        if name == "all_steady":
            non = [k for k, c in cfg.items() if not c["steady"]["steady"]]
            detail = f" (non-steady: {non})"
        elif name == "tiered_beats_jit":
            detail = (f" (tiered {cfg['tiered']['cycles']} >= "
                      f"jit {cfg['jit']['cycles']})")
        elif name == "warm_improves_cold_start_tail":
            detail = (f" (warm p99 {cfg['tiered_warm']['cold_start']['p99']}"
                      f" >= cold p99 "
                      f"{cfg['tiered_cold']['cold_start']['p99']})")
        failures.append(f"guard {name} FAILED{detail}")
    return failures


# ----------------------------------------------------------------------
# human-readable ladder table
# ----------------------------------------------------------------------
# Not in the experiment registry: traffic scenarios run outside the
# workload result cache, so there are no pre-warmable jobs to declare
# (the registry invariant every registered experiment satisfies).
def run(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """The traffic ladder at report scale (scaled-down CI variant)."""
    requests = {"s0": 10_000, "s1": 30_000, "s2": 120_000}.get(scale, 30_000)
    spec = get_preset("api").replace(requests=requests)
    data = run_server(spec)
    rows = []
    for name in CONFIGS:
        c = data["configs"][name]
        lat = c["latency_cycles"]["service"]
        rows.append([
            name, c["cycles"], c["translate_cycles"],
            c["throughput_rpmc"], lat["p50"], lat["p99"],
            c["cold_start"]["p99"],
            "yes" if c["steady"]["steady"] else "NO",
        ])
    guards = data["guards"]
    ok = all(guards.values())
    return ExperimentResult(
        "server",
        f"Execution ladder under server traffic ({spec.name}, "
        f"{requests} requests)",
        ["config", "cycles", "translate", "req/Mcy", "p50", "p99",
         "cold p99", "steady"],
        rows,
        paper_claim=(
            "Under sustained request traffic, lazy tiering beats "
            "compile-on-first-use (translate cost lands on request "
            "tails), and a shared code archive moves the cold-start "
            "tail of a second VM instance onto the cheap install path."
        ),
        observed=("all guards pass" if ok else
                  "; ".join(guard_failures(data))),
        extra=f"guards: {json.dumps(guards)}",
    )


# ----------------------------------------------------------------------
# BENCH_server.json
# ----------------------------------------------------------------------
def write_bench(path: str, spec: ScenarioSpec, *, windows: int = 50,
                steady_window: int = STEADY_WINDOW,
                steady_cv: float = STEADY_CV) -> dict:
    data = run_server(spec, windows=windows, steady_window=steady_window,
                      steady_cv=steady_cv)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def _print_summary(data: dict) -> None:
    for name in CONFIGS:
        c = data["configs"][name]
        lat = c["latency_cycles"]["service"]
        print(f"{name:>12}: cycles={c['cycles']} "
              f"translate={c['translate_cycles']} "
              f"p50={lat['p50']} p99={lat['p99']} "
              f"cold_p99={c['cold_start']['p99']} "
              f"steady={c['steady']['steady']} "
              f"warmup={c['steady']['warmup_discarded']}")
    for line in guard_failures(data):
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="server-traffic benchmark summary (BENCH_server.json)")
    parser.add_argument("--out", default="BENCH_server.json")
    parser.add_argument("--scenario", default="api")
    parser.add_argument("--requests", type=int, default=None,
                        help="override the preset's request count")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--windows", type=int, default=50)
    parser.add_argument("--steady-window", type=int, default=STEADY_WINDOW)
    parser.add_argument("--steady-cv", type=float, default=STEADY_CV)
    parser.add_argument("--check", metavar="FILE",
                        help="re-evaluate guards of an existing record "
                             "and exit (no runs)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record span/counter events and write them "
                             "as JSONL (also enabled by $REPRO_OBS)")
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check) as fh:
            data = json.load(fh)
        data["guards"] = evaluate_guards(data)
        _print_summary(data)
        failures = guard_failures(data)
        print(f"{args.check}: "
              + ("all guards pass" if not failures
                 else f"{len(failures)} guard(s) failed"))
        return 1 if failures else 0

    events_path = args.trace or os.environ.get("REPRO_OBS") or None
    if events_path:
        obs.TRACER.enable()
        obs.TRACER.reset()

    spec = get_preset(args.scenario)
    overrides = {}
    if args.requests is not None:
        overrides["requests"] = args.requests
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        spec = spec.replace(**overrides)

    data = write_bench(args.out, spec, windows=args.windows,
                       steady_window=args.steady_window,
                       steady_cv=args.steady_cv)
    manifest = obs.build_manifest(
        "repro.experiments.server",
        argv=argv if argv is not None else None,
        extra={"spec": data["spec"], "guards": data["guards"],
               "steady_params": data["steady_params"]},
    )
    obs.write_manifest(obs.manifest_path_for(args.out), manifest)
    _print_summary(data)
    failures = guard_failures(data)
    print(f"wrote {args.out} (+ {obs.manifest_path_for(args.out)})")
    if events_path:
        n_events = obs.write_events(events_path)
        print(f"wrote {n_events} events to {events_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
