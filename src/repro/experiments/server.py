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
(:mod:`repro.bench.stats`) — judged by :data:`GUARDS`.
"""

from __future__ import annotations

import os
import tempfile

from .. import obs
from ..obs.record import correctness, write
from ..traffic import get_preset, run_scenario
from ..traffic.spec import ScenarioSpec

#: Config name -> (mode, archive role); order is the report order.
CONFIGS = ("jit", "tiered", "tiered_cold", "tiered_warm")

#: Steady-state detection defaults for traffic windows.  Cycle-domain
#: samples are deterministic, so the threshold is tighter than the
#: wall-clock default in repro.bench.stats.
STEADY_WINDOW = 5
STEADY_CV = 0.10


def run_server(spec: ScenarioSpec, *, windows: int = 50,
               steady_window: int = STEADY_WINDOW,
               steady_cv: float = STEADY_CV) -> dict:
    """Run the four-config ladder over ``spec``; JSON-ready record."""
    kw = dict(windows=windows, steady_window=steady_window,
              steady_cv=steady_cv)
    configs = {}
    configs["jit"] = run_scenario(spec, "jit", **kw).to_dict()
    configs["tiered"] = run_scenario(spec, "tiered", **kw).to_dict()
    with tempfile.TemporaryDirectory(prefix="repro-archive-") as d:
        for name in ("tiered_cold", "tiered_warm"):
            config = configs[name] = run_scenario(
                spec, "tiered", code_archive=d, **kw).to_dict()
            # The archive's temporary directory is no result; the
            # config's name gives its role.
            del config["archive"]["dir"]
    return {
        "spec": spec.to_dict(),
        "steady_params": {"window": steady_window, "cv": steady_cv,
                          "windows": windows},
        "configs": configs,
    }


def _same_spec(data: dict) -> bool:
    """The record's scenario is its preset as the CLI would build it."""
    spec = data["spec"]
    return spec == get_preset(spec["name"]).replace(
        requests=spec["requests"], threads=spec["threads"]).to_dict()


#: Guards over a server record (see :mod:`repro.obs.record`).
GUARDS = {
    "schema": correctness(
        lambda d: set(d["configs"]) == set(CONFIGS) and _same_spec(d)),
    "all_steady": lambda d: all(c["steady"]["steady"]
                                for c in d["configs"].values()),
    "tiered_beats_jit": lambda d: (d["configs"]["tiered"]["cycles"]
                                   < d["configs"]["jit"]["cycles"]),
    "warm_improves_cold_start_tail": lambda d: (
        d["configs"]["tiered_warm"]["cold_start"]["p99"]
        < d["configs"]["tiered_cold"]["cold_start"]["p99"]),
    "warm_archive_all_hits": lambda d: (
        d["configs"]["tiered_warm"]["archive"]["misses"] == 0
        and d["configs"]["tiered_warm"]["archive"]["hits"] > 0),
    "cold_archive_populated":
        lambda d: d["configs"]["tiered_cold"]["archive"]["stores"] > 0,
    "checksums_agree": correctness(
        lambda d: len({tuple(c["stdout"])
                       for c in d["configs"].values()}) == 1),
    "monitor_ladder_exercised": lambda d: (
        d["configs"]["tiered"]["lock_mix"]["case_counts"]["d"] > 0
        and d["configs"]["tiered"]["lock_mix"]["elided_acquires"] > 0),
    "requests_completed": correctness(
        lambda d: all(c["requests"] == d["spec"]["requests"]
                      for c in d["configs"].values())),
}


# ----------------------------------------------------------------------
# BENCH_server.json
# ----------------------------------------------------------------------
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
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record span/counter events and write them "
                             "as JSONL (also enabled by $REPRO_OBS)")
    args = parser.parse_args(argv)

    events_path = args.trace or os.environ.get("REPRO_OBS") or None
    if events_path:
        obs.TRACER.enable()
        obs.TRACER.reset()

    spec = get_preset(args.scenario).replace(**{
        k: getattr(args, k) for k in ("requests", "threads")
        if getattr(args, k) is not None})
    data = run_server(spec, windows=args.windows,
                      steady_window=args.steady_window,
                      steady_cv=args.steady_cv)
    for name in CONFIGS:
        c = data["configs"][name]
        lat = c["latency_cycles"]["service"]
        print(f"{name:>12}: cycles={c['cycles']} "
              f"translate={c['translate_cycles']} "
              f"p50={lat['p50']} p99={lat['p99']} "
              f"cold_p99={c['cold_start']['p99']} "
              f"steady={c['steady']['steady']} "
              f"warmup={c['steady']['warmup_discarded']}")
    status = write(args.out, "repro.experiments.server", data, vars(args),
                   argv)
    if events_path:
        n_events = obs.write_events(events_path)
        print(f"wrote {n_events} events to {events_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
