"""Run one traffic scenario and print its measurement record.

    python -m repro.traffic --scenario api --mode tiered
    python -m repro.traffic --spec my_scenario.json --mode jit --out r.json

Presets come from :data:`repro.traffic.spec.PRESETS`; ``--spec`` loads a
ScenarioSpec JSON instead.  Override knobs (``--requests``,
``--threads``, ``--arrival``, ...) apply on top of either source.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..vm.config import RunConfig
from .engine import DEFAULT_WINDOWS, run_scenario
from .spec import ARRIVALS, PRESETS, ScenarioSpec, get_preset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traffic",
        description="drive a server-traffic scenario through the VM")
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--scenario", default="api",
                     help=f"preset name (one of {sorted(PRESETS)})")
    src.add_argument("--spec", help="path to a ScenarioSpec JSON file")
    parser.add_argument("--mode", default="tiered", type=RunConfig.parse,
                        help="run config token (interp, jit, tiered, "
                             "tiered,compile_ratio=0.5, ...)")
    parser.add_argument("--code-archive", default="",
                        help="shared code archive dir ('' disables)")
    parser.add_argument("--requests", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--working-set", type=int)
    parser.add_argument("--arrival", choices=ARRIVALS)
    parser.add_argument("--rate", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--windows", type=int, default=DEFAULT_WINDOWS)
    parser.add_argument("--steady-window", type=int, default=5)
    parser.add_argument("--steady-cv", type=float, default=0.10)
    parser.add_argument("--strict-steady", action="store_true",
                        help="exit nonzero unless steady state is reached")
    parser.add_argument("--out", help="write the record to this JSON file")
    args = parser.parse_args(argv)

    if args.spec:
        spec = ScenarioSpec.from_json(Path(args.spec).read_text())
    else:
        spec = get_preset(args.scenario)
    overrides = {k: getattr(args, k) for k in
                 ("requests", "threads", "working_set", "arrival",
                  "rate", "seed")
                 if getattr(args, k) is not None}
    if overrides:
        spec = spec.replace(**overrides)

    result = run_scenario(
        spec, args.mode, code_archive=args.code_archive,
        windows=args.windows, steady_window=args.steady_window,
        steady_cv=args.steady_cv)
    record = result.to_dict()
    text = json.dumps(record, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)

    if args.strict_steady and not record["steady"]["steady"]:
        print(f"STRICT-STEADY FAILURE: scenario {spec.name!r} under "
              f"{record['mode']} never reached steady state "
              f"(cv={record['steady']['cv']}, "
              f"threshold={record['steady']['cv_threshold']})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
