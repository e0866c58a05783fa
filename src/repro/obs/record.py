"""Records and their guards: one writer, one checker.

A record-writing tool declares ``GUARDS``: named predicates over its
record.  :func:`write` stores ``tool`` and the verdicts in the record
and writes it with its manifest; :func:`check` (``python -m repro.bench
check PATH...``) re-evaluates them from the stored numbers.  Every
record also gets the ``faults`` guard over its manifest.  Under a fault
plan only :func:`correctness` guards apply; the rest read ``None``,
because injected corruption legitimately costs hit rate.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

from ..faults import FaultPlan
from . import build_manifest, manifest_path_for, write_manifest

#: Record-writing tool (the manifest's ``tool``) -> module of its table.
TABLES = {
    "repro.bench": "repro.bench",
    "repro.experiments": "repro.experiments.cli",
    "repro.experiments.tiered": "repro.experiments.tiered",
    "repro.experiments.codecache": "repro.experiments.codecache",
    "repro.experiments.server": "repro.experiments.server",
}

#: Injected fault kind -> the recoveries, any one of which answers it.
RECOVERIES = {
    "corrupt-archive": {"quarantine"},
    "stale-lock": {"lock_break"},
    "worker-kill": {"retry", "pool_replace", "serial"},
}


def correctness(pred):
    """Mark ``pred`` as a guard that must hold under a fault plan too."""
    pred.under_faults = True
    return pred


def faults_recovered(manifest: dict) -> bool:
    """A faulted run ran the plan it was given (``--faults`` or
    ``REPRO_FAULTS``), injected, and recovered each injected kind."""
    report = manifest["faults"]
    if not report["plan"]:
        return True
    argv = manifest["argv"]
    text = (argv[argv.index("--faults") + 1] if "--faults" in argv
            else manifest["config"]["REPRO_FAULTS"])
    recovered = {kind for kind, n in report["recovered"].items() if n}
    return (FaultPlan.parse(text).describe() == report["plan"]
            and sum(report["injected"].values()) >= 1
            and all(RECOVERIES[kind] & recovered
                    for kind, n in report["injected"].items()
                    if n and kind in RECOVERIES))


def evaluate(table: dict, record, manifest: dict | None = None,
             notes: list | None = None) -> dict:
    """Guard name -> verdict, plus ``faults`` given a manifest.  A guard
    whose section is missing (or unreadable) is ``False``, explained in
    ``notes``."""
    guards = dict(table)
    faulted = False
    if manifest is not None:
        guards["faults"] = correctness(lambda _: faults_recovered(manifest))
        faulted = bool(manifest.get("faults", {}).get("plan"))
    verdicts = {}
    for name, pred in guards.items():
        if faulted and not getattr(pred, "under_faults", False):
            verdicts[name] = None
            continue
        try:
            verdicts[name] = bool(pred(record))
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            verdicts[name] = False
            if notes is not None:
                notes.append(f"guard {name}: " + (
                    f"missing section {exc}" if isinstance(exc, KeyError)
                    else repr(exc)))
    return verdicts


def table_for(tool: str | None) -> dict | None:
    module = TABLES.get(tool)
    return importlib.import_module(module).GUARDS if module else None


def write(path: str, tool: str, record: dict, args: dict,
          argv=None) -> int:
    """Judge ``record`` by ``tool``'s table, store ``tool`` and the
    verdicts in it, write it and its manifest; 1 on a failed guard."""
    manifest = build_manifest(tool, argv=argv)
    record["guards"] = evaluate(table_for(tool), record, manifest)
    record["tool"] = tool
    manifest["run"] = {"args": args, "guards": record["guards"]}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} (+ "
          f"{write_manifest(manifest_path_for(path), manifest)})")
    failed = [name for name, ok in record["guards"].items() if ok is False]
    for name in failed:
        print(f"guard {name} FAILED", file=sys.stderr)
    return 1 if failed else 0


def problems(path: str) -> list[str]:
    """What is wrong with the record at ``path``: a false guard, a stored
    verdict the numbers no longer give, a missing section or manifest,
    or no table for its tool.  Nothing is re-run."""
    with open(path) as fh:
        record = json.load(fh)
    manifest, manifest_path = None, manifest_path_for(path)
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    stored, tool = {}, None
    if isinstance(record, dict):
        stored, tool = record.pop("guards", {}), record.pop("tool", None)
    tool = tool or (manifest or {}).get("tool")
    table = table_for(tool)
    if table is None:
        return [f"no guard applies to a record of tool {tool!r}"]
    if manifest is None:
        return [f"missing manifest {manifest_path}"]
    notes: list[str] = []
    verdicts = evaluate(table, record, manifest, notes)
    notes += [f"guard {name} failed"
              for name, ok in verdicts.items() if ok is False]
    notes += [f"stored verdict {name}={ok} differs from re-evaluated "
              f"{verdicts.get(name, 'unknown guard')}"
              for name, ok in stored.items()
              if verdicts.get(name, "unknown guard") != ok]
    return notes


def check(paths) -> int:
    """1 if any record fails.  A manifest path stands for its record,
    so ``BENCH_*.json`` checks each record once."""
    status = 0
    for path in dict.fromkeys(p.replace(".manifest.json", ".json")
                              for p in paths):
        found = problems(path)
        for line in found:
            print(f"{path}: {line}", file=sys.stderr)
        print(f"{path}: " + (f"{len(found)} problem(s)" if found
                             else "all guards pass"))
        status |= bool(found)
    return status
