"""Per-run manifests: everything needed to interpret or reproduce a run.

A manifest is a small JSON document written next to a run's primary
output (``out.json`` -> ``out.manifest.json``) recording the code
identity (git revision, source digest), the toolchain (python/numpy
versions, platform), the effective configuration
(``REPRO_SIM_KERNEL``, ``REPRO_TRACE_CACHE``), the cache
hit/miss/corrupt totals, the implementation each compiled replay layer
ran under the vector kernel (``c`` or ``python``), per-experiment wall
times (including failures), and — when the tracer is enabled — per-span totals covering
the VM phase splits (interp dispatch vs JIT translate/execute).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone

from .. import faults as _faults
from ..analysis import cache as _cache
from ..arch.kernels import DEFAULT_KERNEL, ENV_VAR as _KERNEL_ENV
from .tracer import TRACER

SCHEMA = 1


def git_rev() -> str | None:
    """The repository HEAD revision, or ``None`` outside a checkout."""
    root = os.path.dirname(os.path.dirname(_cache.package_root()))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def config_snapshot() -> dict:
    """The effective run configuration, resolved like the runtime does."""
    return {
        "REPRO_SIM_KERNEL": os.environ.get(_KERNEL_ENV) or DEFAULT_KERNEL,
        "REPRO_TRACE_CACHE": _cache.resolve_dir(None),
        "REPRO_OBS": os.environ.get("REPRO_OBS") or None,
        "REPRO_FAULTS": os.environ.get(_faults.ENV_VAR) or None,
        "REPRO_CODE_ARCHIVE": _cache.resolve_dir(None, _cache.ARCHIVE_ENV),
    }


def fault_report() -> dict:
    """The active fault plan (if any) plus the run's fault ledger.

    Always present in manifests — an all-zero ledger under
    ``"plan": null`` is the explicit record that the run was clean, and
    lock breaks or quarantines show up here even when no plan injected
    them."""
    plan = _faults.active()
    return {"plan": plan.plan.describe() if plan else None,
            **_faults.LEDGER.snapshot()}


def span_totals(events) -> dict:
    """Aggregate span events into ``{name: {count, seconds}}``."""
    totals: dict[str, dict] = {}
    for event in events:
        if event.get("ev") != "span":
            continue
        entry = totals.setdefault(event["name"], {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += event["dur"]
    for entry in totals.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return totals


def build_manifest(tool: str, argv=None, experiments=None,
                   cache_stats: dict | None = None,
                   extra: dict | None = None) -> dict:
    """Assemble the manifest for one run of ``tool``.

    ``experiments`` is a list of ``{"id", "seconds", "error"}`` entries
    (``error=None`` for successes); ``cache_stats`` defaults to the
    process-wide :data:`~repro.analysis.cache.STATS` snapshot.
    """
    import numpy as np

    from ..arch.compiled import IMPLEMENTATIONS

    snap = dict(cache_stats if cache_stats is not None
                else _cache.STATS.snapshot())
    totals = _cache.CacheStats()
    totals.merge(snap)
    snap.update(hits=totals.hits, misses=totals.misses)
    manifest = {
        "schema": SCHEMA,
        "tool": tool,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "git_rev": git_rev(),
        "source_digest": _cache.source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "config": config_snapshot(),
        "cache": snap,
        "compiled": dict(sorted(IMPLEMENTATIONS.items())),
        "faults": fault_report(),
        "tracing": TRACER.enabled,
    }
    if experiments is not None:
        manifest["experiments"] = experiments
    if TRACER.enabled:
        manifest["spans"] = span_totals(TRACER.events)
        manifest["counters"] = dict(TRACER.counters)
    if extra:
        manifest["run"] = extra
    return manifest


def manifest_path_for(output_path: str) -> str:
    """``out.json`` -> ``out.manifest.json`` (suffix otherwise)."""
    base, ext = os.path.splitext(output_path)
    if ext == ".json":
        return base + ".manifest.json"
    return output_path + ".manifest.json"


def write_manifest(path: str, manifest: dict) -> str:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
