"""High-level run-and-measure API used by experiments, examples, tests.

``run_vm`` executes one workload under one configuration and returns the
:class:`~repro.vm.machine.VMResult`; ``get_trace`` is the trace of the
recording twin of a config.  ``run_vm`` is the one cached VM execution
(:mod:`repro.analysis.cache`): every experiment replays the same
deterministic traces through different simulators, so executing each
(workload, scale, run config) once pays off across the whole harness
— and across concurrent worker processes, which share one
content-addressed store.

An entry is addressed by a hash of the trace-affecting module sources
plus the token of the config's counting run (``record=False``); there
is no version constant to bump.  Under that key ``runs/`` holds the run
result without its trace, and a recording also stores its trace under
``traces/``.  A counting run and its recording simulate the same run
(``tests/test_identity_pin.py`` pins it), so a recording's stored
result serves counting requests too.  Set ``REPRO_TRACE_CACHE=""`` (or
pass ``cache_dir=""``) to disable caching; the environment variable is
consulted at *call* time, so tests can redirect the cache per-test.
"""

from __future__ import annotations

import copy
import os

from ..native.trace import Trace
from ..vm.config import RunConfig
from ..vm.machine import JavaVM, VMResult
from ..workloads.base import get_workload
from . import cache
from .hybrid import OracleAnalysis


def run_vm(workload: str, scale: str = "s1",
           config: RunConfig | str = "jit", *,
           cache_dir: str | None = None,
           code_archive: str | None = None) -> VMResult:
    """Build a fresh VM for the workload and run it under ``config``.

    Served from the content-addressed store when one is configured
    (``cache_dir=None`` resolves ``REPRO_TRACE_CACHE`` at call time;
    pass ``""`` to force a fresh run).  Runs are deterministic, so a
    cached result is byte-identical to a fresh one.  A recording
    (``config.record``) is served only when its trace is stored too.

    ``code_archive`` names a shared compiled-code archive directory
    (``None`` resolves ``REPRO_CODE_ARCHIVE``; ``""`` disables).
    Archive-enabled runs, recordings included, bypass the store: whether
    the archive is warm changes the translate/install split (and the
    trace) a fresh run reports, so serving a stored cold run would
    misreport it, and storing a warm one would poison archive-off runs.
    """
    config = RunConfig.of(config)
    archive_dir = cache.resolve_dir(code_archive, cache.ARCHIVE_ENV)
    paths = _entry_paths(workload, scale, config, cache_dir, archive_dir)
    if paths:
        run_path, trace_path = paths
        trace = cache.load_trace(trace_path) if config.record else None
        if trace is not None or not config.record:
            cached = cache.load_run(run_path)
            if cached is not None:
                cached.trace = trace
                return cached
    program = get_workload(workload).build(scale)
    result = JavaVM(program, config, code_archive=archive_dir or "").run()
    if paths:
        if result.trace is not None:
            cache.store_trace(trace_path, result.trace)
        stripped = copy.copy(result)
        stripped.trace = None
        cache.store_run(run_path, stripped)
    return result


def _entry_paths(workload: str, scale: str, config: RunConfig,
                 cache_dir: str | None, archive_dir: str | None):
    """``(run_path, trace_path)`` of ``config``'s store entries, or
    ``None`` when ``run_vm`` bypasses the store."""
    resolved = None if archive_dir else cache.resolve_dir(cache_dir)
    if not resolved:
        return None
    key = cache.cache_key("run", workload=workload, scale=scale,
                          config=config.replace(record=False).token)
    label = f"{workload}-{scale}-{config.name}"
    return (cache.entry_path(resolved, "runs", label, key),
            cache.entry_path(resolved, "traces", label, key))


def is_stored(workload: str, scale: str = "s1",
              config: RunConfig | str = "jit", *,
              cache_dir: str | None = None,
              code_archive: str | None = None) -> bool:
    """Whether the store holds every entry ``run_vm`` would serve this
    call from: the run, and for a recording its trace.  Checks presence
    only, reading nothing; a corrupt entry is caught (quarantined and
    recomputed) by the lookup that reads it."""
    config = RunConfig.of(config)
    archive_dir = cache.resolve_dir(code_archive, cache.ARCHIVE_ENV)
    paths = _entry_paths(workload, scale, config, cache_dir, archive_dir)
    if not paths:
        return False
    run_path, trace_path = paths
    return os.path.exists(run_path) and (
        not config.record or os.path.exists(trace_path))


def get_trace(workload: str, scale: str = "s1",
              config: RunConfig | str = "jit",
              cache_dir: str | None = None) -> Trace:
    """Full native trace of ``workload`` run under ``config`` (its own
    ``record`` is ignored): the trace of ``run_vm``'s recording."""
    return run_vm(workload, scale, RunConfig.of(config).replace(record=True),
                  cache_dir=cache_dir).trace


def oracle_analysis(workload: str, scale: str = "s1",
                    cache_dir: str | None = None) -> OracleAnalysis:
    """Profile interpreter and JIT runs; return the opt-model analysis."""
    interp = run_vm(workload, scale, "interp", cache_dir=cache_dir)
    jit = run_vm(workload, scale, "jit", cache_dir=cache_dir)
    return OracleAnalysis(interp, jit)


def oracle_run(workload: str, scale: str = "s1",
               cache_dir: str | None = None
               ) -> tuple[OracleAnalysis, VMResult]:
    """The opt analysis plus a *real* mixed-mode run enacting it."""
    analysis = oracle_analysis(workload, scale, cache_dir=cache_dir)
    mixed = run_vm(workload, scale, analysis.config(), cache_dir=cache_dir)
    return analysis, mixed
