"""High-level run-and-measure API used by experiments, examples, tests.

``run_vm`` executes one workload under one configuration and returns the
:class:`~repro.vm.machine.VMResult`.  ``get_trace`` additionally records
the full native trace.  Both are backed by a transparent on-disk cache
(:mod:`repro.analysis.cache`): every experiment replays the same
deterministic traces through different simulators, so recording each
(workload, scale, run config) once pays off across the whole harness
— and across concurrent worker processes, which share one
content-addressed store.

Cache entries are addressed by a hash of the trace-affecting module
sources plus the run config's token; there is no version constant to
bump.  A trace is keyed by the token of the counting run of its
config; a recording is stored as a trace only, not as a run result.
Set ``REPRO_TRACE_CACHE=""`` (or pass ``cache_dir=""``) to disable
caching; the environment variable is consulted at *call* time, so
tests can redirect the cache per-test.
"""

from __future__ import annotations

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

    Non-recording runs are served from the content-addressed result
    cache when one is configured (``cache_dir=None`` resolves
    ``REPRO_TRACE_CACHE`` at call time; pass ``""`` to force a fresh
    run).  Runs are deterministic, so a cached result is byte-identical
    to a fresh one.

    ``code_archive`` names a shared compiled-code archive directory
    (``None`` resolves ``REPRO_CODE_ARCHIVE``; ``""`` disables).
    Archive-enabled runs bypass the run-*result* cache: whether the
    archive is warm changes the translate/install split a fresh run
    reports, so serving a pickled cold result would misreport it.
    """
    config = RunConfig.of(config)
    archive_dir = cache.resolve_dir(code_archive, cache.ARCHIVE_ENV)
    resolved = (None if config.record or archive_dir
                else cache.resolve_dir(cache_dir))
    path = None
    if resolved:
        key = cache.cache_key("run", workload=workload, scale=scale,
                              config=config.token)
        path = cache.entry_path(resolved, "runs",
                                f"{workload}-{scale}-{config.name}", key)
        cached = cache.load_run(path)
        if cached is not None:
            return cached
    program = get_workload(workload).build(scale)
    result = JavaVM(program, config, code_archive=archive_dir or "").run()
    if path:
        cache.store_run(path, result)
    return result


def get_trace(workload: str, scale: str = "s1",
              config: RunConfig | str = "jit",
              cache_dir: str | None = None) -> Trace:
    """Full native trace of ``workload`` run under ``config``, cached on
    disk under the same config token a counting run of ``config`` uses
    (``config``'s own ``record`` is ignored).

    ``cache_dir=None`` resolves ``REPRO_TRACE_CACHE`` at call time;
    pass ``""`` to disable the cache for this call.
    """
    config = RunConfig.of(config).replace(record=False)
    resolved = cache.resolve_dir(cache_dir)
    path = None
    if resolved:
        key = cache.cache_key("trace", workload=workload, scale=scale,
                              config=config.token)
        path = cache.entry_path(resolved, "traces",
                                f"{workload}-{scale}-{config.name}", key)
        trace = cache.load_trace(path)
        if trace is not None:
            return trace
    trace = run_vm(workload, scale, config.replace(record=True)).trace
    if path:
        cache.store_trace(path, trace)
    return trace


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
