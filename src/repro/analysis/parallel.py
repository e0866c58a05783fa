"""Parallel experiment scheduler.

Experiments declare the (workload, scale, run config) combinations
they will measure as :class:`Job` descriptors — plain frozen dataclasses
that pickle cleanly under the ``spawn`` start method.  A job is one
``run_vm`` call (a recording when its config records), except the
oracle job.  :func:`dedupe` puts recordings first and drops each
counting job a recording subsumes, since a recording stores its run
result too.  The scheduler fans the deduplicated job list out over a
``ProcessPoolExecutor`` whose workers populate the shared
content-addressed cache (:mod:`repro.analysis.cache`); the experiments
themselves then run serially against a warm cache, so parallel and
serial invocations produce byte-identical output while a cold
full-suite run scales with cores.

Workers ship per-job timing, cache-stats, and fault-ledger deltas back
to the parent, which streams progress lines and aggregates the counters
for the run summary.

The pooled path is hardened against infrastructure faults so one bad
worker can never abort a suite run.  The degradation order (see
:class:`RetryPolicy` and ``docs/robustness.md``) is:

1. **retry** the job with bounded attempts and exponential backoff;
2. **replace the pool** when it breaks (a worker crashed —
   ``BrokenProcessPool`` — or a job exceeded its wall-clock timeout and
   its worker had to be terminated), requeueing innocent in-flight jobs
   without charging them an attempt;
3. **recompute serially** in the parent once pool attempts are
   exhausted (or the pool-replacement budget is spent), so the job's
   result still lands even if every worker path fails.

A job that fails all three stages is reported as an error outcome —
callers decide whether that is fatal.  All recovery actions are
recorded in :data:`repro.faults.LEDGER` and, when tracing, as obs
counters, so run manifests show what the scheduler had to survive.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from multiprocessing import get_context

from .. import faults
from ..obs import TRACER
from ..vm.config import RunConfig
from . import cache


@dataclass(frozen=True)
class Job:
    """One unit of schedulable work, hashable and spawn-safe: one
    ``run_vm`` call, a recording when ``config.record`` is set, or the
    oracle's three runs when ``config`` is the bare ``oracle``.

    ``config`` is a :class:`RunConfig` (a token string is parsed), so
    two declarations of the same measurement compare (and deduplicate)
    equal however they were spelled.  ``code_archive`` is the run's
    shared code archive directory (``None`` resolves the environment).
    """

    workload: str
    scale: str = "s1"
    config: RunConfig = RunConfig()
    code_archive: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", RunConfig.of(self.config))

    def describe(self) -> str:
        archive = ("" if self.code_archive is None
                   else f" [code_archive={self.code_archive}]")
        return f"{self.workload}/{self.scale}/{self.config.token}{archive}"


#: The config of the job covering the interp + JIT profile runs and the
#: mixed-mode oracle run they induce (``runner.oracle_run``).
ORACLE = RunConfig(policy="oracle")


def trace_job(workload: str, scale: str = "s1", config="jit") -> Job:
    """A job that records (and caches) one full native trace and its
    run result."""
    return Job(workload, scale, RunConfig.of(config).replace(record=True))


def run_job(workload: str, scale: str = "s1", config="jit",
            code_archive: str | None = None) -> Job:
    """A job that executes (and caches) one VM run."""
    return Job(workload, scale, config, code_archive)


def oracle_job(workload: str, scale: str = "s1") -> Job:
    """A job covering the interp + JIT profile runs and the mixed-mode
    oracle run they induce."""
    return Job(workload, scale, ORACLE)


def trace_jobs(benchmarks, scale: str = "s1",
               configs=("interp", "jit")) -> list[Job]:
    """Trace jobs for each benchmark under each config (the common
    shape of the cache/branch/pipeline experiments)."""
    return [trace_job(n, scale, c) for n in benchmarks for c in configs]


def dedupe(jobs) -> list[Job]:
    """Drop duplicate jobs, recordings first, each group in first-seen
    order.  A counting job whose recording twin (same workload, scale
    and archive) is in the list is dropped too: the recording stores
    the run result it would have stored."""
    jobs = list(dict.fromkeys(jobs))
    recordings = [job for job in jobs if job.config.record]
    twins = {replace(job, config=job.config.replace(record=False))
             for job in recordings}
    return recordings + [job for job in jobs
                         if not job.config.record and job not in twins]


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler responds to failing, crashing, or hung jobs.

    ``max_attempts`` bounds pool attempts per job (first try included);
    between attempts the scheduler backs off exponentially from
    ``backoff_base`` up to ``backoff_cap`` seconds.  ``job_timeout``
    (wall-clock, ``None`` = none) declares a pooled job hung: its pool
    is terminated and replaced, at most ``max_pool_replacements`` times
    per run.  With ``serial_fallback`` a job that exhausts its pool
    attempts is recomputed inline in the parent as the last resort.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    job_timeout: float | None = None
    max_pool_replacements: int = 3
    serial_fallback: bool = True

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_base * (2 ** max(0, attempt - 1)),
                   self.backoff_cap)

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Defaults, overridable via ``REPRO_JOB_RETRIES`` (extra
        attempts after the first) and ``REPRO_JOB_TIMEOUT`` (seconds).
        A malformed value raises ``ValueError`` naming its variable."""
        kwargs = {}
        retries = cache.env_number("REPRO_JOB_RETRIES", int)
        if retries is not None:
            kwargs["max_attempts"] = max(1, retries + 1)
        timeout = cache.env_number("REPRO_JOB_TIMEOUT")
        if timeout is not None:
            kwargs["job_timeout"] = timeout or None
        return cls(**kwargs)


def execute_job(job: Job, cache_dir: str | None = None,
                ship_events: bool = False, fault=None,
                ship_faults: bool = False) -> dict:
    """Run one job (in a worker or inline), returning its outcome.

    The useful side effect is cache population, so a job whose entries
    are all stored reads none of them (the run that needs them verifies
    them as it loads them); the outcome carries
    timing plus the cache-stats delta so the parent can aggregate
    hit/miss counters across processes.  With ``ship_events`` (set by
    the pool when the parent's tracer is on) the worker enables its own
    tracer and drains its span/counter buffer into the outcome, so the
    parent can absorb per-job spans at join; ``ship_faults`` does the
    same for the fault ledger.

    ``fault`` is a worker-fault directive ``(kind, params)`` the
    scheduler routes to a job under an active fault plan.  It is applied
    *before* the runner's error handling, so an injected raise takes the
    same unhandled-executor path a real worker bug would.
    """
    from . import runner  # late import: workers pay it once

    if fault is not None:
        faults.apply_worker_fault(fault)
    if ship_events and not TRACER.enabled:
        TRACER.enable()
    ledger_before = faults.LEDGER.snapshot() if ship_faults else None
    before = cache.STATS.snapshot()
    started = time.perf_counter()
    error = None
    with TRACER.span("job", workload=job.workload, scale=job.scale,
                     mode=job.config.replace(record=False).token,
                     record=job.config.record):
        try:
            if job.config == ORACLE:
                runner.oracle_run(job.workload, job.scale,
                                  cache_dir=cache_dir)
            elif not runner.is_stored(job.workload, job.scale, job.config,
                                      cache_dir=cache_dir,
                                      code_archive=job.code_archive):
                runner.run_vm(job.workload, job.scale, job.config,
                              cache_dir=cache_dir,
                              code_archive=job.code_archive)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            error = f"{type(exc).__name__}: {exc}"
    outcome = {
        "job": job,
        "seconds": time.perf_counter() - started,
        "stats": cache.CacheStats.diff(cache.STATS.snapshot(), before),
        "error": error,
    }
    if ship_faults:
        delta = faults.FaultLedger.diff(faults.LEDGER.snapshot(),
                                        ledger_before)
        if delta:
            outcome["faults"] = delta
    if ship_events:
        outcome["events"] = TRACER.drain()
    return outcome


def _worker_init(path: list, fault_plan: str | None = None) -> None:
    """Make ``repro`` importable in spawn children even when the parent
    got it from a PYTHONPATH/sys.path edit the child does not inherit,
    and activate the parent's fault plan (covers ``--faults``
    activations that never touched the environment)."""
    for entry in reversed(path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    # A worker process can outlive many jobs while sources change under
    # it (watch-style drivers, test suites editing fixtures): drop the
    # source-digest memo so cache keys — including the shared code
    # archive's — are computed against the sources as they are *now*,
    # not as they were when some earlier worker generation first hashed
    # them.  A stale digest would let the archive serve native code
    # compiled from old sources.
    cache.reset_source_digest()
    if fault_plan:
        faults.activate(fault_plan)


class RunSummary:
    """Aggregate of one scheduling pass."""

    def __init__(self) -> None:
        self.outcomes: list[dict] = []
        self.stats = cache.CacheStats()
        self.wall_seconds = 0.0
        self.retries = 0
        self.pool_replacements = 0
        self.serial_recoveries = 0

    @property
    def errors(self) -> list[dict]:
        return [o for o in self.outcomes if o["error"]]

    @property
    def cpu_seconds(self) -> float:
        return sum(o["seconds"] for o in self.outcomes)

    def format_summary(self) -> str:
        resilience = ""
        if self.retries or self.pool_replacements or self.serial_recoveries:
            resilience = (f"{self.retries} retries, "
                          f"{self.pool_replacements} pool replacements, "
                          f"{self.serial_recoveries} serial recoveries; ")
        return (
            f"{len(self.outcomes)} jobs in {self.wall_seconds:.1f}s wall "
            f"({self.cpu_seconds:.1f}s cpu, {len(self.errors)} errors); "
            + resilience + self.stats.format_summary()
        )


def _run_inline(job: Job, cache_dir: str | None, policy: RetryPolicy,
                summary: RunSummary) -> dict:
    """Execute one job in-process with bounded retries + backoff."""
    attempts = 0
    while True:
        attempts += 1
        outcome = execute_job(job, cache_dir)
        if outcome["error"] is not None:
            faults.note_observed("job_error", job=job.describe())
        if outcome["error"] is None or attempts >= policy.max_attempts:
            break
        summary.retries += 1
        time.sleep(policy.backoff(attempts))
    outcome["attempts"] = attempts
    outcome["inline"] = True
    if outcome["error"] is None and attempts > 1:
        outcome["recovery"] = "retry"
        faults.note_recovery("retry", job=job.describe())
    return outcome


def run_jobs(
    jobs,
    max_workers: int = 1,
    cache_dir: str | None = None,
    progress=None,
    policy: RetryPolicy | None = None,
) -> RunSummary:
    """Execute ``jobs`` (deduplicated) and return the aggregate summary.

    ``max_workers <= 1`` executes inline; otherwise a spawn-based
    ``ProcessPoolExecutor`` shares the on-disk cache across workers,
    with the fault-containment ladder ``policy`` describes (default:
    :meth:`RetryPolicy.from_env`).  ``progress(i, total, outcome)`` is
    called as each job reaches its final outcome.
    """
    jobs = dedupe(jobs)
    policy = policy or RetryPolicy.from_env()
    summary = RunSummary()
    started = time.perf_counter()
    total = len(jobs)

    def finish(i: int, outcome: dict) -> None:
        events = outcome.pop("events", None)
        if events:
            # Per-process buffers merge at join: the parent inherits
            # the worker's spans (job, vm phases, cache traffic).
            TRACER.absorb(events)
        faults.LEDGER.absorb(outcome.pop("faults", None))
        outcome.setdefault("attempts", 1)
        outcome.setdefault("recovery", None)
        outcome.setdefault("inline", False)
        summary.outcomes.append(outcome)
        summary.stats.merge(outcome["stats"])
        if progress is not None:
            progress(i, total, outcome)

    if max_workers <= 1 or total <= 1:
        for i, job in enumerate(jobs, 1):
            finish(i, _run_inline(job, cache_dir, policy, summary))
        summary.wall_seconds = time.perf_counter() - started
        return summary

    _PoolScheduler(jobs, max_workers, cache_dir, policy,
                   summary, finish).run()
    summary.wall_seconds = time.perf_counter() - started
    return summary


class _PoolScheduler:
    """Pooled execution with fault containment.

    Tracks per-job attempts, throttles submissions so every in-flight
    future is actually executing (which makes the wall-clock watchdog
    meaningful), and walks the retry → replace-pool → serial ladder
    described on :class:`RetryPolicy`.
    """

    def __init__(self, jobs, max_workers, cache_dir, policy,
                 summary, finish) -> None:
        self.jobs = jobs
        self.max_workers = min(max_workers, len(jobs),
                               (os.cpu_count() or 1) * 2)
        self.cache_dir = cache_dir
        self.policy = policy
        self.summary = summary
        self.finish = finish
        self.attempts = [0] * len(jobs)
        self.plan = faults.active()
        self.fault_targets = (self.plan.worker_targets(len(jobs))
                              if self.plan else {})
        self.ready: deque[int] = deque(range(len(jobs)))
        self.waiting: list[tuple[float, int]] = []  # (eligible_at, idx)
        self.inflight: dict = {}  # future -> (idx, submitted_at)
        self.pool = None
        self.done_count = 0

    # -- pool lifecycle ------------------------------------------------
    def _make_pool(self) -> ProcessPoolExecutor:
        plan_text = self.plan.plan.describe() if self.plan else None
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=get_context("spawn"),
            initializer=_worker_init,
            initargs=(list(sys.path), plan_text),
        )

    def _retire_pool(self) -> None:
        """Terminate worker processes and drop the executor without
        waiting on hung futures."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already gone
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may throw
            pass

    def _replace_pool(self, reason: str) -> None:
        self._retire_pool()
        # Reclaim in-flight jobs: innocent bystanders of a crash or a
        # neighbour's timeout go back in the queue with their attempt
        # refunded (their failure was the pool's, not theirs).
        for idx, _t0 in self.inflight.values():
            self.attempts[idx] = max(0, self.attempts[idx] - 1)
            self.ready.append(idx)
        self.inflight.clear()
        self.summary.pool_replacements += 1
        faults.note_recovery("pool_replace", reason=reason)
        if self.summary.pool_replacements > self.policy.max_pool_replacements:
            return  # budget spent: remaining work drains serially
        self.pool = self._make_pool()

    # -- main loop -----------------------------------------------------
    def run(self) -> None:
        self.pool = self._make_pool()
        try:
            while self.ready or self.waiting or self.inflight:
                self._promote_waiting()
                if self.pool is None and not self.inflight:
                    self._drain_serially()
                    continue
                self._submit_ready()
                if self.inflight:
                    self._reap()
                elif self.waiting:
                    self._sleep_until_next()
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        if self.pool is None:
            return
        if self.inflight:  # pragma: no cover - only on unexpected raise
            self._retire_pool()
            return
        try:
            self.pool.shutdown(wait=True)
        except Exception:  # noqa: BLE001 - pragma: no cover
            pass
        self.pool = None

    def _promote_waiting(self) -> None:
        now = time.perf_counter()
        still = []
        for eligible_at, idx in self.waiting:
            if eligible_at <= now:
                self.ready.append(idx)
            else:
                still.append((eligible_at, idx))
        self.waiting = still

    def _sleep_until_next(self) -> None:
        soonest = min(eligible_at for eligible_at, _ in self.waiting)
        time.sleep(max(0.0, min(soonest - time.perf_counter(), 0.5)))

    def _submit_ready(self) -> None:
        ship = TRACER.enabled
        while (self.ready and self.pool is not None
               and len(self.inflight) < self.max_workers):
            idx = self.ready.popleft()
            fault = None
            spec_index = self.fault_targets.get(idx)
            if spec_index is not None and self.plan is not None:
                fault = self.plan.take_worker_fault(spec_index)
            self.attempts[idx] += 1
            try:
                fut = self.pool.submit(execute_job, self.jobs[idx],
                                       self.cache_dir, ship, fault, True)
            except Exception:  # noqa: BLE001 - pool died between reaps
                self.attempts[idx] -= 1
                self.ready.appendleft(idx)
                self._replace_pool("submit-failed")
                return
            self.inflight[fut] = (idx, time.perf_counter())

    def _wait_timeout(self) -> float:
        timeout = 0.5
        if self.policy.job_timeout:
            now = time.perf_counter()
            soonest_expiry = min(t0 + self.policy.job_timeout - now
                                 for _, t0 in self.inflight.values())
            timeout = min(timeout, max(0.0, soonest_expiry))
        if self.waiting:
            soonest = min(e for e, _ in self.waiting) - time.perf_counter()
            timeout = min(timeout, max(0.0, soonest))
        return timeout

    def _reap(self) -> None:
        done, _ = wait(set(self.inflight), timeout=self._wait_timeout(),
                       return_when=FIRST_COMPLETED)
        broken = None
        for fut in done:
            idx, _t0 = self.inflight.pop(fut)
            try:
                outcome = fut.result()
            except Exception as exc:  # noqa: BLE001 - crash/pickle/etc.
                faults.note_observed("worker_crash",
                                     error=type(exc).__name__,
                                     job=self.jobs[idx].describe())
                if isinstance(exc, BrokenExecutor):
                    broken = "broken-pool"
                self._failure(idx, f"{type(exc).__name__}: {exc}")
                continue
            self._success_or_retry(idx, outcome)
        if self.policy.job_timeout and self.inflight and self.pool is not None:
            now = time.perf_counter()
            expired = [fut for fut, (idx, t0) in self.inflight.items()
                       if now - t0 > self.policy.job_timeout]
            for fut in expired:
                idx, t0 = self.inflight.pop(fut)
                faults.note_observed("job_timeout",
                                     job=self.jobs[idx].describe(),
                                     seconds=round(now - t0, 1))
                self._failure(idx, "TimeoutError: job exceeded "
                                   f"{self.policy.job_timeout:g}s wall clock")
                broken = broken or "job-timeout"
        if broken:
            self._replace_pool(broken)

    # -- outcome handling ----------------------------------------------
    def _success_or_retry(self, idx: int, outcome: dict) -> None:
        if outcome["error"] is None:
            if self.attempts[idx] > 1:
                outcome["recovery"] = "retry"
                faults.note_recovery("retry", job=self.jobs[idx].describe())
            self._finish_idx(idx, outcome)
            return
        faults.note_observed("job_error", job=self.jobs[idx].describe())
        # The failed attempt still observed faults/cache traffic worth
        # keeping even though its outcome is discarded for the retry.
        faults.LEDGER.absorb(outcome.pop("faults", None))
        self._failure(idx, outcome["error"])

    def _failure(self, idx: int, error: str) -> None:
        if self.attempts[idx] < self.policy.max_attempts:
            self.summary.retries += 1
            delay = self.policy.backoff(self.attempts[idx])
            self.waiting.append((time.perf_counter() + delay, idx))
            return
        if self.policy.serial_fallback:
            # Last rung of the ladder: one inline recompute in the
            # parent, immune to pool infrastructure.
            outcome = execute_job(self.jobs[idx], self.cache_dir)
            outcome["attempts"] = self.attempts[idx] + 1
            outcome["inline"] = True
            if outcome["error"] is None:
                outcome["recovery"] = "serial"
                self.summary.serial_recoveries += 1
                faults.note_recovery("serial",
                                     job=self.jobs[idx].describe())
            self._finish_idx(idx, outcome)
            return
        self._finish_idx(idx, {"job": self.jobs[idx], "seconds": 0.0,
                               "stats": {}, "error": error,
                               "attempts": self.attempts[idx]})

    def _drain_serially(self) -> None:
        """Pool-replacement budget exhausted: everything left runs in
        the parent — slower, but the suite still completes."""
        pending = sorted(set(self.ready)
                         | {idx for _, idx in self.waiting})
        self.ready.clear()
        self.waiting.clear()
        for idx in pending:
            outcome = _run_inline(self.jobs[idx], self.cache_dir,
                                  self.policy, self.summary)
            if outcome["error"] is None:
                outcome["recovery"] = "serial"
                self.summary.serial_recoveries += 1
                faults.note_recovery("serial",
                                     job=self.jobs[idx].describe())
            self._finish_idx(idx, outcome)

    def _finish_idx(self, idx: int, outcome: dict) -> None:
        self.done_count += 1
        outcome.setdefault("attempts", self.attempts[idx])
        self.finish(self.done_count, outcome)
