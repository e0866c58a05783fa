"""Hardened scheduler and cache: retry/backoff, pool replacement,
serial fallback, stale-lock breaking, and the pre-warm failure exit."""

from __future__ import annotations

import os
import threading

import pytest

from repro import faults
from repro.analysis import cache
from repro.analysis.parallel import (
    RetryPolicy,
    run_jobs,
    trace_job,
    trace_jobs,
)
from repro.analysis.runner import run_vm
from repro.faults.plan import _dead_pid


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.deactivate()
    faults.LEDGER.reset()
    yield
    faults.deactivate()
    faults.LEDGER.reset()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.3)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_RETRIES", "4")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.job_timeout == 12.5
        # A malformed value fails loudly, naming its variable, instead
        # of being dropped along with its valid neighbour.
        for retries, timeout, bad in (("two", "30", "REPRO_JOB_RETRIES"),
                                      ("4", "soon", "REPRO_JOB_TIMEOUT"),
                                      ("1.5", "", "REPRO_JOB_RETRIES")):
            monkeypatch.setenv("REPRO_JOB_RETRIES", retries)
            monkeypatch.setenv("REPRO_JOB_TIMEOUT", timeout)
            with pytest.raises(ValueError, match=bad):
                RetryPolicy.from_env()
        monkeypatch.delenv("REPRO_JOB_RETRIES")
        monkeypatch.delenv("REPRO_JOB_TIMEOUT")
        assert RetryPolicy.from_env() == RetryPolicy()


class TestInlineRetry:
    def test_transient_failure_retried_to_success(self, tmp_path,
                                                  monkeypatch):
        from repro.analysis import runner
        real = runner.run_vm
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient infrastructure failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_vm", flaky)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.001)
        summary = run_jobs([trace_job("hello", "s0", "interp")],
                           max_workers=1, cache_dir=str(tmp_path),
                           policy=policy)
        assert not summary.errors
        assert summary.retries == 2
        outcome = summary.outcomes[0]
        assert outcome["attempts"] == 3
        assert outcome["recovery"] == "retry"
        assert faults.LEDGER.count("recovered", "retry") == 1
        assert faults.LEDGER.count("observed", "job_error") == 2

    def test_permanent_failure_exhausts_attempts(self, tmp_path):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.001)
        summary = run_jobs([trace_job("no-such-workload", "s0")],
                           max_workers=1, cache_dir=str(tmp_path),
                           policy=policy)
        assert len(summary.errors) == 1
        assert summary.errors[0]["attempts"] == 2
        assert summary.retries == 1


@pytest.mark.slow
class TestPooledResilience:
    """Real spawn pools under injected worker faults."""

    def test_worker_kill_recovers_and_completes(self, tmp_path):
        faults.activate("worker-kill@1;seed=7")
        jobs = trace_jobs(("hello",), "s0")
        summary = run_jobs(jobs, max_workers=2, cache_dir=str(tmp_path),
                           policy=RetryPolicy(backoff_base=0.001))
        assert not summary.errors, summary.errors
        assert summary.pool_replacements >= 1
        assert faults.LEDGER.count("injected", "worker-kill") == 1
        assert faults.LEDGER.total("recovered") >= 1
        # the cache is complete despite the crash: replaying the jobs is
        # all hits (each recording finds its trace and its run result)
        faults.deactivate()
        cache.reset_stats()
        for job in jobs:
            run_vm(job.workload, job.scale, job.config,
                   cache_dir=str(tmp_path))
        assert cache.STATS.trace_hits == cache.STATS.run_hits == len(jobs)
        assert cache.STATS.misses == 0

    def test_worker_raise_falls_back_to_serial(self, tmp_path):
        faults.activate("worker-raise@1:times=5")
        jobs = trace_jobs(("hello",), "s0")
        summary = run_jobs(jobs, max_workers=2, cache_dir=str(tmp_path),
                           policy=RetryPolicy(max_attempts=2,
                                              backoff_base=0.001))
        assert not summary.errors, summary.errors
        assert summary.serial_recoveries == 1
        (outcome,) = [o for o in summary.outcomes
                      if o["recovery"] == "serial"]
        assert outcome["attempts"] == 3  # two pool attempts + serial
        assert faults.LEDGER.count("recovered", "serial") == 1

    def test_worker_hang_hits_job_timeout(self, tmp_path):
        faults.activate("worker-hang@1:seconds=30")
        jobs = trace_jobs(("hello",), "s0")
        summary = run_jobs(jobs, max_workers=2, cache_dir=str(tmp_path),
                           policy=RetryPolicy(job_timeout=2.0,
                                              backoff_base=0.001))
        assert not summary.errors, summary.errors
        assert faults.LEDGER.count("observed", "job_timeout") >= 1
        assert summary.pool_replacements >= 1

    def test_replacement_budget_spent_drains_serially(self, tmp_path):
        faults.activate("worker-kill@1;seed=7")
        jobs = trace_jobs(("hello",), "s0")
        summary = run_jobs(jobs, max_workers=2, cache_dir=str(tmp_path),
                           policy=RetryPolicy(max_pool_replacements=0,
                                              backoff_base=0.001))
        assert not summary.errors, summary.errors
        assert summary.serial_recoveries >= 1
        assert faults.LEDGER.count("recovered", "serial") >= 1

    def test_unrecoverable_job_reports_error(self, tmp_path):
        jobs = [trace_job("no-such-workload", "s0"),
                trace_job("hello", "s0", "interp")]
        summary = run_jobs(jobs, max_workers=2, cache_dir=str(tmp_path),
                           policy=RetryPolicy(max_attempts=2,
                                              backoff_base=0.001))
        assert len(summary.errors) == 1
        assert "no-such-workload" in summary.errors[0]["error"]
        # two pool attempts plus the failed serial fallback
        assert summary.errors[0]["attempts"] == 3
        # the healthy neighbour still landed
        assert len(summary.outcomes) == 2


@pytest.mark.slow
class TestPrewarmFailureExit:
    def test_prewarm_errors_yield_nonzero_exit(self, tmp_path, capsys,
                                               monkeypatch):
        """A pre-warm job failing beyond all recovery must not abort the
        run — experiments still render — but the exit code reports it."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "0")
        from repro.experiments import cli
        monkeypatch.setattr(
            cli, "collect_jobs",
            lambda *a, **k: [trace_job("no-such-workload", "s0")])
        out_json = str(tmp_path / "out.json")
        status = cli.main(["fig3", "--scale", "s0", "--benchmarks", "db",
                           "--jobs", "2",
                           "--cache-dir", str(tmp_path / "c"),
                           "--json", out_json])
        assert status == 1
        out = capsys.readouterr()
        assert "pre-warm error" in out.err
        # the rendering pass recomputed inline and still delivered
        assert "(fig3 completed" in out.out
        assert os.path.exists(out_json)

    def test_malformed_retry_env_exits_before_running(self, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "two")
        from repro.experiments import cli
        status = cli.main(["fig3", "--scale", "s0", "--benchmarks", "db",
                           "--jobs", "2",
                           "--cache-dir", str(tmp_path / "c")])
        assert status == 2
        out = capsys.readouterr()
        assert "REPRO_JOB_RETRIES" in out.err
        assert "(fig3 completed" not in out.out


class TestStaleLockRecovery:
    def test_lock_left_by_dead_process_is_broken(self, tmp_path):
        path = str(tmp_path / "entry.pkl")
        with open(path + ".lock", "w") as fh:
            fh.write(str(_dead_pid()))
        before = cache.STATS.snapshot()
        with cache.FileLock(path, timeout=5.0):
            pass
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["locks_broken"] == 1
        assert faults.LEDGER.count("recovered", "lock_break") == 1
        assert not os.path.exists(path + ".lock")

    def test_store_lands_exactly_once_under_contention(self, tmp_path):
        """Concurrent contenders racing a stale lock: the lock is
        broken, every store completes, and exactly one verified entry
        remains."""
        cache_dir = tmp_path / "runs"
        cache_dir.mkdir()
        path = str(cache_dir / "entry.pkl")
        with open(path + ".lock", "w") as fh:
            fh.write(str(_dead_pid()))
        payload = {"rows": list(range(64))}
        before = cache.STATS.snapshot()
        errors = []

        def contend():
            try:
                cache.store_run(path, payload)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=contend) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["locks_broken"] >= 1
        assert delta["stores"] == 4
        entries = [f for f in os.listdir(cache_dir)
                   if not f.endswith((".lock", ".sha256"))]
        assert entries == ["entry.pkl"]
        assert not os.path.exists(path + ".lock")
        assert cache.load_run(path) == payload

    def test_live_owner_is_waited_for_not_broken(self, tmp_path):
        path = str(tmp_path / "entry.pkl")
        held = cache.FileLock(path, timeout=10.0)
        held.__enter__()
        before = cache.STATS.snapshot()
        acquired = threading.Event()

        def waiter():
            with cache.FileLock(path, timeout=10.0):
                acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            assert not acquired.wait(0.15)  # still held: waiter blocks
        finally:
            held.__exit__(None, None, None)
        assert acquired.wait(10)
        thread.join(timeout=10)
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["locks_broken"] == 0

    def test_live_owner_forced_break_after_timeout(self, tmp_path):
        path = str(tmp_path / "entry.pkl")
        with open(path + ".lock", "w") as fh:
            fh.write(str(os.getpid()))  # alive, and never releasing
        before = cache.STATS.snapshot()
        with cache.FileLock(path, timeout=0.2):
            pass
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["locks_broken"] == 1
        assert faults.LEDGER.count("recovered", "lock_break_forced") == 1

    def test_exactly_one_contender_wins_the_break(self, tmp_path):
        """Many waiters conclude "stale" about the same dead-owner lock
        at once; the rename commit point lets exactly one win."""
        import time as _time
        path = str(tmp_path / "entry.pkl")
        with open(path + ".lock", "w") as fh:
            fh.write(str(_dead_pid()))
        n = 8
        barrier = threading.Barrier(n)
        wins = []

        def contend():
            lock = cache.FileLock(path, timeout=10.0)
            deadline = _time.perf_counter() + 10.0
            barrier.wait()
            wins.append(lock._break_if_stale(deadline))

        threads = [threading.Thread(target=contend) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sum(wins) == 1, wins
        assert not os.path.exists(path + ".lock")
        # no grave droppings left behind either
        assert os.listdir(tmp_path) == []

    def test_fresh_live_lock_survives_slow_breaker(self, tmp_path,
                                                   monkeypatch):
        """The race the rename closes: a slow waiter probed the dead
        owner, got descheduled, and meanwhile a faster waiter broke the
        lock and re-acquired it.  The slow waiter's break must NOT
        remove the fresh live lock — it captures it, notices the owner
        changed and is alive, and puts it back intact."""
        import time as _time
        path = str(tmp_path / "entry.pkl")
        lock_path = path + ".lock"
        # On disk now: the fast waiter's fresh lock (a live pid).
        with open(lock_path, "w") as fh:
            fh.write(str(os.getpid()))
        slow = cache.FileLock(path, timeout=10.0)
        # The slow waiter still acts on its pre-break probe result.
        monkeypatch.setattr(slow, "_owner_pid", lambda: _dead_pid())
        before = cache.STATS.snapshot()
        assert slow._break_if_stale(_time.perf_counter() + 10.0) is False
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["locks_broken"] == 0
        # the live lock is back, same owner, and nothing else remains
        with open(lock_path) as fh:
            assert int(fh.read()) == os.getpid()
        assert os.listdir(tmp_path) == [os.path.basename(lock_path)]

    def test_unreadable_lock_broken_after_grace(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(cache, "LOCK_UNREADABLE_GRACE", 0.05)
        path = str(tmp_path / "entry.pkl")
        with open(path + ".lock", "w") as fh:
            fh.write("not-a-pid")
        with cache.FileLock(path, timeout=5.0):
            pass
        assert faults.LEDGER.count("recovered", "lock_break") == 1


class TestQuarantine:
    def test_corrupt_run_archive_quarantined_and_recomputed(self,
                                                            tmp_path):
        from repro.analysis.runner import run_vm
        cache_dir = str(tmp_path)
        run_vm("hello", "s0", "interp", cache_dir=cache_dir)
        runs = os.path.join(cache_dir, "runs")
        (entry,) = [f for f in os.listdir(runs) if f.endswith(".pkl")]
        path = os.path.join(runs, entry)
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage")  # digest mismatch
        before = cache.STATS.snapshot()
        again = run_vm("hello", "s0", "interp", cache_dir=cache_dir)
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["corrupt"] == 1
        assert delta["quarantined"] == 1
        assert again is not None  # recomputed fine
        qdir = os.path.join(cache_dir, "quarantine")
        assert os.listdir(qdir) == [entry]
        assert faults.LEDGER.count("recovered", "quarantine") == 1
        # pruning clears the corpse
        assert cache.prune(cache_dir) >= 1
        assert not os.listdir(qdir)

    @pytest.mark.parametrize("namespace", ["traces", "runs", "code"])
    def test_prune_clears_droppings_in_every_namespace(self, tmp_path,
                                                       namespace):
        directory = tmp_path / namespace
        directory.mkdir()
        entry = "x" + cache.NAMESPACES[namespace].ext
        (directory / entry).write_bytes(b"entry")
        droppings = [f"{entry}.lock", f".tmp-1-1-{entry}",
                     f"{entry}.lock.break-1-1"]
        for name in droppings:
            (directory / name).write_text("1")
        assert cache.prune(str(tmp_path)) == len(droppings)
        assert os.listdir(directory) == [entry]

    def test_prune_reclaims_superseded_formats(self, tmp_path):
        """An entry whose extension is not its namespace's current one
        (a trace stored as ``.npy`` before traces became template logs)
        is never addressed again: prune deletes it with its sidecar and
        keeps current entries, sidecars included."""
        traces = tmp_path / "traces"
        traces.mkdir()
        current = "db-s0-jit-0123456789abcdef" + cache.NAMESPACES[
            "traces"].ext
        kept = [current, current + ".sha256"]
        superseded = ["db-s0-jit-fedcba9876543210.npy",
                      "db-s0-jit-fedcba9876543210.npy.sha256"]
        for name in kept + superseded:
            (traces / name).write_bytes(b"entry")
        assert cache.prune(str(tmp_path)) == len(superseded)
        assert sorted(os.listdir(traces)) == sorted(kept)
