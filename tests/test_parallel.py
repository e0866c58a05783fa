"""Parallel scheduler: job descriptors, pooled execution, CLI parity."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import cache
from repro.analysis.parallel import (
    Job,
    dedupe,
    execute_job,
    oracle_job,
    run_job,
    run_jobs,
    trace_job,
    trace_jobs,
)
from repro.analysis.runner import is_stored, run_vm
from repro.experiments.base import all_experiments, collect_jobs, jobs_for
from repro.vm import RunConfig


class TestJobDescriptors:
    def test_constructors_and_equality(self):
        assert trace_job("db") == Job("db", "s1", "jit,record=True")
        assert run_job("db", "s0", "interp,inline=False") == Job(
            "db", "s0", RunConfig(threshold=None, inline=False)
        )
        assert oracle_job("db") == Job("db", "s1", "oracle")
        assert trace_job("db", "s0", "interp,record=True") == trace_job(
            "db", "s0", "interp")

    def test_option_order_is_canonical(self):
        a = run_job("db", "s0", "jit,inline=False,folding=True")
        b = run_job("db", "s0", "jit,folding=True,inline=False")
        assert a == b
        assert len(dedupe([a, b])) == 1

    def test_describe_mentions_the_measurement(self):
        text = run_job("db", "s0", "jit,inline=False").describe()
        assert "db/s0/jit" in text and "inline=False" in text
        assert "record=True" in trace_job("db", "s0").describe()

    def test_dedupe_preserves_order(self):
        jobs = [trace_job("a"), trace_job("b"), trace_job("a")]
        assert dedupe(jobs) == [trace_job("a"), trace_job("b")]

    def test_dedupe_lets_a_recording_subsume_its_counting_twin(self):
        jobs = [
            oracle_job("db", "s0"),
            run_job("db", "s0", "jit"),
            run_job("db", "s0", "jit", code_archive="/archive"),
            run_job("db", "s0", "interp"),
            trace_job("db", "s0", "jit"),
            run_job("jess", "s0", "jit"),
            oracle_job("db", "s0"),
        ]
        assert dedupe(jobs) == [
            trace_job("db", "s0", "jit"),
            oracle_job("db", "s0"),
            run_job("db", "s0", "jit", code_archive="/archive"),
            run_job("db", "s0", "interp"),
            run_job("jess", "s0", "jit"),
        ]

    def test_jobs_are_spawn_safe(self):
        import pickle
        job = run_job("db", "s0", "counter4,inline=False")
        assert pickle.loads(pickle.dumps(job)) == job


class TestDeclaredJobs:
    def test_every_experiment_declares_jobs(self):
        missing = [eid for eid in all_experiments()
                   if not jobs_for(eid, scale="s0", benchmarks=("db",))]
        assert not missing, f"experiments with no job list: {missing}"

    def test_collect_jobs_dedupes_across_experiments(self):
        ids = ("fig3", "fig4", "table3")  # all need the same traces
        union = collect_jobs(ids, scale="s0", benchmarks=("db",))
        assert union == [trace_job("db", "s0", "interp"),
                         trace_job("db", "s0", "jit")]

    @pytest.mark.parametrize("eid", [
        "fig3", "table1", "fig2", "fig11", "ablation_locks",
        "ablation_lock_elision", "ablation_inline",
    ])
    def test_declared_jobs_cover_the_run(self, eid, tmp_path, monkeypatch):
        """Pre-warming an experiment's declared jobs makes its run 100%
        cache hits — the declaration is complete."""
        cache_dir = str(tmp_path)
        for job in jobs_for(eid, scale="s0", benchmarks=("db",)):
            outcome = execute_job(job, cache_dir=cache_dir)
            assert outcome["error"] is None
        cache.reset_stats()
        from repro.experiments import get_experiment
        monkeypatch.setenv("REPRO_TRACE_CACHE", cache_dir)
        get_experiment(eid)(scale="s0", benchmarks=("db",))
        assert cache.STATS.misses == 0
        assert cache.STATS.hits > 0


class TestRunJobsInline:
    def test_cold_then_warm(self, tmp_path):
        jobs = trace_jobs(("hello",), "s0")
        cold = run_jobs(jobs, max_workers=1, cache_dir=str(tmp_path))
        assert len(cold.outcomes) == 2 and not cold.errors
        assert cold.stats.trace_misses == 2
        # A warm pre-warm reads no stored entry; the runs that replay
        # the traces load (and verify) them.
        warm = run_jobs(jobs, max_workers=1, cache_dir=str(tmp_path))
        assert len(warm.outcomes) == 2 and not warm.errors
        assert warm.stats.hits == 0 and warm.stats.misses == 0
        cache.reset_stats()
        for job in jobs:
            run_vm(job.workload, job.scale, job.config,
                   cache_dir=str(tmp_path))
        assert cache.STATS.trace_hits == 2
        assert cache.STATS.hit_rate == 1.0

    def test_prewarm_skips_only_complete_entries(self, tmp_path):
        """A recording whose trace entry is missing runs again."""
        jobs = trace_jobs(("hello",), "s0")
        run_jobs(jobs, max_workers=1, cache_dir=str(tmp_path))
        for name in os.listdir(tmp_path / "traces"):
            if "interp" in name:
                os.remove(tmp_path / "traces" / name)
        again = run_jobs(jobs, max_workers=1, cache_dir=str(tmp_path))
        assert again.stats.trace_misses == 1
        assert again.stats.stores >= 1
        assert is_stored("hello", "s0", "interp,record=True",
                         cache_dir=str(tmp_path))

    def test_progress_callback_streams(self, tmp_path):
        seen = []
        run_jobs(trace_jobs(("hello",), "s0"), max_workers=1,
                 cache_dir=str(tmp_path),
                 progress=lambda i, total, o: seen.append((i, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_job_error_reported_not_raised(self, tmp_path):
        summary = run_jobs([trace_job("no-such-workload", "s0")],
                           max_workers=1, cache_dir=str(tmp_path))
        assert len(summary.errors) == 1
        assert "no-such-workload" in summary.errors[0]["error"]

    def test_summary_without_lookups(self):
        stats = cache.CacheStats()
        assert stats.format_summary().startswith(
            "cache: nothing looked up, 0 corrupt recomputed")
        stats.count("trace_hits")
        assert "100.0% hit rate; traces 1/1, runs 0/0" in \
            stats.format_summary()

    def test_summary_format(self, tmp_path):
        summary = run_jobs([trace_job("hello", "s0", "interp")],
                           max_workers=1, cache_dir=str(tmp_path))
        text = summary.format_summary()
        assert "1 jobs" in text and "hit rate" in text


class TestRunJobsPooled:
    """Real spawn workers sharing the on-disk cache."""

    def test_pool_populates_shared_cache(self, tmp_path):
        # The jit run job is subsumed by the jit recording, and each
        # recording stores its trace and its run result.
        jobs = trace_jobs(("hello",), "s0") + [
            run_job("hello", "s0", "jit")
        ]
        summary = run_jobs(jobs, max_workers=2, cache_dir=str(tmp_path))
        assert not summary.errors
        assert len(summary.outcomes) == 2
        assert summary.stats.trace_misses == 2
        assert summary.stats.run_misses == 0
        archives = []
        for sub in ("traces", "runs"):
            directory = tmp_path / sub
            archives += [f for f in os.listdir(directory)
                         if not f.endswith((".lock", ".sha256"))]
        assert len(archives) == 4
        # The parent sees the workers' archives as hits.
        cache.reset_stats()
        for job in jobs:
            run_vm(job.workload, job.scale, job.config,
                   cache_dir=str(tmp_path))
        assert cache.STATS.hits == 5 and cache.STATS.misses == 0


class TestCliParity:
    def test_parallel_output_identical_to_serial(self, tmp_path, capsys,
                                                 monkeypatch):
        # main() writes --cache-dir into the environment; make sure the
        # mutation is undone when the test ends.
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        from repro.experiments.cli import main
        serial_json = str(tmp_path / "serial.json")
        par_json = str(tmp_path / "par.json")
        base = ["fig3", "--scale", "s0", "--benchmarks", "db"]
        assert main(base + ["--cache-dir", str(tmp_path / "c1"),
                            "--json", serial_json]) == 0
        assert main(base + ["--cache-dir", str(tmp_path / "c2"),
                            "--jobs", "2", "--json", par_json]) == 0
        out = capsys.readouterr().out
        assert "pre-warming cache" in out
        assert json.load(open(serial_json)) == json.load(open(par_json))

    def test_serial_run_executes_each_config_once(self, tmp_path,
                                                  monkeypatch):
        """``--jobs 1`` pre-warms inline, recordings first, so a
        counting run and its recording twin execute one VM between
        them, and no config runs twice."""
        from collections import Counter

        from repro.experiments.cli import main
        from repro.vm.machine import JavaVM

        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        runs = Counter()
        run = JavaVM.run

        def counted(vm, *args, **kwargs):
            runs[vm.config.replace(record=False).token] += 1
            return run(vm, *args, **kwargs)

        monkeypatch.setattr(JavaVM, "run", counted)
        assert main(["fig1", "table1", "table3", "--scale", "s0",
                     "--benchmarks", "jess", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        assert runs and max(runs.values()) == 1, runs

    def test_warm_rerun_reports_high_hit_rate(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        from repro.experiments.cli import main
        args = ["fig3", "fig5", "--scale", "s0", "--benchmarks", "db",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        summary = [line for line in out.splitlines()
                   if line.startswith("run summary:")][-1]
        assert "100.0% hit rate" in summary
        # Every pre-warm job was stored: the pre-warm looked nothing up,
        # and says so instead of printing a cold-looking 0.0% hit rate.
        prewarm = [line for line in out.splitlines()
                   if line.startswith("pre-warm:")][-1]
        assert "cache: nothing looked up," in prewarm
        assert "hit rate" not in prewarm
