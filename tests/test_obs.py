"""Observability layer: tracer, manifests, summarize/diff, and the
crash-loss / temp-file bugfixes that rode along with it."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro import obs
from repro.analysis import cache
from repro.analysis.parallel import run_jobs, trace_job, trace_jobs
from repro.analysis.runner import get_trace, run_vm
from repro.obs import summarize
from repro.obs.tracer import TRACER, measure_disabled_overhead


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


# -- tracer core -------------------------------------------------------

class TestTracer:
    def test_disabled_is_a_shared_noop(self):
        a = obs.span("one", k=1)
        b = obs.span("two")
        assert a is b  # no allocation on the off path
        with a:
            pass
        TRACER.add("counter")
        TRACER.emit("agg", 0.5)
        assert TRACER.events == []
        assert TRACER.counters == {}

    def test_span_nesting_records_parent_and_depth(self):
        TRACER.enable()
        with TRACER.span("outer") as outer:
            with TRACER.span("inner", k=2):
                pass
        inner_ev, outer_ev = TRACER.events
        assert inner_ev["name"] == "inner"
        assert inner_ev["parent"] == outer.id
        assert inner_ev["depth"] == 1
        assert inner_ev["attrs"] == {"k": 2}
        assert outer_ev["parent"] is None and outer_ev["depth"] == 0
        assert inner_ev["dur"] <= outer_ev["dur"]

    def test_span_records_error_on_exception(self):
        TRACER.enable()
        with pytest.raises(ValueError):
            with TRACER.span("failing"):
                raise ValueError("boom")
        (event,) = TRACER.events
        assert event["attrs"]["error"] == "ValueError"

    def test_emit_and_counters(self):
        TRACER.enable()
        TRACER.emit("agg.phase", 0.25, bytecodes=7)
        TRACER.add("hits", 2)
        TRACER.add("hits")
        (event,) = TRACER.events
        assert event["dur"] == 0.25 and event["attrs"]["bytecodes"] == 7
        assert TRACER.counters == {"hits": 3}

    def test_traced_decorator(self):
        calls = []

        @obs.traced("decorated.fn")
        def fn(x):
            calls.append(x)
            return x + 1

        assert fn(1) == 2          # disabled: pass-through
        assert TRACER.events == []
        TRACER.enable()
        assert fn(2) == 3
        assert TRACER.events[0]["name"] == "decorated.fn"
        assert calls == [1, 2]

    def test_drain_and_absorb_merge_buffers(self):
        TRACER.enable()
        with TRACER.span("worker.span"):
            pass
        TRACER.add("jobs", 1)
        payload = TRACER.drain()
        assert TRACER.events == [] and TRACER.counters == {}
        TRACER.add("jobs", 2)
        TRACER.absorb(payload)
        assert [e["name"] for e in TRACER.events] == ["worker.span"]
        assert TRACER.counters == {"jobs": 3}

    def test_measure_disabled_overhead_requires_off(self):
        TRACER.enable()
        with pytest.raises(RuntimeError):
            measure_disabled_overhead(10)
        TRACER.disable()
        probe = measure_disabled_overhead(1000)
        assert probe["check_ns"] > 0 and probe["span_ns"] > 0


# -- event stream IO and aggregation -----------------------------------

class TestEventStream:
    def _sample_run(self, tmp_path, name):
        TRACER.reset()
        TRACER.enable()
        with TRACER.span("phase.a"):
            with TRACER.span("phase.b"):
                pass
        TRACER.add("widgets", 4)
        path = str(tmp_path / name)
        n = obs.write_events(path)
        TRACER.disable()
        assert n == 3  # two spans + one counter line
        return path

    def test_write_load_roundtrip(self, tmp_path):
        path = self._sample_run(tmp_path, "run.jsonl")
        run = summarize.load(path)
        assert {e["name"] for e in run["spans"]} == {"phase.a", "phase.b"}
        assert run["counters"] == {"widgets": 4}
        for line in open(path):
            json.loads(line)  # every line is valid JSON

    def test_profile_table(self, tmp_path):
        run = summarize.load(self._sample_run(tmp_path, "run.jsonl"))
        text = summarize.profile_table(run)
        assert "phase.a" in text and "phase.b" in text
        assert "widgets" in text

    def test_diff_flags_regressions(self):
        a = {"spans": [{"name": "s", "ts": 0.0, "dur": 1.0}],
             "counters": {"c": 1}}
        b = {"spans": [{"name": "s", "ts": 0.0, "dur": 2.0},
                       {"name": "t", "ts": 0.0, "dur": 0.5}],
             "counters": {"c": 3}}
        table, regressions = summarize.diff_runs(a, b, threshold=0.2)
        assert len(regressions) == 1 and "s:" in regressions[0]
        assert "SLOWER" in table and "NEW" in table
        assert "counters that changed" in table
        _, none = summarize.diff_runs(a, a)
        assert none == []

    def test_summarize_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        path = self._sample_run(tmp_path, "run.jsonl")
        assert main(["summarize", path]) == 0
        assert "phase.a" in capsys.readouterr().out
        assert main(["diff", path, path]) == 0
        assert main(["overhead", "--iters", "1000"]) == 0


# -- manifests ---------------------------------------------------------

class TestManifest:
    def test_fields(self):
        import platform

        import numpy as np

        manifest = obs.build_manifest(
            "test-tool", argv=["x", "--y"],
            experiments=[{"id": "fig1", "seconds": 1.0, "error": None}],
        )
        assert manifest["tool"] == "test-tool"
        assert manifest["argv"] == ["x", "--y"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert set(manifest["config"]) == {
            "REPRO_SIM_KERNEL", "REPRO_TRACE_CACHE", "REPRO_OBS",
            "REPRO_FAULTS", "REPRO_CODE_ARCHIVE"}
        for field in ("trace_hits", "run_misses", "corrupt", "hits",
                      "misses"):
            assert field in manifest["cache"]
        rev = manifest["git_rev"]
        assert rev is None or (len(rev) == 40
                               and all(c in "0123456789abcdef" for c in rev))
        assert manifest["experiments"][0]["id"] == "fig1"

    def test_span_totals_included_when_tracing(self):
        TRACER.enable()
        with TRACER.span("m.phase"):
            pass
        manifest = obs.build_manifest("t")
        assert manifest["spans"]["m.phase"]["count"] == 1

    def test_manifest_path_for(self):
        assert obs.manifest_path_for("out.json") == "out.manifest.json"
        assert obs.manifest_path_for("report") == "report.manifest.json"


# -- VM instrumentation ------------------------------------------------

class TestVMSpans:
    def test_jit_run_emits_phase_spans(self):
        TRACER.enable()
        run_vm("hello", "s0", "jit", cache_dir="")
        names = [e["name"] for e in TRACER.events]
        assert "vm.run" in names
        assert "vm.jit.translate" in names
        assert "vm.interp.dispatch" in names
        assert "vm.jit.execute" in names
        vm_run = next(e for e in TRACER.events if e["name"] == "vm.run")
        assert vm_run["attrs"]["cycles"] > 0
        assert vm_run["attrs"]["translate_cycles"] > 0
        for tr in (e for e in TRACER.events
                   if e["name"] == "vm.jit.translate"):
            assert tr["parent"] == vm_run["id"]
            assert tr["attrs"]["translate_cycles"] > 0

    def test_interp_run_charges_dispatch(self):
        TRACER.enable()
        run_vm("hello", "s0", "interp", cache_dir="")
        dispatch = next(e for e in TRACER.events
                        if e["name"] == "vm.interp.dispatch")
        assert dispatch["attrs"]["bytecodes"] > 0
        assert dispatch["dur"] > 0
        assert not any(e["name"] == "vm.jit.translate"
                       for e in TRACER.events)

    @pytest.mark.parametrize("record", [False, True])
    def test_traced_run_matches_untraced(self, record):
        """The stepper's timing wrappers change no simulated number, and
        every bytecode lands in exactly one dispatch bucket."""
        config = ("tiered,t2_invocations=3,t2_backedges=32"
                  + (",record=True" if record else ""))

        def observed(r):
            return (r.cycles, r.instructions, r.translate_cycles,
                    r.opcode_counts.tolist(), r.profiles, r.stdout)

        plain = run_vm("jess", "s0", config, cache_dir="", code_archive="")
        TRACER.enable()
        traced = run_vm("jess", "s0", config, cache_dir="", code_archive="")
        assert observed(traced) == observed(plain)
        buckets = sum(e["attrs"]["bytecodes"] for e in TRACER.events
                      if e["name"] in ("vm.interp.dispatch",
                                       "vm.jit.execute"))
        assert buckets == traced.bytecodes_executed

    def test_disabled_run_emits_nothing(self):
        result = run_vm("hello", "s0", "jit", cache_dir="")
        assert result.cycles > 0
        assert TRACER.events == []


# -- cache instrumentation ---------------------------------------------

class TestCacheSpans:
    def test_lookup_outcomes_and_store(self, tmp_path):
        TRACER.enable()
        cache_dir = str(tmp_path)
        get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        lookups = [e["attrs"]["outcome"] for e in TRACER.events
                   if e["name"] == "cache.lookup"
                   and e["attrs"]["kind"] == "trace"]
        assert lookups == ["miss", "hit"]
        assert any(e["name"] == "cache.store" for e in TRACER.events)
        assert TRACER.counters["cache.trace_miss"] == 1
        assert TRACER.counters["cache.trace_hit"] == 1

    def test_corrupt_archive_discarded_and_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        traces = os.path.join(cache_dir, "traces")
        (archive,) = [f for f in os.listdir(traces)
                      if f.endswith(cache.NAMESPACES["traces"].ext)]
        path = os.path.join(traces, archive)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        TRACER.enable()
        cache.reset_stats()
        assert cache.load_trace(path) is None
        # The corrupt archive was quarantined, out of the lookup path.
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(cache_dir, "quarantine")) == [archive]
        assert cache.STATS.corrupt == 1
        (lookup,) = [e for e in TRACER.events if e["name"] == "cache.lookup"]
        assert lookup["attrs"]["outcome"] == "corrupt"
        # A recompute through the runner replaces it.
        recovered = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert recovered.n > 0 and os.path.exists(path)


# -- atomic-write concurrency (satellite bugfix) -----------------------

class TestAtomicWriteConcurrency:
    def test_temp_names_are_unique_within_a_process(self, tmp_path):
        captured = []
        original = os.replace

        def spy(src, dst):
            captured.append(os.path.basename(src))
            return original(src, dst)

        target = str(tmp_path / "entry.bin")
        try:
            os.replace = spy
            cache._atomic_write(target, b"a")
            cache._atomic_write(target, b"b")
        finally:
            os.replace = original
        assert len(set(captured)) == 2

    def test_concurrent_writers_same_key(self, tmp_path):
        """Two+ threads storing the same key must not race on the temp
        file: every write survives intact and nothing is left behind."""
        target = str(tmp_path / "entry.bin")
        payloads = {t: (b"%d:" % t) * 4096 for t in range(8)}
        barrier = threading.Barrier(len(payloads))
        errors = []

        def writer(tid):
            barrier.wait()
            try:
                for _ in range(25):
                    cache._atomic_write(target, payloads[tid])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with open(target, "rb") as fh:
            assert fh.read() in payloads.values()  # never interleaved
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.startswith(".tmp-")]
        assert leftovers == []


# -- parallel scheduler ------------------------------------------------

class TestParallelObservability:
    def test_inline_jobs_record_spans_directly(self, tmp_path):
        TRACER.enable()
        summary = run_jobs(trace_jobs(("hello",), "s0"), max_workers=1,
                           cache_dir=str(tmp_path))
        assert not summary.errors
        jobs = [e for e in TRACER.events if e["name"] == "job"]
        assert len(jobs) == 2
        assert {e["attrs"]["mode"] for e in jobs} == {"interp", "jit"}

    def test_pooled_workers_ship_events_to_parent(self, tmp_path):
        TRACER.enable()
        summary = run_jobs(trace_jobs(("hello",), "s0"), max_workers=2,
                           cache_dir=str(tmp_path))
        assert not summary.errors
        jobs = [e for e in TRACER.events if e["name"] == "job"]
        assert len(jobs) == 2
        # Spans really came from the worker processes...
        assert all(e["pid"] != os.getpid() for e in jobs)
        # ...and the workers' VM/cache spans merged in too.
        assert any(e["name"] == "vm.run" for e in TRACER.events)
        assert any(e["name"] == "cache.store" for e in TRACER.events)

    def test_pooled_worker_errors_propagate(self, tmp_path):
        summary = run_jobs(
            [trace_job("no-such-workload", "s0", "interp"),
             trace_job("no-such-workload", "s0", "jit")],
            max_workers=2, cache_dir=str(tmp_path),
        )
        assert len(summary.errors) == 2
        for outcome in summary.errors:
            assert "no-such-workload" in outcome["error"]


# -- CLI crash-loss bugfix + manifest ----------------------------------

class TestCliFailurePaths:
    @pytest.fixture()
    def fake_experiments(self, monkeypatch):
        from repro.experiments import base
        from repro.experiments.base import ExperimentResult

        def okexp(scale="s1", benchmarks=None):
            return ExperimentResult("okexp", "ok", ["col"], [["v"]])

        def boomexp(scale="s1", benchmarks=None):
            raise RuntimeError("kaboom mid-run")

        base.all_experiments()  # force registry population first
        monkeypatch.setitem(base._REGISTRY, "okexp", okexp)
        monkeypatch.setitem(base._REGISTRY, "boomexp", boomexp)

    def test_raising_experiment_keeps_results_and_exits_nonzero(
            self, tmp_path, capsys, fake_experiments, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        from repro.experiments.cli import main
        json_path = str(tmp_path / "out.json")
        trace_path = str(tmp_path / "out.trace.jsonl")
        rc = main(["okexp", "boomexp", "--json", json_path,
                   "--trace", trace_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "kaboom mid-run" in err

        # JSON survived the crash, with the completed experiment.
        results = json.load(open(json_path))
        assert [r["id"] for r in results] == ["okexp"]

        # The manifest records both outcomes next to the JSON output.
        manifest = json.load(open(str(tmp_path / "out.manifest.json")))
        by_id = {e["id"]: e for e in manifest["experiments"]}
        assert by_id["okexp"]["error"] is None
        assert "kaboom" in by_id["boomexp"]["error"]
        assert manifest["tool"] == "repro.experiments"

        # The event stream has both experiment spans, the failed one
        # tagged with its error.
        run = summarize.load(trace_path)
        spans = {e["attrs"]["id"]: e for e in run["spans"]
                 if e["name"] == "experiment"}
        assert spans["boomexp"]["attrs"]["error"] == "RuntimeError"
        assert "error" not in spans["okexp"]["attrs"]

    def test_unknown_id_still_reports_status_two(self, tmp_path, capsys,
                                                 fake_experiments,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        from repro.experiments.cli import main
        json_path = str(tmp_path / "out.json")
        assert main(["okexp", "fig99", "--json", json_path]) == 2
        manifest = json.load(open(str(tmp_path / "out.manifest.json")))
        by_id = {e["id"]: e for e in manifest["experiments"]}
        assert "fig99" in by_id and by_id["fig99"]["error"]
