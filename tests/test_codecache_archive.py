"""Cross-process shared JIT code archive (repro.vm.codecache_archive).

The archive may only move cycles between the translate and install
buckets — never change what executes.  These tests pin that contract
plus the satellites that ride with it: corrupt-entry quarantine,
key sensitivity, LRU eviction, tiered promotion pricing, the unified
translate-accounting choke point, the identity-keyed ``thread_for``
map, and the worker-respawn source-digest reset.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro import faults
from repro.analysis import cache
from repro.analysis.runner import run_vm
from repro.vm.classloader import ClassLoader
from repro.vm.codecache_archive import CodeArchive


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.deactivate()
    faults.LEDGER.reset()
    yield
    faults.deactivate()
    faults.LEDGER.reset()


def _run(workload, archive, config="jit"):
    return run_vm(workload, "s0", config, cache_dir="", code_archive=archive)


def _count_resolutions(monkeypatch) -> dict:
    """Count ``ClassLoader`` pool resolutions from here on, by kind."""
    counts = {"resolve_method": 0, "resolve_field": 0}
    for name in counts:
        def counted(self, *args, _real=getattr(ClassLoader, name),
                    _name=name):
            counts[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(ClassLoader, name, counted)
    return counts


def _same_execution(a, b):
    assert a.stdout == b.stdout
    assert a.heap == b.heap
    assert a.classes_loaded == b.classes_loaded
    assert a.execute_cycles == b.execute_cycles


class TestWarmColdDifferential:
    def test_disabled_cold_warm_execute_identically(self, tmp_path,
                                                    monkeypatch):
        d = str(tmp_path / "archive")
        counts = _count_resolutions(monkeypatch)
        base = _run("db", "")
        base_resolutions = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        cold = _run("db", d)
        cold_resolutions = dict(counts)
        warm = _run("db", d)
        _same_execution(base, cold)
        _same_execution(base, warm)
        # disabled and cold do identical *work* too
        assert base.cycles == cold.cycles
        assert base.translate_cycles == cold.translate_cycles
        assert base.archive is None and cold.archive is not None
        # ...and one resolution walk per compile: keying the archive
        # reads the link context translation resolves, not a copy
        assert base_resolutions["resolve_method"] > 0
        assert cold_resolutions == base_resolutions

    def test_warm_run_pays_install_not_translate(self, tmp_path):
        d = str(tmp_path / "archive")
        cold = _run("db", d)
        warm = _run("db", d)
        assert cold.methods_compiled >= 1
        assert cold.archive["misses"] == cold.methods_compiled
        assert warm.archive["hits"] == cold.methods_compiled
        assert warm.archive["misses"] == 0
        assert warm.methods_compiled == 0
        assert warm.methods_installed == cold.methods_compiled
        # every warm translate cycle is an install cycle, and the
        # install path is far cheaper than translation (the >=50% bar
        # the bench holds suite-wide; a single workload clears it too)
        assert warm.translate_cycles == warm.install_cycles
        assert warm.translate_cycles < cold.translate_cycles / 2

    def test_disabled_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
        assert cache.resolve_dir(None, cache.ARCHIVE_ENV) is None
        assert cache.resolve_dir("", cache.ARCHIVE_ENV) is None
        res = _run("hello", "")
        assert res.archive is None

    def test_env_var_enables_archive(self, tmp_path, monkeypatch):
        d = str(tmp_path / "via-env")
        monkeypatch.setenv("REPRO_CODE_ARCHIVE", d)
        assert cache.resolve_dir(None, cache.ARCHIVE_ENV) == d
        res = run_vm("hello", "s0", "jit", cache_dir="")
        assert res.archive is not None and res.archive["dir"] == d


class TestQuarantine:
    def test_corrupt_entry_quarantined_recompiled_never_executed(
            self, tmp_path):
        d = str(tmp_path / "archive")
        base = _run("db", "")
        _run("db", d)  # populate
        entries = sorted(glob.glob(os.path.join(d, "code", "*.pkl")))
        with open(entries[0], "r+b") as fh:
            fh.write(b"\xde\xad\xbe\xef")
        before = cache.STATS.snapshot()
        warm = _run("db", d)
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["corrupt"] == 1
        assert delta["quarantined"] == 1
        assert delta["code_misses"] == 1   # the corrupt one
        assert delta["code_stores"] == 1   # ...recompiled and re-stored
        assert faults.LEDGER.count("recovered", "quarantine") == 1
        # the corpse moved aside; the run never executed it
        assert len(os.listdir(os.path.join(d, "quarantine"))) == 1
        _same_execution(base, warm)
        # the re-store healed the archive: next run is all hits
        healed = _run("db", d)
        assert healed.archive["misses"] == 0

    def test_truncated_pickle_is_a_miss_not_a_crash(self, tmp_path):
        d = str(tmp_path / "archive")
        _run("hello", d)
        entry = sorted(glob.glob(os.path.join(d, "code", "*.pkl")))[0]
        payload = open(entry, "rb").read()[:10]
        with open(entry, "wb") as fh:
            fh.write(payload)
        # rewrite the sidecar so only unpickling (not the digest) fails
        import hashlib
        with open(entry + ".sha256", "w") as fh:
            fh.write(hashlib.sha256(payload).hexdigest())
        base = _run("hello", "")
        warm = _run("hello", d)
        _same_execution(base, warm)


class TestKeySensitivity:
    def test_config_changes_miss_instead_of_serving_wrong_code(
            self, tmp_path):
        d = str(tmp_path / "archive")
        _run("db", d)  # populate with inlining on
        other = _run("db", d, "jit,inline=False")
        assert other.archive["hits"] == 0
        assert other.archive["misses"] == other.methods_compiled
        # and the original config still hits
        again = _run("db", d)
        assert again.archive["misses"] == 0

    def test_source_digest_memo_reset_on_worker_spawn(self, monkeypatch):
        """Satellite: a respawned pool worker must rehash the sources
        instead of trusting a digest memoized by an earlier worker
        generation — a stale digest would let the shared archive serve
        native code compiled from old sources."""
        from repro.analysis import parallel
        cache.source_digest()
        assert cache._digest_cache            # memo populated
        parallel._worker_init([])
        assert not cache._digest_cache        # memo cleared


class TestEviction:
    def test_gc_evicts_lru_down_to_limit(self, tmp_path):
        d = str(tmp_path / "archive")
        _run("db", d)
        code_dir = os.path.join(d, "code")
        entries = sorted(glob.glob(os.path.join(code_dir, "*.pkl")))
        assert len(entries) > 2
        total = sum(os.path.getsize(p) for p in entries)
        keep = total // 3
        before = cache.STATS.snapshot()
        CodeArchive(d).gc(limit_bytes=keep)
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        left = glob.glob(os.path.join(code_dir, "*.pkl"))
        assert delta["code_evicted"] >= 1
        assert 0 < len(left) < len(entries)
        assert sum(os.path.getsize(p) for p in left) <= keep
        # eviction is not corruption: evicted methods just recompile
        base = _run("db", "")
        warm = _run("db", d)
        _same_execution(base, warm)
        assert warm.archive["hits"] >= 1
        assert warm.archive["misses"] >= 1


class TestTieredArchive:
    def test_promotions_price_against_install_and_record_provenance(
            self, tmp_path):
        d = str(tmp_path / "archive")
        cold = _run("jess", d, "tiered")
        warm = _run("jess", d, "tiered")
        assert cold.tiering["archive_installs"] == 0
        assert warm.tiering["archive_installs"] >= 1
        # the cheaper promotion price makes the whole run cheaper
        assert warm.cycles < cold.cycles
        assert warm.stdout == cold.stdout
        # transitions carry the archive provenance tag
        tagged = [t for m in warm.tiering["methods"].values()
                  for t in m["transitions"] if t[:1] == ["promote"]
                  and t[-1] == "archive"]
        assert len(tagged) == warm.tiering["archive_installs"]


class TestAccountingChokePoint:
    """Satellite: every compile path — strategy, tiered promotion,
    archive install — charges translate cycles through
    ``VM._account_translation``, so the per-method profiler total
    always reconciles exactly with the sink's translate counter."""

    @pytest.mark.parametrize("mode", ["jit", "tiered"])
    def test_profiles_reconcile_with_sink(self, tmp_path, mode):
        d = str(tmp_path / "archive")
        for attempt in ("cold", "warm"):
            res = _run("jess", d, mode)
            psum = sum(p["translate_cycles"]
                       for p in res.profiles.values())
            isum = sum(p.get("install_cycles", 0)
                       for p in res.profiles.values())
            assert psum == res.translate_cycles, (mode, attempt)
            assert isum == res.install_cycles, (mode, attempt)

    def test_install_subset_bounded_by_translate(self, tmp_path):
        d = str(tmp_path / "archive")
        _run("db", d)
        warm = _run("db", d)
        for p in warm.profiles.values():
            assert p.get("install_cycles", 0) <= p["translate_cycles"]


class TestThreadForMap:
    def test_identity_map_matches_linear_scan(self):
        """Satellite: ``VM.thread_for`` moved from an O(threads) scan
        to an identity-keyed dict; both must agree on every thread."""
        from repro.experiments.tiered import lock_escape_program
        from repro.vm import JavaVM
        vm = JavaVM(lock_escape_program().build(), "jit,spawn_daemons=False")
        vm.run()
        with_obj = [t for t in vm.threads if t.java_obj is not None]
        assert len(with_obj) >= 2   # spinner + toucher at minimum
        for t in with_obj:
            scan = next(x for x in vm.threads if x.java_obj is t.java_obj)
            assert vm.thread_for(t.java_obj) is scan is t
        # unknown object: no thread
        assert vm.thread_for(vm.heap.new_object(vm.object_class)) is None
