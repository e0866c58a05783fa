"""Fault-injection layer: plan grammar, seeded targeting, the injection
hooks, and the end-to-end determinism guarantee (a faulted CLI run
produces byte-identical JSON to a clean one)."""

import filecmp
import json
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.analysis import cache
from repro.faults.plan import _corrupt_bytes, _dead_pid, _seeded_index


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.deactivate()
    faults.LEDGER.reset()
    yield
    faults.deactivate()
    faults.LEDGER.reset()


# -- plan grammar ------------------------------------------------------

class TestPlanParsing:
    def test_single_spec(self):
        plan = faults.FaultPlan.parse("worker-kill")
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert spec.kind == "worker-kill"
        assert spec.at is None and spec.times == 1

    def test_full_grammar(self):
        plan = faults.FaultPlan.parse(
            "worker-kill@2;corrupt-archive:times=2,mode=garble;seed=7")
        assert plan.seed == 7
        kill, corrupt = plan.specs
        assert kill.at == 2
        assert corrupt.times == 2
        assert corrupt.param("mode") == "garble"

    def test_describe_round_trips(self):
        text = "worker-hang@1:seconds=3;slow-io:ms=5;seed=9"
        plan = faults.FaultPlan.parse(text)
        again = faults.FaultPlan.parse(plan.describe())
        assert again == plan

    def test_whitespace_and_empty_tokens_tolerated(self):
        plan = faults.FaultPlan.parse(" stale-lock ; ; seed=3 ")
        assert plan.specs[0].kind == "stale-lock"
        assert plan.seed == 3

    @pytest.mark.parametrize("bad", [
        "", ";;", "seed=7",                 # no fault declared
        "warble",                           # unknown kind
        "worker-kill@0",                    # 1-based target
        "worker-kill:times=0",              # zero budget
        "worker-kill@x",                    # non-integer target
        "slow-io:ms",                       # option without '='
        "worker-kill;seed=x",               # bad seed
    ])
    def test_rejects(self, bad):
        with pytest.raises(faults.PlanError):
            faults.FaultPlan.parse(bad)

    def test_plan_error_is_value_error(self):
        assert issubclass(faults.PlanError, ValueError)


class TestActivation:
    def test_activate_from_text(self):
        active = faults.activate("noop")
        assert faults.active() is active
        assert faults.ACTIVE is active

    def test_deactivate(self):
        faults.activate("noop")
        faults.deactivate()
        assert faults.active() is None

    def test_activate_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "noop;seed=4")
        active = faults.activate_from_env()
        assert active.plan.seed == 4
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.activate_from_env() is None

    def test_reactivation_refreshes_budget(self):
        active = faults.activate("corrupt-archive")
        assert active.corrupt_store("x.pkl", b"payload") != b"payload"
        assert active.corrupt_store("x.pkl", b"payload") == b"payload"
        active = faults.activate(active)  # same plan, fresh budget
        assert active.corrupt_store("x.pkl", b"payload") != b"payload"


# -- seeded worker targeting -------------------------------------------

class TestWorkerTargets:
    def test_pinned_target(self):
        active = faults.activate("worker-kill@2")
        assert active.worker_targets(5) == {1: 0}

    def test_pinned_target_wraps(self):
        active = faults.activate("worker-kill@7")
        assert active.worker_targets(3) == {0: 0}

    def test_seeded_selection_is_deterministic(self):
        picks = {faults.ActivePlan(
            faults.FaultPlan.parse("worker-kill;seed=7")
        ).worker_targets(10)[_seeded_index(7, "worker-kill", 10) - 1]
            for _ in range(5)}
        assert picks == {0}

    def test_different_seeds_can_differ(self):
        hits = {
            next(iter(faults.ActivePlan(
                faults.FaultPlan.parse(f"worker-kill;seed={s}")
            ).worker_targets(50)))
            for s in range(20)
        }
        assert len(hits) > 1

    def test_budget_consumed_once(self):
        active = faults.activate("worker-raise")
        (target_idx, spec_idx), = active.worker_targets(4).items()
        assert active.take_worker_fault(spec_idx) == ("worker-raise", {})
        assert active.take_worker_fault(spec_idx) is None
        assert faults.LEDGER.count("injected", "worker-raise") == 1

    def test_non_worker_kinds_not_routed(self):
        active = faults.activate("corrupt-archive;slow-io")
        assert active.worker_targets(4) == {}


# -- in-process hooks --------------------------------------------------

class TestHooks:
    def test_corrupt_truncate_and_garble(self):
        data = bytes(range(256)) * 4
        truncated = _corrupt_bytes(data, "truncate")
        assert len(truncated) < len(data)
        assert data.startswith(truncated)
        garbled = _corrupt_bytes(data, "garble")
        assert len(garbled) == len(data) and garbled != data

    def test_slow_io_budgeted(self):
        active = faults.activate("slow-io:ms=1,times=2")
        active.on_io("load")
        active.on_io("load")
        active.on_io("load")
        assert faults.LEDGER.count("injected", "slow-io") == 2

    def test_stale_lock_planted_with_dead_owner(self, tmp_path):
        active = faults.activate("stale-lock")
        lock_path = str(tmp_path / "entry.pkl.lock")
        active.on_lock_acquire(lock_path)
        assert os.path.exists(lock_path)
        pid = int(open(lock_path).read())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        # budget spent: a second acquisition is left alone
        os.unlink(lock_path)
        active.on_lock_acquire(lock_path)
        assert not os.path.exists(lock_path)

    def test_noop_counts_checks_only(self):
        active = faults.activate("noop")
        active.on_io("load")
        active.corrupt_store("x", b"data")
        assert active.checks == 2
        assert faults.LEDGER.total("injected") == 0

    def test_dead_pid_is_dead(self):
        pid = _dead_pid()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestLedger:
    def test_diff_and_absorb(self):
        ledger = faults.FaultLedger()
        before = ledger.snapshot()
        ledger.note("injected", "slow-io")
        ledger.note("recovered", "retry")
        ledger.note("recovered", "retry")
        delta = faults.FaultLedger.diff(ledger.snapshot(), before)
        assert delta == {"injected": {"slow-io": 1},
                         "recovered": {"retry": 2}}
        other = faults.FaultLedger()
        other.absorb(delta)
        assert other.count("recovered", "retry") == 2

    def test_empty_delta_dropped(self):
        snap = faults.LEDGER.snapshot()
        assert faults.FaultLedger.diff(snap, snap) == {}

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            faults.LEDGER.note("bogus", "x")

    def test_disabled_overhead_measurable(self):
        result = faults.measure_disabled_overhead(iters=10_000)
        assert result["check_ns"] > 0

    def test_overhead_refuses_active_layer(self):
        faults.activate("noop")
        with pytest.raises(RuntimeError):
            faults.measure_disabled_overhead(iters=10)


# -- cache integration -------------------------------------------------

class TestCacheInjection:
    def test_corrupt_store_quarantined_on_load(self, tmp_path):
        path = str(tmp_path / "runs" / "x.pkl")
        faults.activate("corrupt-archive")
        cache.store("runs", path, b"A" * 300)
        faults.deactivate()
        before = cache.STATS.snapshot()
        # ``bytes`` decodes anything, so only the digest can reject it.
        assert cache.lookup("runs", path, bytes) is None
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta["corrupt"] == 1 and delta["quarantined"] == 1
        assert os.listdir(tmp_path / "quarantine") == ["x.pkl"]

    def test_clean_store_verifies(self, tmp_path):
        path = str(tmp_path / "runs" / "x.pkl")
        cache.store("runs", path, b"A" * 300)
        assert cache.lookup("runs", path, bytes) == b"A" * 300

    def test_stale_lock_broken_during_store(self, tmp_path, monkeypatch):
        path = str(tmp_path / "runs" / "x.pkl")
        # A malformed timeout fails the store loudly, not as 10 s.
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "ten")
        with pytest.raises(ValueError, match="REPRO_LOCK_TIMEOUT"):
            cache.store("runs", path, b"payload")
        assert not os.path.exists(path)
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "5")
        faults.activate("stale-lock")
        before = cache.STATS.snapshot()
        cache.store("runs", path, b"payload")
        delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
        assert delta.get("locks_broken", 0) >= 1
        assert faults.LEDGER.count("injected", "stale-lock") == 1
        assert faults.LEDGER.count("recovered", "lock_break") == 1
        assert cache.lookup("runs", path, bytes) == b"payload"


# -- end-to-end determinism (the chaos-CI contract) --------------------

def _run_cli(out_path, cache_dir, plan=None, timeout=240):
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_OBS", None)
    cmd = [sys.executable, "-m", "repro.experiments", "fig3",
           "--scale", "s0", "--benchmarks", "db",
           "--jobs", "2", "--cache-dir", str(cache_dir),
           "--json", str(out_path)]
    if plan:
        cmd += ["--faults", plan]
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          cwd=os.path.dirname(os.path.dirname(__file__)),
                          timeout=timeout)


@pytest.mark.slow
class TestFaultedRunDeterminism:
    def test_worker_kill_run_matches_clean_run(self, tmp_path):
        clean = tmp_path / "clean.json"
        proc = _run_cli(clean, tmp_path / "c0")
        assert proc.returncode == 0, proc.stderr
        chaos = tmp_path / "chaos.json"
        proc = _run_cli(chaos, tmp_path / "c1", plan="worker-kill@1;seed=7")
        assert proc.returncode == 0, proc.stderr
        assert filecmp.cmp(str(clean), str(chaos), shallow=False)
        manifest = json.loads(
            (tmp_path / "chaos.manifest.json").read_text())
        report = manifest["faults"]
        assert report["plan"] == "worker-kill@1;seed=7"
        assert sum(report["injected"].values()) >= 1
        assert sum(report["recovered"].values()) >= 1
        clean_manifest = json.loads(
            (tmp_path / "clean.manifest.json").read_text())
        assert clean_manifest["faults"]["plan"] is None
        assert sum(clean_manifest["faults"]["injected"].values()) == 0
