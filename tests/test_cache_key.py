"""Property-based tests for the content-addressed cache.

The cache key must be a pure function of (source digest, job config):
identical inputs always produce identical keys, and *any* change to a
trace-affecting module source or to any config field must change the
key.  Corrupt or truncated archives are detected and recomputed, never
crashed on — and the cache directory is resolved from the environment
at call time, so tests can redirect it per-test.
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cache
from repro.analysis.runner import get_trace, run_vm
from repro.native.trace import _COLUMNS as TRACE_COLUMNS
from repro.sync import LOCK_MANAGERS
from repro.vm import RunConfig
from repro.vm.config import STRESS_TIERED

from helpers import observables

# -- key properties ----------------------------------------------------

_field_values = st.one_of(
    st.text(max_size=12),
    st.integers(-1000, 1000),
    st.booleans(),
    st.none(),
    st.lists(st.text(max_size=6), max_size=4),
)
_configs = st.dictionaries(
    # "root" is cache_key's source-tree parameter, not a config field.
    st.text(st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=10).filter(lambda k: k != "root"),
    _field_values,
    min_size=1,
    max_size=6,
)


#: Values for each RunConfig field (the policy fields come from
#: ``_run_configs``).
_RUN_FIELDS = {
    "jit_opt": st.booleans(),
    "lock_elision": st.booleans(),
    "inline": st.booleans(),
    "folding": st.booleans(),
    "record": st.booleans(),
    "lock_manager": st.sampled_from(sorted(LOCK_MANAGERS)),
    "static_concurrency": st.booleans(),
    "track_confinement": st.booleans(),
    "spawn_daemons": st.booleans(),
    "quantum": st.integers(1, 10_000),
    "heap_limit": st.integers(1, 1 << 40),
    "max_bytecodes": st.integers(1, 10**12),
}
_ratios = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
_names = st.from_regex(r"[A-Za-z/$]{1,8}\.[a-z<>]{1,6}", fullmatch=True)
_policies = st.one_of(
    st.builds(lambda t: RunConfig(threshold=t),
              st.none() | st.integers(1, 10**6)),
    st.builds(lambda t1, extra, osr, edges, ratio, screen: RunConfig(
        policy="tiered", t1_invocations=t1, t2_invocations=t1 + extra,
        osr_backedges=osr, t2_backedges=edges, compile_ratio=ratio,
        t2_screen=screen),
        st.integers(1, 100), st.integers(1, 100), st.integers(1, 1000),
        st.integers(1, 10_000), _ratios, st.booleans()),
    st.builds(lambda names: RunConfig(policy="oracle", compile_set=names),
              st.frozensets(_names, max_size=4)),
)
_run_configs = st.builds(lambda base, **fields: base.replace(**fields),
                         _policies, **_RUN_FIELDS)


def _run_key(config: RunConfig) -> str:
    """The run-cache key ``run_vm`` files ``config`` under."""
    return cache.cache_key("run", workload="db", scale="s0",
                           config=config.token)


class TestKeyProperties:
    @settings(max_examples=50, deadline=None)
    @given(_configs)
    def test_same_config_same_key(self, config):
        assert (cache.cache_key("trace", **config)
                == cache.cache_key("trace", **config))

    @settings(max_examples=50, deadline=None)
    @given(_configs, st.data())
    def test_any_field_change_changes_key(self, config, data):
        field = data.draw(st.sampled_from(sorted(config)))
        new_value = data.draw(_field_values.filter(
            lambda v, old=config[field]: v != old))
        changed = dict(config, **{field: new_value})
        assert (cache.cache_key("run", **config)
                != cache.cache_key("run", **changed))

    @settings(max_examples=20, deadline=None)
    @given(_configs)
    def test_kind_is_part_of_the_key(self, config):
        assert (cache.cache_key("trace", **config)
                != cache.cache_key("run", **config))

    @settings(max_examples=200, deadline=None)
    @given(_run_configs)
    def test_run_config_token_round_trips(self, config):
        assert RunConfig.parse(config.token) == config

    @settings(max_examples=200, deadline=None)
    @given(_run_configs, _run_configs, st.data())
    def test_distinct_run_configs_get_distinct_keys(self, a, b, data):
        """Two unrelated configs, and one config against a copy with a
        single field nudged (the near-duplicates a lossy token would
        merge), never share a run-cache entry."""
        name = data.draw(st.sampled_from(sorted(_RUN_FIELDS)))
        nudged = a.replace(**{name: data.draw(_RUN_FIELDS[name])})
        if a.policy == "tiered":
            ratio = a.compile_ratio
            nudged = nudged.replace(compile_ratio=data.draw(st.sampled_from(
                [ratio, math.nextafter(ratio, 0), ratio * (1 + 1e-7)])))
        for other in (b, nudged):
            assert (a == other) == (_run_key(a) == _run_key(other))

    def test_added_and_removed_fields_change_key(self):
        base = cache.cache_key("run", workload="db", scale="s1")
        assert base != cache.cache_key("run", workload="db", scale="s1",
                                       inline=True)
        assert base != cache.cache_key("run", workload="db")


# -- source digest -----------------------------------------------------

def _fake_source_tree(root, content=b"x = 1\n"):
    vm = os.path.join(str(root), "vm")
    os.makedirs(vm, exist_ok=True)
    with open(os.path.join(vm, "machine.py"), "wb") as fh:
        fh.write(content)
    return str(root)


class TestSourceDigest:
    def test_stable_for_identical_tree(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        first = cache.source_digest(root)
        cache.reset_source_digest()
        assert cache.source_digest(root) == first

    def test_source_edit_changes_digest_and_key(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        before = cache.source_digest(root)
        key_before = cache.cache_key("trace", root=root, workload="db")
        _fake_source_tree(tmp_path, content=b"x = 2\n")
        cache.reset_source_digest()
        after = cache.source_digest(root)
        assert after != before
        assert cache.cache_key("trace", root=root, workload="db") != key_before

    def test_new_module_changes_digest(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        before = cache.source_digest(root)
        with open(os.path.join(root, "vm", "jit.py"), "wb") as fh:
            fh.write(b"y = 3\n")
        cache.reset_source_digest()
        assert cache.source_digest(root) != before

    def test_non_trace_affecting_files_ignored(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        before = cache.source_digest(root)
        os.makedirs(os.path.join(root, "experiments"), exist_ok=True)
        with open(os.path.join(root, "experiments", "fig1.py"), "wb") as fh:
            fh.write(b"z = 4\n")
        cache.reset_source_digest()
        assert cache.source_digest(root) == before

    def test_real_package_digest_covers_the_vm(self):
        files = cache.trace_affecting_files()
        names = {os.path.basename(f) for f in files}
        assert {"machine.py", "interpreter.py", "trace.py",
                "runner.py"} <= names
        assert all(f.endswith(".py") for f in files)


# -- corruption recovery ----------------------------------------------

class TestCorruptArchives:
    def _trace_path(self, cache_dir):
        key = cache.cache_key("run", workload="hello", scale="s0",
                              config="interp")
        return cache.entry_path(cache_dir, "traces", "hello-s0-interp", key)

    def test_corrupt_trace_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        path = self._trace_path(cache_dir)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"this is not an npy archive")
        cache.reset_stats()
        recovered = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert recovered.n == fresh.n
        assert (recovered.pc == fresh.pc).all()
        assert cache.STATS.corrupt == 1
        # The recomputed archive replaced the corrupt one and loads again.
        cache.reset_stats()
        get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert cache.STATS.trace_hits == 1
        assert cache.STATS.corrupt == 0

    def test_truncated_trace_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        path = self._trace_path(cache_dir)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        cache.reset_stats()
        recovered = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert recovered.n == fresh.n
        assert cache.STATS.corrupt == 1

    def test_corrupt_run_result_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh = run_vm("hello", "s0", "interp", cache_dir=cache_dir)
        runs = os.path.join(cache_dir, "runs")
        pkls = [f for f in os.listdir(runs) if f.endswith(".pkl")]
        assert len(pkls) == 1
        path = os.path.join(runs, pkls[0])
        with open(path, "wb") as fh:
            fh.write(pickle.dumps({"not": "a VMResult"})[:-4])
        cache.reset_stats()
        recovered = run_vm("hello", "s0", "interp", cache_dir=cache_dir)
        assert recovered.stdout == fresh.stdout
        assert recovered.cycles == fresh.cycles
        assert cache.STATS.corrupt == 1


# -- cached results are indistinguishable ------------------------------

class TestRoundTrip:
    def test_cached_run_equals_fresh_run(self, tmp_path):
        cold = run_vm("db", "s0", "jit", cache_dir=str(tmp_path))
        warm = run_vm("db", "s0", "jit", cache_dir=str(tmp_path))
        assert warm.stdout == cold.stdout
        assert warm.cycles == cold.cycles
        assert warm.translate_cycles == cold.translate_cycles
        assert (warm.category_counts == cold.category_counts).all()
        assert warm.footprint == cold.footprint

    def test_recording_stores_its_trace_and_run(self, tmp_path):
        """A recording files its trace and its run result under one
        key."""
        result = run_vm("hello", "s0", "interp,record=True",
                        cache_dir=str(tmp_path))
        assert result.trace is not None
        (trace,) = [f for f in os.listdir(tmp_path / "traces")
                    if f.endswith(cache.NAMESPACES["traces"].ext)]
        (run,) = [f for f in os.listdir(tmp_path / "runs")
                  if f.endswith(".pkl")]
        assert os.path.splitext(trace)[0] == os.path.splitext(run)[0]

    def test_close_ratios_get_their_own_entries(self, tmp_path):
        """Two ladders whose ratios agree to six digits are two runs: the
        second must not be served the first one's cached result."""
        results = [run_vm("hello", "s0", RunConfig(
            policy="tiered", t2_backedges=32, compile_ratio=ratio),
            cache_dir=str(tmp_path)) for ratio in (0.1234567, 0.1234568)]
        assert (results[0].strategy_config["compile_ratio"]
                != results[1].strategy_config["compile_ratio"])


# -- one cached execution per (workload, scale, config) ----------------

def _count_vm_runs(monkeypatch) -> dict:
    """Count ``JavaVM.run`` calls from here on."""
    from repro.vm import JavaVM
    calls = {"n": 0}

    def counted(self, *args, _real=JavaVM.run, **kwargs):
        calls["n"] += 1
        return _real(self, *args, **kwargs)
    monkeypatch.setattr(JavaVM, "run", counted)
    return calls


class TestOneExecution:
    def test_archive_trace_never_serves_archive_off_callers(
            self, tmp_path, monkeypatch):
        """A recording made against a code archive is not stored: a
        warm archive halves db's translate events, so serving its trace
        to an archive-off caller would hand it another run's trace."""
        archive = str(tmp_path / "archive")
        cache_dir = str(tmp_path / "cache")
        run_vm("db", "s0", "jit", cache_dir="", code_archive=archive)
        monkeypatch.setenv("REPRO_CODE_ARCHIVE", archive)
        get_trace("db", "s0", "jit", cache_dir=cache_dir)
        monkeypatch.delenv("REPRO_CODE_ARCHIVE")
        served = get_trace("db", "s0", "jit", cache_dir=cache_dir)
        fresh = get_trace("db", "s0", "jit", cache_dir="")
        assert served.n == fresh.n
        for column in TRACE_COLUMNS:
            assert np.array_equal(getattr(served, column),
                                  getattr(fresh, column)), column

    @pytest.mark.parametrize("workload,config",
                             [("hello", "jit"), ("db", "interp")])
    def test_recording_serves_the_counting_run(self, workload, config,
                                               tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
        cache_dir = str(tmp_path)
        fresh = run_vm(workload, "s0", config, cache_dir="")
        calls = _count_vm_runs(monkeypatch)
        get_trace(workload, "s0", config, cache_dir=cache_dir)
        assert calls["n"] == 1
        counted = run_vm(workload, "s0", config, cache_dir=cache_dir)
        assert calls["n"] == 1
        assert counted.trace is None
        assert observables(counted) == observables(fresh)

    def test_stored_counting_run_records_once(self, tmp_path, monkeypatch):
        """A counting run leaves the trace missing: the first recording
        executes (and stores it); later ones are served."""
        monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
        cache_dir = str(tmp_path)
        calls = _count_vm_runs(monkeypatch)
        run_vm("hello", "s0", "interp", cache_dir=cache_dir)
        assert calls["n"] == 1
        first = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert calls["n"] == 2
        again = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        run_vm("hello", "s0", "interp", cache_dir=cache_dir)
        assert calls["n"] == 2
        assert again.n == first.n and (again.pc == first.pc).all()


# -- every run spelling in use before RunConfig -------------------------

#: Each spelling the runner accepted before ``RunConfig`` (as a comment),
#: the config it is now, and the ``strategy_config`` it produced then,
#: less the removed ``speculate`` key.  The tuple form's ladder used
#: ``t2_backedges = 8 * osr``; the bare ``"tiered"`` uses 512.
_TIERED = {"name": "tiered", "t1_invocations": 2, "t2_invocations": 64,
           "osr_backedges": 4, "t2_backedges": 512, "compile_ratio": 0.125,
           "t2_screen": True}
SPELLINGS = [
    # "interp"
    ("interp", {"name": "interp"}),
    # "jit"
    ("jit", {"name": "jit"}),
    # "tiered"
    ("tiered", _TIERED),
    # "oracle"
    ("oracle", {"name": "oracle", "compile_set_size": 0}),
    # ("counter", 4)
    ("counter4", {"name": "counter", "threshold": 4}),
    # ("tiered", 2, 3, 4)
    ("tiered,t2_invocations=3,t2_backedges=32",
     dict(_TIERED, t2_invocations=3, t2_backedges=32)),
    # ("tiered", 2, 64, 4, 0.5)
    ("tiered,t2_backedges=32,compile_ratio=0.5",
     dict(_TIERED, t2_backedges=32, compile_ratio=0.5)),
    # mode="interp", folding=True
    ("interp,folding=True", {"name": "interp"}),
    # the fuzz oracle's TieredStrategy(t2_invocations=3, t2_backedges=8,
    # compile_ratio=0.01, t2_screen=False)
    (STRESS_TIERED.token,
     dict(_TIERED, t2_invocations=3, t2_backedges=8, compile_ratio=0.01,
          t2_screen=False)),
]


@pytest.mark.parametrize("token,expected", SPELLINGS,
                         ids=[t for t, _ in SPELLINGS])
def test_spelling_keeps_its_strategy_config(token, expected):
    result = run_vm("hello", "s0", token, cache_dir="", code_archive="")
    assert result.strategy == expected["name"]
    assert result.strategy_config == expected
    assert RunConfig.parse(token).token == token


# -- call-time environment resolution (the DEFAULT_CACHE_DIR fix) ------

class TestCallTimeCacheDir:
    def test_env_redirect_after_import(self, tmp_path, monkeypatch):
        """REPRO_TRACE_CACHE is honoured per call, not frozen at import."""
        target = tmp_path / "redirected"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(target))
        assert cache.resolve_dir(None) == str(target)
        get_trace("hello", "s0", "interp")
        assert (target / "traces").is_dir()
        assert any(f.endswith(cache.NAMESPACES["traces"].ext)
                   for f in os.listdir(target / "traces"))

    def test_empty_env_disables_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        assert cache.resolve_dir(None) is None
        monkeypatch.chdir(tmp_path)
        get_trace("hello", "s0", "interp")
        assert not os.path.exists(tmp_path / ".trace_cache")

    def test_explicit_empty_arg_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "env"))
        get_trace("hello", "s0", "interp", cache_dir="")
        assert not os.path.exists(tmp_path / "env")

    def test_resolve_dir_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "/env/dir")
        assert cache.resolve_dir(None) == "/env/dir"
        assert cache.resolve_dir("/explicit") == "/explicit"
        assert cache.resolve_dir("") is None
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert cache.resolve_dir(None) == ".trace_cache"
