"""The compiled pipeline scheduler against the Python reference.

:mod:`repro.arch.compiled` runs :func:`_schedule`'s recurrence in C.
The hypothesis suite drives both over random
:class:`EventColumns` (ROB wrap-around, ``_CHUNK`` boundaries, the
absent-register slots, every fetch-word bit, every compacted dtype);
the rest covers the store row the shared object of all three replay
kernels is built into and its failure paths: a corrupt entry, no
compiler, two processes building at once.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import cache
from repro.arch.pipeline import PipelineConfig, simulate_pipeline
from repro.arch import compiled
from repro.arch.pipeline.superscalar import (
    _CHUNK, _NO_DST, _NO_SRC, EventColumns, _compact, _schedule)
from repro.native.nisa import FLAG_TAKEN, NCat
from repro.native.trace import Trace
from repro.obs import build_manifest

needs_cc = pytest.mark.skipif(compiled.find_compiler() is None,
                              reason="no C compiler on this host")

FIELDS = ("instructions", "cycles", "mispredicts", "imisses", "dmisses")

#: Every dtype ``_compact`` can give a non-negative column.
DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty store directory, with the loaded kernels forgotten
    before and after so each test resolves its own."""
    monkeypatch.setenv(cache.CACHE_ENV, str(tmp_path))
    compiled.reset()
    yield tmp_path
    compiled.reset()


def _columns(seed: int, n: int, lat_max: int, dtype) -> EventColumns:
    """Random scheduler columns: about a third of the operands read or
    write the absent-register slots; fetch words mix clean events,
    disruptions with and without bit 0, and raw words."""
    rng = np.random.default_rng(seed)
    stall = rng.integers(0, 13, n)
    word = 4 * stall + 2 + rng.integers(0, 2, n)
    fetch = np.where(rng.random(n) < 0.3, word, 0)
    fetch = np.where(rng.random(n) < 0.05, rng.integers(0, 256, n), fetch)

    def regs(absent):
        return np.where(rng.random(n) < 0.3, absent, rng.integers(0, 33, n))

    cols = (fetch, rng.integers(0, lat_max + 1, n), regs(_NO_DST),
            regs(_NO_SRC), regs(rng.choice([_NO_SRC, _NO_DST], n)))
    cast = _compact if dtype is None else (lambda c: c.astype(dtype))
    return EventColumns(*(cast(c) for c in cols),
                        int(rng.integers(0, 13)), 0, 0, 0)


sizes = st.one_of(
    st.sampled_from([0, 1, 2]),
    st.integers(3, 400),
    st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7]),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=sizes,
       width=st.integers(1, 8),
       rob=st.one_of(st.sampled_from(["n", "n+1", "big"]),
                     st.integers(1, 70)),
       lat_max=st.sampled_from([20, 300, 70_000, 2**33]),
       dtype=st.sampled_from((None,) + DTYPES))
@needs_cc
def test_c_matches_python(seed, n, width, rob, lat_max, dtype):
    if dtype is not None and lat_max > np.iinfo(dtype).max:
        lat_max = 20
    rob_size = {"n": max(n, 1), "n+1": n + 1,
                "big": 3 * n + 100}.get(rob, rob)
    cols = _columns(seed, n, lat_max, dtype)
    assert compiled.schedule(cols, width, rob_size) == _schedule(
        cols, width, rob_size)


def test_out_of_range_columns_take_the_python_path():
    assert compiled.NREGS == _NO_DST + 1
    ok = _columns(0, 50, 20, np.uint8)
    bad_reg = ok._replace(src1=ok.src1.astype(np.uint16) + 35)
    huge = ok._replace(lat=ok.lat.astype(np.uint64) + (1 << 62))
    short = ok._replace(dst=ok.dst[:-1])
    for cols in (bad_reg, huge, short):
        assert compiled.schedule(cols, 4, 8) is None
    assert compiled.schedule(ok, 0, 8) is None
    assert compiled.schedule(ok, 4, 0) is None


def _trace(n: int = 3000) -> Trace:
    rng = np.random.default_rng(5)
    cat = rng.integers(0, len(NCat), n)
    return Trace.from_columns(
        pc=rng.integers(0, 1 << 10, n) * 4, cat=cat,
        ea=rng.integers(0, 1 << 12, n) * 8,
        flags=np.where(rng.random(n) < 0.5, FLAG_TAKEN, 0),
        target=rng.integers(0, 64, n) * 4, dst=rng.integers(-1, 32, n),
        src1=rng.integers(-1, 32, n), src2=rng.integers(-1, 32, n))


def _fields(result) -> list:
    return [getattr(result, f) for f in FIELDS]


def _reference(trace, config=None) -> list:
    return _fields(simulate_pipeline(trace, config, kernel="scalar"))


@needs_cc
def test_disabled_store_still_runs_c(monkeypatch):
    """Tier-1 runs with the store disabled: the kernels are built into
    a private directory, so the pin and parity suites exercise C."""
    monkeypatch.setenv(cache.CACHE_ENV, "")
    compiled.reset()
    trace = _trace()
    assert _fields(simulate_pipeline(trace, kernel="vector")) == \
        _reference(trace)
    assert compiled.IMPLEMENTATIONS["pipeline"] == "c"
    assert glob.glob(os.path.join(compiled._private_root, "kernels",
                                  "replay-*.so"))
    assert build_manifest("t")["compiled"]["pipeline"] == "c"


@needs_cc
def test_build_lands_in_the_store(store):
    before = cache.STATS.snapshot()
    trace = _trace()
    assert _fields(simulate_pipeline(trace, kernel="vector")) == \
        _reference(trace)
    entries = glob.glob(str(store / "kernels" / "replay-*.so"))
    assert [os.path.basename(p) for p in entries] == [
        f"replay-{compiled.KEY[:16]}.so"]
    assert os.path.exists(entries[0] + ".sha256")
    delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
    assert (delta["kernel_misses"], delta["kernel_stores"],
            delta["kernel_hits"]) == (1, 1, 1)
    compiled.reset()
    simulate_pipeline(trace, kernel="vector")
    delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
    assert (delta["kernel_stores"], delta["kernel_hits"]) == (1, 2)


@needs_cc
@pytest.mark.parametrize("damage", ["truncate", "garble"])
def test_corrupt_entry_is_quarantined_and_rebuilt(store, damage):
    trace = _trace()
    expected = _reference(trace)
    simulate_pipeline(trace, kernel="vector")
    (path,) = glob.glob(str(store / "kernels" / "replay-*.so"))
    with open(path, "rb") as fh:
        good = fh.read()
    bad = (good[:len(good) // 3] if damage == "truncate"
           else good[:100] + bytes(64) + good[164:])
    # A fresh file (new inode): the loaded object's pages stay intact.
    with open(path + ".new", "wb") as fh:
        fh.write(bad)
    os.replace(path + ".new", path)
    before = cache.STATS.snapshot()
    compiled.reset()
    assert _fields(simulate_pipeline(trace, kernel="vector")) == expected
    assert compiled.IMPLEMENTATIONS["pipeline"] == "c"
    delta = cache.CacheStats.diff(cache.STATS.snapshot(), before)
    assert (delta["quarantined"], delta["kernel_stores"]) == (1, 1)
    assert os.listdir(store / "quarantine") == [os.path.basename(path)]
    with open(path, "rb") as fh:
        assert fh.read() == good


@needs_cc
def test_unloadable_entry_without_digest_is_rebuilt(store):
    """An entry with no sidecar that the loader rejects is corrupt too."""
    path = cache.entry_path(str(store), "kernels", "replay", compiled.KEY)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        fh.write(b"not an ELF object")
    trace = _trace()
    assert _fields(simulate_pipeline(trace, kernel="vector")) == \
        _reference(trace)
    assert compiled.IMPLEMENTATIONS["pipeline"] == "c"
    assert os.listdir(store / "quarantine") == [os.path.basename(path)]


def test_no_compiler_falls_back_to_python(store, monkeypatch):
    monkeypatch.setattr(compiled, "find_compiler", lambda: None)
    trace = _trace()
    config = PipelineConfig(width=2, rob_size=8)
    result = simulate_pipeline(trace, config, kernel="vector")
    assert vars(result) == vars(
        simulate_pipeline(trace, config, kernel="scalar"))
    assert compiled.IMPLEMENTATIONS["pipeline"] == "python"
    assert build_manifest("t")["compiled"]["pipeline"] == "python"
    assert not glob.glob(str(store / "kernels" / "*.so"))


_BUILD_AT_FIRST_USE = """
import numpy as np
from repro.analysis import cache
from repro.arch.pipeline import simulate_pipeline
from repro.arch.compiled import IMPLEMENTATIONS
from repro.native.trace import Trace
n = 500
simulate_pipeline(Trace.from_columns(
    pc=np.arange(n) * 4, cat=np.ones(n, dtype=np.int64), ea=np.zeros(n),
    flags=np.zeros(n), target=np.zeros(n), dst=np.full(n, 3),
    src1=np.full(n, 3), src2=np.full(n, -1)), kernel="vector")
print(IMPLEMENTATIONS["pipeline"], cache.STATS.kernel_stores)
"""


@needs_cc
def test_two_processes_building_store_one_entry(tmp_path):
    env = dict(os.environ, REPRO_TRACE_CACHE=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(os.path.dirname(os.path.dirname(
                       os.path.abspath(__file__))), "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    procs = [subprocess.Popen([sys.executable, "-c", _BUILD_AT_FIRST_USE],
                              env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outputs = [proc.communicate(timeout=120)[0].split() for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert sorted(outputs) == [["c", "0"], ["c", "1"]]
    names = sorted(os.listdir(tmp_path / "kernels"))
    assert [n for n in names if not n.endswith(".sha256")] == [
        f"replay-{compiled.KEY[:16]}.so"]
    assert not [n for n in names if n.startswith(".tmp-")
                or n.endswith(".lock")]


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["width", "rob_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    def test_columns_key_ignores_scheduler_fields(self):
        a = PipelineConfig(width=1, rob_size=8)
        b = PipelineConfig(width=8, rob_size=64)
        assert a.columns_key() == b.columns_key()
        assert a.columns_key() != PipelineConfig(
            width=1, rob_size=8, imiss_penalty=9).columns_key()
