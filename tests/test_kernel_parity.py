"""Scalar-vs-vector kernel equivalence (property-based).

The vector replay kernels, whose serial loops run in C
(:mod:`repro.arch.compiled`), must be *bit-identical* to the scalar
reference loops — every statistics field and every mask, on
adversarial streams hypothesis invents: mixed read/write streams,
statistic groups, miss windows, victim buffers, write-no-allocate
caches, aliasing branch-target-buffer slots and overflowing
return-address stacks.  Each case also checks which implementation
ran, so a silent fallback to the reference cannot pass for C.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import cache
from repro.arch import compiled
from repro.arch.branch import compare_predictors
from repro.arch.branch.predictors import (
    PREDICTORS,
    BimodalBHT,
    BranchSimResult,
    DirectionPredictor,
    GAp,
    Gshare,
    replay,
    run_predictor,
)
from repro.arch.caches import CacheConfig, simulate, simulate_split_l1
from repro.arch.kernels import ENV_VAR, active_kernel
from repro.arch.pipeline import PipelineConfig, ipc_by_width, simulate_pipeline
from repro.arch.pipeline.superscalar import event_columns
from repro.native.nisa import FLAG_TAKEN, FLAG_WRITE, NCat
from repro.native.trace import _COLUMNS as TRACE_COLUMNS
from repro.native.trace import Trace
from repro.obs import build_manifest

HAVE_CC = compiled.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- strategies --------------------------------------------------------

geometries = st.tuples(
    st.sampled_from([256, 512, 1024, 4096]),   # size
    st.sampled_from([16, 32]),                  # block
    st.sampled_from([1, 2, 4, 8, 64]),          # assoc
    st.booleans(),                              # write_allocate
    st.sampled_from([0, 2, 4]),                 # victim_entries
).map(lambda g: (max(g[0], g[1] * g[2]),) + g[1:])  # at least one set

# Few distinct blocks relative to the cache → constant conflict churn.
addr_streams = st.lists(
    st.tuples(st.integers(0, 1 << 13), st.booleans()),
    min_size=0, max_size=300,
)


def _config(geometry) -> CacheConfig:
    size, block, assoc, wa, victim = geometry
    return CacheConfig(size, block, assoc, write_allocate=wa,
                       victim_entries=victim)


def _run(config, stream, kernel, n_groups=1, window=0):
    if not stream:
        addrs = np.zeros(0, dtype=np.int64)
        writes = np.zeros(0, dtype=bool)
    else:
        addrs = np.asarray([a for a, _ in stream], dtype=np.int64)
        writes = np.asarray([w for _, w in stream], dtype=bool)
    groups = (addrs % n_groups).astype(np.int64) if n_groups > 1 else None
    stats = simulate(config, addrs, writes=writes, groups=groups,
                     n_groups=n_groups, window=window, kernel=kernel)
    if kernel == "vector":
        assert compiled.IMPLEMENTATIONS["caches"] == (
            "c" if HAVE_CC else "python"), config
    return stats


def _assert_stats_equal(a, b, context=""):
    for field in ("refs", "misses", "victim_hits", "write_refs",
                  "write_misses", "compulsory", "window_misses",
                  "window_refs", "miss"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), (
            f"{context}: CacheStats.{field} diverges: "
            f"{getattr(a, field)} != {getattr(b, field)}"
        )


# -- cache kernels -----------------------------------------------------

#: One 64-way set filled, its first 40 ways touched again, then 10
#: new blocks: each evicts a way past the 32nd, where the LRU way now is.
WIDE_LRU = ([(16 * b, False) for b in range(64)]
            + [(16 * b, False) for b in range(40)]
            + [(16 * b, False) for b in range(100, 110)])


class TestCacheParity:
    @RELAXED
    @given(geometry=geometries, stream=addr_streams,
           n_groups=st.sampled_from([1, 2, 3]),
           window=st.sampled_from([0, 7, 64]))
    @example(geometry=(1024, 16, 64, True, 0), stream=WIDE_LRU, n_groups=1,
             window=0)
    def test_single_run(self, geometry, stream, n_groups, window):
        config = _config(geometry)
        s = _run(config, stream, "scalar", n_groups, window)
        v = _run(config, stream, "vector", n_groups, window)
        _assert_stats_equal(s, v, f"{geometry}")


# -- branch kernels ----------------------------------------------------

_TRANSFER_CATS = tuple(int(c) for c in (
    NCat.BRANCH, NCat.JUMP, NCat.IJUMP, NCat.CALL, NCat.ICALL, NCat.RET,
))

#: Four pcs in each of four BTB slots: addresses 4096 bytes apart
#: share a slot of the 1024-entry BTB, so lookups meet other pcs' tags
#: (with the same target half the time), and returns often go back
#: right after a call.
_aliasing_pcs = st.integers(0, 15).map(lambda p: 4 * (p % 4) + 4096 * (p // 4))
_targets = st.one_of(st.sampled_from([0x100, 0x200]),
                     _aliasing_pcs.map(lambda pc: pc + 4))

transfer_streams = st.lists(
    st.tuples(
        _aliasing_pcs,
        st.sampled_from(_TRANSFER_CATS),
        st.booleans(),                         # taken
        _targets,
    ),
    min_size=0, max_size=250,
)

#: Two pcs in one BTB slot jumping to one target: the second lookup
#: finds the first's target under another pc's tag, a miss.
ALIASED_TAGS = [(0, int(NCat.IJUMP), True, 0x100),
                (4096, int(NCat.IJUMP), True, 0x100)]

#: Calls nested 20 deep, then their returns: the 4 outermost find the
#: 16-entry return-address stack empty.
DEEP_CALLS = ([(64 * d, int(NCat.CALL), True, 0x8000) for d in range(20)]
              + [(0x8004, int(NCat.RET), True, 64 * d + 4)
                 for d in reversed(range(20))])


def _transfers(stream):
    """(pcs, cats, takens, targets) arrays of a drawn transfer stream."""
    return (np.asarray([pc for pc, _, _, _ in stream], dtype=np.int64),
            np.asarray([c for _, c, _, _ in stream], dtype=np.int16),
            np.asarray([t for _, _, t, _ in stream], dtype=bool),
            np.asarray([t for _, _, _, t in stream], dtype=np.int64))


class StutterPredictor(DirectionPredictor):
    """Custom predictor with no predict_batch override: exercises the
    generic per-event fallback of the vector kernel."""

    name = "stutter"

    def __init__(self) -> None:
        self._last = True

    def predict(self, pc: int) -> bool:
        return self._last

    def update(self, pc: int, taken: bool) -> None:
        self._last = bool(taken)


_BRANCH_FACTORIES = dict(PREDICTORS, stutter=StutterPredictor)


def _assert_branch_equal(a: BranchSimResult, b: BranchSimResult, context=""):
    for field in ("transfers", "conditional", "cond_mispredicts",
                  "target_mispredicts", "indirect", "indirect_mispredicts"):
        assert getattr(a, field) == getattr(b, field), (
            f"{context}: BranchSimResult.{field} diverges: "
            f"{getattr(a, field)} != {getattr(b, field)}"
        )


class TestBranchParity:
    @RELAXED
    @given(stream=transfer_streams,
           name=st.sampled_from(sorted(_BRANCH_FACTORIES)))
    @example(stream=ALIASED_TAGS, name="gshare")
    @example(stream=DEEP_CALLS, name="gshare")
    def test_run_predictor(self, stream, name):
        events = _transfers(stream)
        factory = _BRANCH_FACTORIES[name]
        s = run_predictor(factory(), *events, kernel="scalar")
        v = run_predictor(factory(), *events, kernel="vector")
        _assert_branch_equal(s, v, name)

    @RELAXED
    @given(stream=transfer_streams,
           name=st.sampled_from(sorted(_BRANCH_FACTORIES)))
    @example(stream=ALIASED_TAGS, name="gshare")
    @example(stream=DEEP_CALLS, name="gshare")
    def test_replay_masks(self, stream, name):
        """Both kernels flag the same transfers, not only as many."""
        trace = _transfer_trace(stream)
        factory = _BRANCH_FACTORIES[name]
        s = replay(factory(), trace, kernel="scalar")
        v = replay(factory(), trace, kernel="vector")
        for a, b in zip(s, v):
            assert np.array_equal(a, b), name

    @RELAXED
    @given(stream=transfer_streams,
           kernel=st.sampled_from(["scalar", "vector"]))
    def test_table2_is_the_pipeline_front_end(self, stream, kernel):
        """Table 2's gshare row counts the mispredicts the pipeline
        model stalls on, whatever the call depth."""
        trace = _transfer_trace(stream)
        table2 = run_predictor(Gshare(), *trace.transfers(), kernel=kernel)
        pipeline = simulate_pipeline(trace, kernel=kernel)
        assert table2.mispredicts == pipeline.mispredicts


def _transfer_trace(stream) -> Trace:
    """A trace of nothing but the drawn transfers."""
    pcs, cats, takens, targets = _transfers(stream)
    n = len(pcs)
    return Trace.from_columns(
        pc=pcs, cat=cats, ea=np.zeros(n),
        flags=np.where(takens, FLAG_TAKEN, 0), target=targets,
        dst=np.full(n, -1), src1=np.full(n, -1), src2=np.full(n, -1))


#: The table predictors at their paper sizes, and at small sizes of no
#: particular shape, so tables and histories alias constantly.
_TABLE_PREDICTORS = dict(
    PREDICTORS,
    bht3=lambda: BimodalBHT(entries=3),
    gshare5=lambda: Gshare(entries=5, history_bits=3),
    gap3x7=lambda: GAp(l1_entries=3, l2_entries=7, history_bits=4),
)

conditional_batches = st.lists(
    st.lists(st.tuples(st.integers(0, 1 << 14), st.booleans()),
             max_size=200),
    min_size=2, max_size=2,
)


def _state(predictor):
    return predictor._table, predictor._histories


class TestCompiledPredict:
    @RELAXED
    @given(name=st.sampled_from(sorted(_TABLE_PREDICTORS)),
           batches=conditional_batches)
    @needs_cc
    def test_c_matches_per_event(self, name, batches):
        """C ``predict`` ≡ per-event predict/update, with the tables and
        histories carried from one batch into the next."""
        c_side = _TABLE_PREDICTORS[name]()
        reference = _TABLE_PREDICTORS[name]()
        for batch in batches:
            pcs = np.asarray([pc for pc, _ in batch], dtype=np.int64)
            takens = np.asarray([t for _, t in batch], dtype=bool)
            got = c_side.predict_batch(pcs, takens)
            assert compiled.IMPLEMENTATIONS["branch"] == "c"
            want = DirectionPredictor.predict_batch(reference, pcs, takens)
            assert np.array_equal(got, want), name
            assert _state(c_side) == _state(reference), name

    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_negative_pc_words_take_the_fallback(self, name):
        pcs = np.asarray([8, -4, 12, -4096, 8], dtype=np.int64)
        takens = np.asarray([True, False, True, True, False])
        c_side, reference = PREDICTORS[name](), PREDICTORS[name]()
        got = c_side.predict_batch(pcs, takens)
        assert compiled.IMPLEMENTATIONS["branch"] == "python"
        want = DirectionPredictor.predict_batch(reference, pcs, takens)
        assert np.array_equal(got, want)
        assert _state(c_side) == _state(reference)

    def test_streams_of_unequal_length_take_the_fallback(self):
        """C would read past the shorter stream; the reference zips."""
        pcs = np.arange(0, 40, 4, dtype=np.int64)
        takens = np.ones(3, dtype=bool)
        c_side, reference = Gshare(), Gshare()
        got = c_side.predict_batch(pcs, takens)
        assert compiled.IMPLEMENTATIONS["branch"] == "python"
        assert np.array_equal(
            got, DirectionPredictor.predict_batch(reference, pcs, takens))
        assert len(got) == 3


def _random_trace(n: int = 3000) -> Trace:
    rng = np.random.default_rng(11)
    return Trace.from_columns(
        pc=rng.integers(0, 1 << 12, n) * 4, cat=rng.integers(0, len(NCat), n),
        ea=rng.integers(0, 1 << 14, n) * 8,
        flags=np.where(rng.random(n) < 0.5, FLAG_TAKEN, 0)
        | np.where(rng.random(n) < 0.3, FLAG_WRITE, 0),
        target=rng.integers(0, 64, n) * 4, dst=rng.integers(-1, 32, n),
        src1=rng.integers(-1, 32, n), src2=rng.integers(-1, 32, n))


def _replay_outputs(trace) -> list:
    """Every compiled layer's results over ``trace``, as plain values."""
    l1 = simulate_split_l1(trace)
    caches = [getattr(stats, f).tolist() for stats in (l1.icache, l1.dcache)
              for f in ("refs", "misses", "write_misses", "compulsory")]
    branch = [vars(r) for r in compare_predictors(trace).values()]
    return [caches, branch, vars(simulate_pipeline(trace))]


class TestCompiledLayers:
    @needs_cc
    def test_disabled_store_still_runs_c(self, monkeypatch):
        """Tier-1 runs with the store disabled; caches and branches run
        in C there too, so the parity suites above exercise it."""
        monkeypatch.setenv(cache.CACHE_ENV, "")
        monkeypatch.setenv(ENV_VAR, "vector")
        compiled.reset()
        compiled.IMPLEMENTATIONS.clear()
        vector = _replay_outputs(_random_trace())
        assert compiled.IMPLEMENTATIONS == {
            "pipeline": "c", "caches": "c", "branch": "c"}
        monkeypatch.setenv(ENV_VAR, "scalar")
        assert vector == _replay_outputs(_random_trace())

    def test_short_write_mask_takes_the_fallback(self):
        config = CacheConfig(1024, 32, 2, write_allocate=False)
        with pytest.raises(IndexError):
            simulate(config, np.arange(0, 4096, 32),
                     writes=np.zeros(3, dtype=bool), kernel="vector")
        assert compiled.IMPLEMENTATIONS["caches"] == "python"

    def test_no_compiler_gives_identical_results(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(cache.CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(ENV_VAR, "scalar")
        expected = _replay_outputs(_random_trace())
        monkeypatch.setenv(ENV_VAR, "vector")
        monkeypatch.setattr(compiled, "find_compiler", lambda: None)
        compiled.reset()
        compiled.IMPLEMENTATIONS.clear()
        try:
            assert _replay_outputs(_random_trace()) == expected
        finally:
            compiled.reset()
        assert build_manifest("t")["compiled"] == {
            "pipeline": "python", "caches": "python", "branch": "python"}
        assert not list(tmp_path.glob("kernels/*.so"))


# -- pipeline kernel ---------------------------------------------------

_PIPE_CATS = tuple(int(c) for c in (
    NCat.IALU, NCat.IMUL, NCat.FALU, NCat.LOAD, NCat.STORE,
    NCat.BRANCH, NCat.JUMP, NCat.IJUMP, NCat.CALL, NCat.ICALL, NCat.RET,
))

pipe_events = st.lists(
    st.tuples(
        st.sampled_from(_PIPE_CATS),
        st.integers(0, 255),      # ea pool (scaled below)
        st.booleans(),            # taken
        st.integers(0, 63),       # target pool
        st.integers(-1, 15),      # dst
        st.integers(-1, 15),      # src1
        st.integers(-1, 15),      # src2
    ),
    min_size=0, max_size=250,
)

pipe_configs = st.builds(
    PipelineConfig,
    width=st.sampled_from([1, 2, 4, 8]),
    rob_size=st.sampled_from([8, 32]),
    mispredict_penalty=st.sampled_from([2, 4]),
    icache_size=st.sampled_from([1024, 4096]),
    dcache_size=st.sampled_from([1024, 4096]),
    block=st.sampled_from([16, 32]),
    icache_assoc=st.sampled_from([1, 2]),
    dcache_assoc=st.sampled_from([1, 4]),
)


def _build_trace(events) -> Trace:
    n = len(events)
    LOAD, STORE = int(NCat.LOAD), int(NCat.STORE)
    pc = np.arange(n, dtype=np.int64) * 4
    cat = np.asarray([e[0] for e in events], dtype=np.int16)
    mem = (cat == LOAD) | (cat == STORE)
    ea = np.where(mem, np.asarray([e[1] * 8 for e in events],
                                  dtype=np.int64), 0)
    flags = np.where(cat == STORE, FLAG_WRITE, 0)
    flags = flags | np.where(
        np.asarray([e[2] for e in events], dtype=bool), FLAG_TAKEN, 0)
    target = np.asarray([e[3] * 4 for e in events], dtype=np.int64)
    dst = np.asarray([e[4] for e in events], dtype=np.int16)
    src1 = np.asarray([e[5] for e in events], dtype=np.int16)
    src2 = np.asarray([e[6] for e in events], dtype=np.int16)
    return Trace.from_columns(pc=pc, cat=cat, ea=ea, flags=flags.astype(np.int16),
                              target=target, dst=dst, src1=src1, src2=src2)


class TestPipelineParity:
    @RELAXED
    @given(events=pipe_events, config=pipe_configs)
    def test_simulate_pipeline(self, events, config):
        trace = _build_trace(events)
        s = simulate_pipeline(trace, config, kernel="scalar")
        v = simulate_pipeline(trace, config, kernel="vector")
        for field in ("instructions", "cycles", "mispredicts",
                      "imisses", "dmisses"):
            assert getattr(s, field) == getattr(v, field), (
                f"PipelineResult.{field} diverges: "
                f"{getattr(s, field)} != {getattr(v, field)}"
            )

    @RELAXED
    @given(events=pipe_events, config=pipe_configs)
    def test_event_columns(self, events, config):
        """The kernels feed one scheduler, so every per-event column
        they compute must match, not only the totals."""
        trace = _build_trace(events)
        s = event_columns(trace, config, kernel="scalar")
        v = event_columns(trace, config, kernel="vector")
        for field, a, b in zip(s._fields, s, v):
            assert np.array_equal(a, b), f"EventColumns.{field} diverges"

    @RELAXED
    @given(events=pipe_events, config=pipe_configs,
           widths=st.permutations([1, 2, 4, 8]),
           kernel=st.sampled_from(["scalar", "vector"]))
    def test_memoized_sweep(self, events, config, widths, kernel):
        """A width sweep over a trace's memoized columns, run twice in
        any width order, equals a fresh run on an unmemoized copy of
        the trace: no scheduler state leaks through the memo."""
        trace = _build_trace(events)
        machine = {k: v for k, v in asdict(config).items() if k != "width"}
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(ENV_VAR, kernel)
            for _ in range(2):
                swept = ipc_by_width(trace, widths=widths, **machine)
                for w in widths:
                    fresh = simulate_pipeline(_build_trace(events),
                                              PipelineConfig(width=w,
                                                             **machine))
                    assert vars(swept[w]) == vars(fresh), (kernel, w)


# -- kernel selection --------------------------------------------------

class TestKernelSelection:
    def test_env_and_override(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert active_kernel(None) == "vector"
        monkeypatch.setenv(ENV_VAR, "scalar")
        assert active_kernel(None) == "scalar"
        assert active_kernel("vector") == "vector"
        with pytest.raises(ValueError):
            active_kernel("simd")
        monkeypatch.setenv(ENV_VAR, "turbo")
        with pytest.raises(ValueError):
            active_kernel(None)


# -- whole experiments -------------------------------------------------

class TestExperimentParity:
    @pytest.mark.parametrize("exp_id", ["fig3", "table2"])
    def test_experiment_identical_under_both_kernels(
            self, exp_id, tmp_path, monkeypatch):
        from repro.experiments.base import get_experiment

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        fn = get_experiment(exp_id)
        results = {}
        for kernel in ("scalar", "vector"):
            monkeypatch.setenv(ENV_VAR, kernel)
            results[kernel] = fn(scale="s0", benchmarks=["hello"]).to_dict()
        assert results["scalar"] == results["vector"]


# -- stored trace logs -------------------------------------------------

_LOG_EXT = cache.NAMESPACES["traces"].ext


def _recorded_trace() -> Trace:
    from repro.vm import JavaVM
    from repro.workloads.base import get_workload
    return JavaVM(get_workload("hello").build("s0"),
                  "interp,record=True").run().trace


class TestTraceLogFormat:
    """A trace is stored as the template log it expands from
    (:class:`~repro.native.trace.TraceLog`); a load expands the
    verified bytes with the freeze's own :func:`expand`."""

    def _trace(self) -> Trace:
        rng = np.random.default_rng(7)
        n = 64
        return Trace.from_columns(
            pc=rng.integers(0, 1 << 20, n) * 4,
            cat=rng.integers(0, 15, n),
            ea=rng.integers(0, 1 << 16, n),
            flags=rng.integers(0, 8, n),
            target=rng.integers(0, 1 << 20, n) * 4,
            dst=rng.integers(-1, 16, n),
            src1=rng.integers(-1, 16, n),
            src2=rng.integers(-1, 16, n),
        )

    @pytest.mark.parametrize("built", ["recorded", "columns", "empty"])
    def test_roundtrip_restores_every_column(self, tmp_path, built):
        """Recorded and column-built traces come back column for column
        and dtype for dtype, as contiguous read-only arrays."""
        from repro.analysis.cache import load_trace, store_trace
        trace = {"recorded": _recorded_trace, "columns": self._trace,
                 "empty": Trace.empty}[built]()
        path = str(tmp_path / "traces" / f"t{_LOG_EXT}")
        store_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.n == trace.n
        for column in TRACE_COLUMNS:
            view = getattr(loaded, column)
            assert view.dtype == getattr(trace, column).dtype, column
            assert np.array_equal(getattr(trace, column), view), column
            assert view.flags.c_contiguous, column
            assert not view.flags.writeable, column

    def test_wide_ids_roundtrip(self):
        """Past 65,536 templates the ids are stored as ``uint32``."""
        from repro.native.trace import TraceLog
        trace = self._trace()
        log = trace.log._replace(ids=np.zeros(1, dtype=np.uint32))
        loaded = Trace.from_log(TraceLog.from_bytes(log.to_bytes()))
        assert loaded.log.ids.dtype == np.uint32
        for column in TRACE_COLUMNS:
            assert np.array_equal(getattr(trace, column),
                                  getattr(loaded, column)), column

    def test_column_built_trace_is_one_template(self):
        """A trace built from columns is stored as one template holding
        every row, emitted once, with no patch rows."""
        log = self._trace().log
        assert log.ids.tolist() == [0]
        assert log.table.sizes.tolist() == [64]
        assert [len(r) for r in log.table.patch_rows] == [0, 0, 0]
        assert [len(v) for v in log[2:]] == [0, 0, 0]

    def _malformed(self) -> dict:
        """Digest-valid payloads that are no trace log: each must be
        rejected with ``ValueError`` by the decoder."""
        log = _recorded_trace().log
        table = log.table
        first_ea = int(np.flatnonzero(table.patch_counts[0])[0])
        ids = log.ids.copy()
        ids[len(ids) // 2] = len(table.sizes)
        rows = [r.copy() for r in table.patch_rows]
        rows[0][int(table.patch_counts[0][:first_ea].sum())] = (
            table.sizes[first_ea])
        data = log.to_bytes()
        return {
            "id past the table": log._replace(ids=ids).to_bytes(),
            "patch row outside its template": log._replace(
                table=table._replace(patch_rows=tuple(rows))).to_bytes(),
            "patch values miscounted": log._replace(
                eas=np.append(log.eas, 0)).to_bytes(),
            "taken values short": log._replace(
                takens=log.takens[:-1]).to_bytes(),
            "truncated": data[:-8],
            "overlong": data + bytes(8),
            "foreign bytes": b"\x93NUMPY" + bytes(120),
        }

    def test_malformed_payloads_are_corrupt(self, tmp_path):
        """A digest-valid entry that is no whole, consistent log counts
        a corrupt miss and is quarantined, never crashes the lookup: a
        miscounted patch stream too, though a loaded trace decodes
        nothing until read."""
        from repro.analysis.cache import load_trace, store
        from repro.native.trace import TraceLog, expand
        for what, data in self._malformed().items():
            with pytest.raises(ValueError):
                expand(*TraceLog.from_bytes(data))
            path = str(tmp_path / "traces" / f"bogus{_LOG_EXT}")
            store("traces", path, data)
            cache.reset_stats()
            assert load_trace(path) is None, what
            assert cache.STATS.corrupt == 1, what
            assert cache.STATS.trace_misses == 1, what
            assert cache.STATS.quarantined == 1, what
            assert not os.path.exists(path), what

    def test_decodes_the_bytes_it_verified(self, tmp_path, monkeypatch):
        """The trace a load returns is decoded from the bytes whose
        digest was checked, not from a second read of the file: an
        entry replaced between the two must not leak through."""
        from repro.analysis.cache import load_trace, store_trace
        trace = self._trace()
        other = trace.select(np.arange(trace.n) % 2 == 0)
        path = str(tmp_path / "traces" / f"t{_LOG_EXT}")
        store_trace(path, trace)
        verified = cache._read_verified

        def read_then_replace(p):
            data = verified(p)
            store_trace(p, other)
            return data

        monkeypatch.setattr(cache, "_read_verified", read_then_replace)
        loaded = load_trace(path)
        assert loaded.n == trace.n
        for column in TRACE_COLUMNS:
            assert np.array_equal(getattr(trace, column),
                                  getattr(loaded, column)), column
