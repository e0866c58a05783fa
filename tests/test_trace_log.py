"""Relations of a trace and the template log it is decoded from.

A trace is stored as the template log it was frozen from
(:class:`~repro.native.trace.TraceLog`), and both the frozen and the
loaded trace decode it on demand, so every column and every stream the
simulators derive must come back identical: over fuzz programs
recorded under the interpreter and the JIT, and over a SPEC workload
through the run store itself.  Decoding on demand must equal the eager
:func:`~repro.native.trace.expand` plus the masks over random logs,
under both kernels, and so must the pipeline's event columns of the
log-built trace and of the column-built one; freezing, storing or
loading a trace decodes nothing.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import cache
from repro.analysis.runner import run_vm
from repro.arch import compiled
from repro.arch.kernels import ENV_VAR
from repro.arch.pipeline import PipelineConfig
from repro.arch.pipeline.superscalar import event_columns
from repro.fuzz.gen import gen_program
from repro.fuzz.oracle import FUEL
from repro.native import PATCH
from repro.native.nisa import MEMORY_CATS, NCat, TRANSFER_CATS
from repro.native.trace import _COLUMNS as TRACE_COLUMNS
from repro.native.trace import TemplateTable, Trace, TraceLog, expand
from repro.vm import JavaVM
from tests.test_native import _ROWS, _build

_STREAMS = ("instruction_stream", "data_stream", "transfers")
#: Every derived stream and mask a replay reads.
_DERIVED = _STREAMS + ("memory_mask",)


def _assert_same_trace(loaded, frozen) -> None:
    assert loaded.n == frozen.n
    for column in TRACE_COLUMNS:
        got, want = getattr(loaded, column), getattr(frozen, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column
    for stream in _STREAMS:
        got, want = getattr(loaded, stream)(), getattr(frozen, stream)()
        assert len(got) == len(want), stream
        for a, b in zip(got, want):
            assert a.dtype == b.dtype, stream
            assert np.array_equal(a, b), stream


def _store_and_load(trace):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "traces",
                            "t" + cache.NAMESPACES["traces"].ext)
        cache.store_trace(path, trace)
        return cache.load_trace(path)


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 255), mode=st.sampled_from(["interp", "jit"]))
def test_fuzz_recording_survives_the_store(seed, mode):
    try:
        program = gen_program(seed).render()
    except Exception:  # noqa: BLE001 - rejected by the verifier
        assume(False)
    try:
        frozen = JavaVM(program, f"{mode},record=True").run(
            max_bytecodes=FUEL).trace
    except Exception:  # noqa: BLE001 - a program that faults has no trace
        assume(False)
    _assert_same_trace(_store_and_load(frozen), frozen)


@pytest.mark.parametrize("mode", ["interp", "jit"])
def test_db_recording_survives_the_run_store(mode, tmp_path, monkeypatch):
    """The run store's own path: the first call records, freezes and
    stores; the second is served the loaded trace."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    config = f"{mode},record=True"
    frozen = run_vm("db", "s0", config, cache_dir=str(tmp_path)).trace
    cache.reset_stats()
    loaded = run_vm("db", "s0", config, cache_dir=str(tmp_path)).trace
    assert cache.STATS.trace_hits == 1
    _assert_same_trace(loaded, frozen)


# -- decoded on demand == eager expand ---------------------------------

def _random_log(data) -> TraceLog:
    """A log of random templates (zero-row ones included, patch rows on
    any category), emitted in a random order with random patch values,
    with ``uint16`` or ``uint32`` ids; or the one-template log of a
    trace built from random columns."""
    if data.draw(st.booleans(), label="column-built"):
        n = data.draw(st.integers(0, 40), label="rows")

        def column(values):
            return data.draw(st.lists(values, min_size=n, max_size=n))

        return Trace.from_columns(
            pc=column(st.integers(0, 2**40)),
            cat=column(st.sampled_from(list(NCat))),
            ea=column(st.integers(0, 2**40)),
            flags=column(st.integers(0, 15)),
            target=column(st.integers(0, 2**40)),
            dst=column(st.integers(-1, 32)),
            src1=column(st.integers(-1, 32)),
            src2=column(st.integers(-1, 32))).log
    pool = [_build(f"t{i}", rows, 0x10000 * (i + 1))
            for i, rows in enumerate(data.draw(
                st.lists(st.lists(_ROWS, max_size=6), min_size=1,
                         max_size=6), label="templates"))]
    ids = np.array(data.draw(st.lists(st.integers(0, len(pool) - 1),
                                      max_size=40), label="ids"),
                   dtype=data.draw(st.sampled_from([np.uint16, np.uint32])))
    emitted = [pool[i] for i in ids]

    def stream(field, values, dtype):
        n = sum(len(getattr(t, "patch_" + field)) for t in emitted)
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n),
                                  label=field), dtype=dtype)

    log = TraceLog(TemplateTable.of(pool), ids,
                   stream("ea", st.integers(0, 2**40), np.int64),
                   stream("taken", st.integers(0, 1), np.int16),
                   stream("target", st.integers(0, 2**40), np.int64))
    if data.draw(st.booleans(), label="through bytes"):
        log = TraceLog.from_bytes(log.to_bytes())
    return log


def _assert_equal(got, want, what) -> None:
    assert got.dtype == want.dtype, what
    assert np.array_equal(got, want), what


def _assert_decodes_as_expand(log) -> None:
    """Every column and stream of ``log``'s trace, read columns first
    or streams first, equals the eager reference's in value and
    dtype."""
    reference = Trace(**expand(*log))
    for columns_first in (True, False):
        trace = Trace.from_log(log)
        assert trace.n == reference.n
        order = ([(c, None) for c in TRACE_COLUMNS]
                 + [(None, s) for s in _DERIVED])
        for column, stream in order if columns_first else order[::-1]:
            if column is not None:
                got = getattr(trace, column)
                _assert_equal(got, getattr(reference, column), column)
                assert got.flags.c_contiguous, column
                assert not got.flags.writeable, column
                continue
            got, want = getattr(trace, stream)(), getattr(reference, stream)()
            if not isinstance(got, tuple):
                got, want = (got,), (want,)
            assert len(got) == len(want), stream
            for a, b in zip(got, want):
                _assert_equal(a, b, stream)
        # The pipeline's columns, from the log's templates and from the
        # column-built trace's one template.
        got = event_columns(trace, PipelineConfig())
        for field, a, b in zip(got._fields, got,
                               event_columns(reference, PipelineConfig())):
            if isinstance(a, np.ndarray):
                _assert_equal(a, b, field)
            else:
                assert a == b, field


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_decoded_on_demand_matches_eager_expand(data):
    """Patch rows on rows a selection drops are skipped but still
    consume their values, whatever the id width; every result equals
    :func:`expand` plus the masks under both kernels, and the vector
    kernel gathers in C when a compiler is present."""
    log = _random_log(data)
    for kernel, ran in (("scalar", "python"),
                        ("vector", "c" if compiled.find_compiler()
                         else "python")):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(ENV_VAR, kernel)
            compiled.IMPLEMENTATIONS.pop("decode", None)
            _assert_decodes_as_expand(log)
            assert compiled.IMPLEMENTATIONS["decode"] == ran, kernel


def test_patch_rows_dropped_by_both_selections():
    """A template whose ``ea``, ``taken`` and ``target`` patch rows all
    sit on rows neither selection keeps, emitted between templates
    whose patches are kept: the kept values are the ones after the
    skipped ones in each stream."""
    kept = _build("kept", [(NCat.LOAD, PATCH, None, None, 0),
                           (NCat.BRANCH, None, PATCH,
                            PATCH, 0)], 0x10000)
    dropped = _build("dropped", [(NCat.IALU, PATCH,
                                  PATCH, PATCH,
                                  0)], 0x20000)
    assert int(NCat.IALU) not in MEMORY_CATS | TRANSFER_CATS
    ids = np.array([1, 0, 1, 1, 0], dtype=np.uint16)
    log = TraceLog(TemplateTable.of([kept, dropped]), ids,
                   np.arange(1, 6, dtype=np.int64) * 8,
                   np.array([1, 0, 1, 0, 1], dtype=np.int16),
                   np.arange(1, 6, dtype=np.int64) * 4)
    trace = Trace.from_log(log)
    assert trace.data_stream()[0].tolist() == [16, 40]
    assert trace.transfers()[2].tolist() == [False, True]
    assert trace.transfers()[3].tolist() == [8, 20]
    _assert_decodes_as_expand(log)


# -- laziness and eager rejection --------------------------------------

@pytest.fixture
def gathers(monkeypatch):
    """The number of columns or streams gathered from a log so far."""
    calls = []
    gather = Trace._gather

    def counted(self, *args):
        calls.append(args)
        return gather(self, *args)

    monkeypatch.setattr(Trace, "_gather", counted)
    return calls


def test_freeze_store_and_load_decode_nothing(gathers, tmp_path,
                                              monkeypatch):
    """A recording is frozen, stored, and served again from the store
    without one column gathered; the first stream read gathers."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    frozen = run_vm("hello", "s0", "interp,record=True",
                    cache_dir=str(tmp_path)).trace
    loaded = run_vm("hello", "s0", "interp,record=True",
                    cache_dir=str(tmp_path)).trace
    assert loaded is not frozen and loaded.n == frozen.n > 0
    assert gathers == []
    loaded.transfers()
    assert gathers

