"""Relation: a stored-and-loaded trace equals the trace frozen in memory.

A trace is stored as the template log it was frozen from
(:class:`~repro.native.trace.TraceLog`) and a load expands it again
with the same :func:`~repro.native.trace.expand`, so every column and
every stream the simulators derive must come back identical: over
fuzz programs recorded under the interpreter and the JIT, and over a
SPEC workload through the run store itself.
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
from repro.fuzz.gen import gen_program
from repro.fuzz.oracle import FUEL
from repro.native.trace import _COLUMNS as TRACE_COLUMNS
from repro.vm import JavaVM

_STREAMS = ("instruction_stream", "data_stream", "transfers")


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
