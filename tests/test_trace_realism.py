"""End-to-end trace realism: the address-map invariants the paper's
methodology depends on (which region each mode fetches from, where
bytecodes are read, where compiled code is installed and later fetched)."""

import numpy as np
import pytest

from repro.analysis import run_vm
from repro.native.layout import (
    BYTECODE_BASE,
    BYTECODE_SIZE,
    CODE_CACHE_BASE,
    CODE_CACHE_SIZE,
    HEAP_BASE,
    HEAP_SIZE,
    INTERP_TEXT_BASE,
    INTERP_TEXT_SIZE,
    JITC_TEXT_BASE,
    JITC_TEXT_SIZE,
    STACK_BASE,
    STACK_REGION_SIZE,
)


def _in(arr, base, size):
    return (arr >= base) & (arr < base + size)


@pytest.fixture(scope="module")
def interp_trace():
    return run_vm("db", "s0", "interp,record=True").trace


@pytest.fixture(scope="module")
def jit_trace():
    return run_vm("db", "s0", "jit,record=True").trace


class TestInterpreterMode:
    def test_never_fetches_from_code_cache(self, interp_trace):
        assert not _in(interp_trace.pc, CODE_CACHE_BASE,
                       CODE_CACHE_SIZE).any()

    def test_mostly_fetches_interpreter_text(self, interp_trace):
        frac = _in(interp_trace.pc, INTERP_TEXT_BASE,
                   INTERP_TEXT_SIZE).mean()
        assert frac > 0.8

    def test_reads_bytecode_as_data(self, interp_trace):
        mem = interp_trace.select(interp_trace.is_memory)
        bc_reads = _in(mem.ea, BYTECODE_BASE, BYTECODE_SIZE) & ~mem.is_write
        assert bc_reads.sum() > 1000

    def test_touches_operand_stacks(self, interp_trace):
        mem = interp_trace.select(interp_trace.is_memory)
        assert _in(mem.ea, STACK_BASE, STACK_REGION_SIZE).mean() > 0.2

    def test_heap_accesses_present(self, interp_trace):
        mem = interp_trace.select(interp_trace.is_memory)
        assert _in(mem.ea, HEAP_BASE, HEAP_SIZE).any()


class TestJITMode:
    def test_fetches_compiled_code_from_code_cache(self, jit_trace):
        # db at s0 is translate-dominated, so compiled-code fetches are
        # a minority of the stream — but must be clearly present.
        frac = _in(jit_trace.pc, CODE_CACHE_BASE, CODE_CACHE_SIZE).mean()
        assert frac > 0.15

    def test_translator_text_fetched_during_translate(self, jit_trace):
        xl = jit_trace.select(jit_trace.in_translate)
        assert _in(xl.pc, JITC_TEXT_BASE, JITC_TEXT_SIZE).mean() > 0.95

    def test_install_stores_precede_fetches(self, jit_trace):
        """Every code-cache pc fetched was first written by translate —
        the D-to-I flow behind the paper's Section 6 proposal."""
        installs = jit_trace.select(
            jit_trace.is_write
            & _in(jit_trace.ea, CODE_CACHE_BASE, CODE_CACHE_SIZE)
        )
        fetch_mask = _in(jit_trace.pc, CODE_CACHE_BASE, CODE_CACHE_SIZE)
        fetched_pcs = set(np.unique(jit_trace.pc[fetch_mask]).tolist())
        installed = set(np.unique(installs.ea).tolist())
        # prologue/chunk pcs all appear among installed words
        missing = fetched_pcs - installed
        assert not missing, f"{len(missing)} fetched pcs never installed"

    def test_bytecode_read_during_translation_only_sparsely_after(self, jit_trace):
        xl = jit_trace.select(jit_trace.in_translate)
        rest = jit_trace.select(~jit_trace.in_translate)
        xl_bc = _in(xl.ea[xl.is_memory], BYTECODE_BASE, BYTECODE_SIZE).sum()
        rest_mem = rest.select(rest.is_memory)
        rest_bc_frac = _in(rest_mem.ea, BYTECODE_BASE, BYTECODE_SIZE).mean()
        assert xl_bc > 0
        assert rest_bc_frac < 0.05   # compiled code does not re-read bytecode

    def test_fewer_data_refs_than_interpreter(self, interp_trace, jit_trace):
        interp_refs = int(interp_trace.is_memory.sum())
        jit_refs = int(jit_trace.is_memory.sum())
        assert 0.05 * interp_refs < jit_refs < 0.8 * interp_refs

    def test_no_indirect_dispatch_jumps(self, jit_trace):
        """Compiled code has calls/branches; the dispatch IJUMP is gone."""
        from repro.native.nisa import NCat
        outside = jit_trace.select(~jit_trace.in_translate)
        compiled = outside.select(
            _in(outside.pc, CODE_CACHE_BASE, CODE_CACHE_SIZE)
        )
        ijumps = (compiled.cat == int(NCat.IJUMP)).sum()
        assert ijumps / max(1, compiled.n) < 0.01


class TestCrossMode:
    def test_same_bytecode_addresses_both_modes(self, interp_trace, jit_trace):
        """Class loading is deterministic: both runs place method
        bytecode at identical addresses."""
        a = interp_trace.select(interp_trace.is_memory)
        b = jit_trace.select(jit_trace.is_memory)
        a_bc = set(np.unique(a.ea[_in(a.ea, BYTECODE_BASE, BYTECODE_SIZE)]).tolist())
        b_bc = set(np.unique(b.ea[_in(b.ea, BYTECODE_BASE, BYTECODE_SIZE)]).tolist())
        # translation reads every method byte; interpretation reads the
        # executed subset
        assert b_bc >= a_bc or len(a_bc - b_bc) / max(1, len(a_bc)) < 0.3
