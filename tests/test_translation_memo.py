"""The translation memo: a hit is a fresh translation, and it dies with
its program.

Each ``Program`` memoizes the bodies its VMs translate, keyed on what
translation reads (``repro.vm.jit.compiler._Body``).  A hit rebuilds
the body at the VM's next code-cache pc: the same chunks when the pc
matches, rebased ones otherwise.  Every hit below is checked against a
fresh translation of the same method and link at the same pc, by a
compiler that shares nothing with the memo: every template column and
scalar, every ea plan, the translate cycles, the assumptions, the
inline sites and the compiler's counters.

Under a plain counting sink, a translation is charged in closed form:
its body's translate histogram is added in one step instead of walking
the method's bytecode (``TranslateStubs.translation_counts``).  Every
fresh translation and every hit below is also checked against the walk:
the sink's cycles and per-template counts must move exactly as
``emit_translation`` moves a fresh counting sink's for the same method
and body.
"""

from __future__ import annotations

import copy
import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz.gen import FUEL, gen_program
from repro.fuzz.oracle import MATRIX
from repro.isa import ProgramBuilder
from repro.native.layout import CODE_CACHE_BASE
from repro.native.template import _COLUMN_FIELDS
from repro.native.trace import CountingSink
from repro.vm import JavaVM
from repro.vm.jit import compiler as jit_compiler
from repro.vm.jit.compiler import CodeCache
from repro.workloads.base import SPEC_BENCHMARKS, get_workload

_SCALARS = ("name", "n", "cycles", "translate", "base_pc", "end_pc")


class _Checker:
    """Wraps ``JITCompiler._translation``; compares every memo hit with
    a fresh translation at the hit's entry pc."""

    def __init__(self, monkeypatch) -> None:
        self.hits = {"same pc": 0, "rebased": 0}
        self.walked = {"fresh": 0, "hit": 0}
        original = jit_compiler.JITCompiler._translation
        checker = self

        def checked(compiler, method, link, optimize):
            memo = compiler.program.translations
            size = len(memo)
            before = _counters(compiler)
            sink = compiler.sink
            charged = (sink.cycles, dict(sink.emits))
            compiled = original(compiler, method, link, optimize)
            hit = len(memo) == size          # a hit adds no entry
            if type(sink) is CountingSink:
                checker.walked["hit" if hit else "fresh"] += 1
                checker.compare_walk(compiler, method, compiled, charged)
            if hit:
                checker.compare(compiler, method, link, optimize, compiled,
                                before)
            return compiled

        monkeypatch.setattr(jit_compiler.JITCompiler, "_translation",
                            checked)
        self.original = original

    def fresh(self, compiler, method, link, optimize, entry_pc):
        """A translation at ``entry_pc`` by a compiler with an empty memo,
        its own code cache, sink and zeroed counters."""
        ref = copy.copy(compiler)
        ref.program = copy.copy(compiler.program)
        ref.program.translations = {}
        ref.code_cache = CodeCache()
        ref.code_cache.region.alloc((entry_pc - CODE_CACHE_BASE) // 4)
        ref.sink = CountingSink()
        ref._histograms = {}
        for name in _counters(compiler):
            setattr(ref, name, 0)
        compiled = self.original(ref, method, link, optimize)
        return compiled, ref

    @staticmethod
    def compare_walk(compiler, method, compiled, charged):
        """The closed-form charge of ``compiled`` equals the walk of
        ``emit_translation`` into a fresh counting sink."""
        cycles, emits = charged
        sink = compiler.sink
        delta = {t: k - emits.get(t, 0) for t, k in sink.emits.items()
                 if k != emits.get(t, 0)}
        walk = CountingSink()
        walked = compiler.stubs.emit_translation(
            walk, method, compiler.loader.methods[method].bc_addr,
            jit_compiler._install_pcs(compiled))
        where = f"{method.qualified_name} @{compiled.entry_pc:#x}"
        assert sink.cycles - cycles == walked == walk.cycles, where
        assert compiled.translate_cycles == walked, where
        assert delta == walk.emits, where

    def compare(self, compiler, method, link, optimize, hit, before):
        memo = compiler.program.translations
        moved = not any(body.compiled.prologue is hit.prologue
                        for body in memo.values())
        self.hits["rebased" if moved else "same pc"] += 1
        want, ref = self.fresh(compiler, method, link, optimize,
                               hit.entry_pc)
        where = f"{method.qualified_name} @{hit.entry_pc:#x}"
        assert (hit.entry_pc, hit.end_pc, hit.code_bytes) == (
            want.entry_pc, want.end_pc, want.code_bytes), where
        assert hit.translate_cycles == want.translate_cycles, where
        assert hit.assumptions == want.assumptions, where
        assert {i: (s.target, s.field_offsets)
                for i, s in hit.inline_info.items()} == {
            i: (s.target, s.field_offsets)
            for i, s in want.inline_info.items()}, where
        after = _counters(compiler)
        assert {name: after[name] - before[name] for name in after} == \
            _counters(ref), where
        pairs = [(hit.prologue, want.prologue)] + list(
            zip(hit.chunks, want.chunks, strict=True))
        for got, exp in pairs:
            assert (got is None) == (exp is None), where
            if got is None:
                continue
            t, e = got.template, exp.template
            for attr in _SCALARS:
                assert getattr(t, attr) == getattr(e, attr), (where, attr)
            assert t.cat_counts.tolist() == e.cat_counts.tolist(), where
            # a rebased chunk lowers only when something reads it
            assert not (moved and t.materialized), where
            for field in _COLUMN_FIELDS:
                a, b = getattr(t, field), getattr(e, field)
                assert a.dtype == b.dtype, (where, field)
                assert a.tolist() == b.tolist(), (where, t.name, field)
            assert got.ea_plan == exp.ea_plan, (where, t.name)


@pytest.fixture
def checker(monkeypatch):
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    return _Checker(monkeypatch)


def _counters(compiler) -> dict:
    """Every counter of the compiler (its int attributes); the peak
    work-area size is a maximum, not a sum, so it is left out."""
    return {name: value for name, value in vars(compiler).items()
            if type(value) is int and name != "peak_work_bytes"}


def _run_matrix(program, fuel=None) -> None:
    for config in MATRIX.values():
        JavaVM(program, config).run(max_bytecodes=fuel)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6))
def test_fuzz_hits_equal_fresh_translations(checker, seed):
    try:
        program = gen_program(seed).render()
    except Exception:  # noqa: BLE001 - the verifier's rejects
        return
    _run_matrix(program, FUEL)


def test_fuzz_campaign_hits_both_ways(checker):
    """Seed-0 campaign programs hit at the same pc and at a moved one."""
    for seed in range(6):
        _run_matrix(gen_program(seed).render(), FUEL)
    assert checker.hits["same pc"] and checker.hits["rebased"], checker.hits
    assert checker.walked["fresh"] and checker.walked["hit"], checker.walked


@pytest.mark.parametrize("workload", SPEC_BENCHMARKS)
def test_workload_hits_equal_fresh_translations(checker, workload):
    _run_matrix(get_workload(workload).build("s0"))
    assert sum(checker.hits.values()), checker.hits
    assert checker.walked["fresh"] and checker.walked["hit"], checker.walked


def test_memo_is_keyed_on_what_translation_reads(checker):
    """One entry per (method, optimize, link) a program's VMs compiled:
    the plain JIT and the lock-elision JIT share every entry."""
    program = get_workload("db").build("s0")
    JavaVM(program, MATRIX["jit"]).run()
    entries = len(program.translations)
    assert entries
    JavaVM(program, MATRIX["lock_elision"]).run()
    assert len(program.translations) == entries
    assert checker.hits["same pc"] == entries


def test_each_vm_bakes_its_own_static_addresses(checker):
    """A static field's address depends on the VM's class-load order,
    so it is part of the key: a VM that placed the field elsewhere
    translates afresh and bakes its own address."""
    pb = ProgramBuilder("statics", main_class="Test")
    for name in ("A", "B"):
        pb.cls(name).static_field("v", "int")
    test = pb.cls("Test")
    test.method("read", static=True, returns=True).getstatic(
        "B", "v").ireturn()
    test.method("main", static=True).return_()
    program = pb.build()
    method = program.classes["Test"].methods["read"]
    baked = set()
    for order in (("A", "B"), ("B", "A"), ("A", "B")):
        vm = JavaVM(program, "jit")
        for name in order + ("Test",):
            vm.loader.ensure_loaded(name)
        compiled = vm.jit.compile(method)
        address = vm.loader.mirrors[program.classes["B"]].static_addr["v"]
        eas = {int(ea) for chunk in compiled.chunks if chunk
               for ea in chunk.template.ea if ea}
        assert eas == {address}
        baked.add(address)
    assert len(baked) == 2
    assert len(program.translations) == 2
    assert sum(checker.hits.values()) == 1


def test_memo_dies_with_its_program():
    program = gen_program(3).render()
    _run_matrix(program, FUEL)
    assert program.translations
    body = next(iter(program.translations.values()))
    histogram = weakref.ref(body.compiled.prologue.template.cat_counts)
    owner = weakref.ref(program)
    del program, body
    gc.collect()
    assert owner() is None
    assert histogram() is None, "a memo body outlived its program"
