"""The escape solver's worklist ≡ the round-robin fixpoint it replaced.

``EscapeSummaries`` analyzes every method once in code order and then
only the callers of a method whose summary changed, and builds each
method's ``MethodEscape`` from its last analysis.  The round-robin
reference below (kept only here) re-analyzes every method until a
whole round changes nothing, then runs a reporting pass.  Levels only
rise from the optimistic seed and the transfer is monotone, so both
reach the same fixpoint; these tests pin it on library-linked fuzz
programs, the SpecJVM workloads and the regression corpus, and pin
that the worklist analyzes far fewer methods.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.dataflow import escape
from repro.analysis.dataflow.escape import (
    GLOBAL, NO_ESCAPE, RETURNED, EscapeSummaries, MethodEscape)
from repro.fuzz.gen import gen_program
from repro.isa.asm import assemble
from repro.isa.opcodes import OPINFO
from repro.isa.pool import MethodRef
from repro.isa.verifier import VerifyError
from repro.vm.library import ensure_library
from repro.workloads.base import SPEC_BENCHMARKS, get_workload

CORPUS = sorted((Path(__file__).parent / "fuzz_corpus").glob("*.asm"))


class RoundRobin(EscapeSummaries):
    """The reference solver: whole rounds to a fixpoint, then a
    reporting pass per method."""

    def _solve(self) -> None:
        bytecode_methods = [m for m in self.program.all_methods()
                            if not m.is_native and m.code]
        for m in bytecode_methods:
            self.summary(m)
        broken = set()
        changed = True
        while changed:
            changed = False
            for m in bytecode_methods:
                if m in broken:
                    continue
                try:
                    events, _allocs = self._analyze(m)
                except VerifyError:
                    broken.add(m)
                    self._summary[m] = (GLOBAL,) * m.n_param_slots
                    changed = True
                    continue
                new = []
                for slot in range(m.n_param_slots):
                    p = ("p", slot)
                    if p in events["global"]:
                        new.append(GLOBAL)
                    elif p in events["returned"]:
                        new.append(RETURNED)
                    else:
                        new.append(NO_ESCAPE)
                new = tuple(new)
                if new != self._summary[m]:
                    self._summary[m] = new
                    changed = True
        for m in bytecode_methods:
            if m in broken:
                self._info[m] = None
                continue
            events, alloc_sites = self._analyze(m)
            escaped = {i for i in alloc_sites
                       if ("a", i) in events["global"]
                       or ("a", i) in events["returned"]}
            elidable = frozenset(alloc_sites - escaped)
            monitor_sites = {}
            for idx, origins in events["monitors"].items():
                monitor_sites[idx] = bool(origins) and all(
                    o[0] == "a" and o[1] in elidable for o in origins)
            self._info[m] = MethodEscape(
                self._summary[m], frozenset(alloc_sites),
                frozenset(escaped), elidable, monitor_sites)


def _assert_same_solution(program) -> None:
    worklist, reference = EscapeSummaries(program), RoundRobin(program)
    assert worklist._summary == reference._summary
    assert worklist._info.keys() == reference._info.keys()
    for method, want in reference._info.items():
        got = worklist._info[method]
        assert (got is None) == (want is None), method.qualified_name
        if want is None:
            continue
        for field in MethodEscape.__slots__:
            assert getattr(got, field) == getattr(want, field), (
                method.qualified_name, field)


def _linked(program):
    ensure_library(program)
    return program


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6))
def test_fuzz_programs(seed):
    try:
        program = gen_program(seed).render()
    except Exception:  # noqa: BLE001 - the verifier's rejects
        return
    _assert_same_solution(_linked(program))


@pytest.mark.parametrize("workload", SPEC_BENCHMARKS)
def test_workloads(workload):
    _assert_same_solution(_linked(get_workload(workload).build("s0")))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus(path):
    _assert_same_solution(_linked(assemble(path.read_text())))


def test_summaries_move():
    """The workloads' summaries reach every level of the lattice."""
    levels = set()
    for workload in SPEC_BENCHMARKS:
        summaries = EscapeSummaries(_linked(get_workload(workload).build(
            "s0")))
        for summary in summaries._summary.values():
            levels.update(summary)
    assert levels == {NO_ESCAPE, RETURNED, GLOBAL}


def test_worklist_analyzes_far_fewer_methods(monkeypatch):
    calls = {"worklist": 0, "round robin": 0}
    solver = "worklist"
    analyze = EscapeSummaries._analyze

    def counted(self, method):
        calls[solver] += 1
        return analyze(self, method)

    monkeypatch.setattr(escape.EscapeSummaries, "_analyze", counted)
    programs = [_linked(gen_program(seed).render()) for seed in range(20)]
    programs += [_linked(get_workload(w).build("s0"))
                 for w in SPEC_BENCHMARKS]
    for program in programs:
        solver = "worklist"
        EscapeSummaries(program)
        solver = "round robin"
        RoundRobin(program)
    # Each method at least once, but well under half the rounds' work.
    methods = sum(
        1 for p in programs for m in p.all_methods()
        if not m.is_native and m.code)
    assert methods <= calls["worklist"] < calls["round robin"] / 2, calls


def test_callers_cover_every_invoke():
    """A callee's callers list every method with an invoke that may
    reach it, so a summary change re-queues all of them."""
    program = _linked(get_workload("javac").build("s0"))
    summaries = EscapeSummaries(program)
    methods = [m for m in program.all_methods()
               if not m.is_native and m.code]
    callers = summaries._callers(methods)
    for m in methods:
        for instr in m.code:
            if OPINFO[instr.op].kind != "invoke":
                continue
            ref = m.pool[instr.a]
            if not isinstance(ref, MethodRef):
                continue
            for target in program.call_targets(instr.op, ref) or ():
                assert m in callers[target]
