"""Properties of the fuzz generator itself.

The generator's whole value rests on three invariants: every emitted
program is verifier-clean (structural *and* typed), every program
round-trips through the textual assembler, and every program terminates
within the static fuel bound.  Hypothesis drives the seed space; the
properties must hold for *any* seed, not just the campaign defaults.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fuzz.gen import FUEL, gen_program
from repro.isa.asm import assemble, disassemble_program
from repro.isa.verifier import verify_program
from repro.vm import JavaVM

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(_seeds)
def test_generated_programs_verify(seed):
    spec = gen_program(seed)
    # render() already runs the typed verifier as the validity filter;
    # re-run explicitly so the property names the contract.
    program = spec.render(verify=False)
    verify_program(program, typed=True)


@settings(max_examples=25, deadline=None)
@given(_seeds)
def test_assembly_round_trip_is_fixpoint(seed):
    spec = gen_program(seed)
    text = disassemble_program(spec.render())
    rebuilt = assemble(text)
    assert disassemble_program(rebuilt) == text


@settings(max_examples=15, deadline=None)
@given(_seeds)
def test_terminates_within_fuel(seed):
    spec = gen_program(seed)
    result = JavaVM(spec.render(), "interp").run(max_bytecodes=FUEL)
    assert 0 < result.bytecodes_executed <= FUEL
    assert result.stdout, "every generated program must print state"


@settings(max_examples=20, deadline=None)
@given(_seeds)
def test_generation_is_deterministic(seed):
    a, b = gen_program(seed), gen_program(seed)
    assert disassemble_program(a.render()) == \
        disassemble_program(b.render())


@settings(max_examples=20, deadline=None)
@given(_seeds)
def test_round_trip_preserves_semantics(seed):
    """The reassembled program behaves identically to the original."""
    spec = gen_program(seed)
    original = JavaVM(spec.render(), "interp").run(max_bytecodes=FUEL)
    rebuilt = assemble(disassemble_program(spec.render()))
    replay = JavaVM(rebuilt, "interp").run(max_bytecodes=FUEL)
    assert replay.stdout == original.stdout
    assert replay.bytecodes_executed == original.bytecodes_executed
