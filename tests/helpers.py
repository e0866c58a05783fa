"""Shared test utilities: tiny-program builders and run helpers."""

from __future__ import annotations

from repro.isa import ArrayType, ProgramBuilder
from repro.vm import JavaVM


def expr_main(body) -> "ProgramBuilder":
    """A program whose static main() is filled in by ``body(m)``.

    ``body`` receives the MethodBuilder; it must leave one int on the
    stack, which is printed (so tests can assert on stdout) — or handle
    output itself and return ``False``.
    """
    pb = ProgramBuilder("test", main_class="Test")
    cb = pb.cls("Test")
    m = cb.method("main", static=True)
    wants_print = body(m)
    if wants_print is not False:
        m.istore(60)
        m.getstatic("java/lang/System", "out").iload(60)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def run_program(pb_or_program, config="interp"):
    """Build+run under ``config`` (a RunConfig or its token); returns
    the VMResult."""
    program = (pb_or_program.build()
               if isinstance(pb_or_program, ProgramBuilder)
               else pb_or_program)
    return JavaVM(program, config).run()


def eval_int(body, config="interp") -> int:
    """Evaluate a main() body that leaves an int on the stack."""
    result = run_program(expr_main(body), config)
    assert result.stdout, "program printed nothing"
    return int(result.stdout[-1])


def eval_both_modes(body) -> int:
    """Evaluate under interpreter and JIT; assert they agree."""
    interp = eval_int(body, "interp")
    jit = eval_int(body, "jit")
    assert interp == jit, f"mode divergence: interp={interp} jit={jit}"
    return interp


def observables(result) -> dict:
    """Every ``VMResult`` attribute but the trace, arrays as lists."""
    return {name: value.tolist() if hasattr(value, "tolist") else value
            for name, value in vars(result).items() if name != "trace"}
