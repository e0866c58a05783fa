"""Property-based differential testing: random bytecode programs must
behave identically under the interpreter, the JIT, and the folding
interpreter — the contract the paper's whole methodology stands on."""

from hypothesis import given, settings, strategies as st

from repro.isa import ProgramBuilder
from repro.vm import JavaVM

# Operations on a (depth, locals) abstract state.  Each entry:
# (name, min_depth, depth_delta).
_OPS = [
    ("iconst", 0, +1),
    ("iadd", 2, -1),
    ("isub", 2, -1),
    ("imul", 2, -1),
    ("iand", 2, -1),
    ("ior", 2, -1),
    ("ixor", 2, -1),
    ("ishl", 2, -1),
    ("ishr", 2, -1),
    ("ineg", 1, 0),
    ("i2b", 1, 0),
    ("i2s", 1, 0),
    ("dup", 1, +1),
    ("swap", 2, 0),
    ("store_load", 1, 0),   # istore k; iload k
    ("pop", 1, -1),
]

_op_indices = st.lists(
    st.tuples(st.integers(0, len(_OPS) - 1), st.integers(-64, 64)),
    min_size=1, max_size=60,
)


def _build(ops):
    """Random-but-valid straight-line program; returns the builder."""
    pb = ProgramBuilder("prop", main_class="P")
    m = pb.cls("P").method("main", static=True)
    depth = 0
    next_local = 1
    for op_index, imm in ops:
        name, min_depth, delta = _OPS[op_index]
        if depth < min_depth or (name == "iconst" and depth >= 24):
            name, min_depth, delta = "iconst", 0, +1
        if name == "iconst":
            m.iconst(imm)
        elif name == "store_load":
            slot = 1 + (next_local % 10)
            next_local += 1
            m.istore(slot).iload(slot)
        elif name in ("ishl", "ishr"):
            # keep shift counts well-defined (masked anyway, but bound
            # the *values* so multiplications stay cheap)
            getattr(m, name)()
        else:
            getattr(m, name)()
        depth += delta
        if name == "iconst":
            depth = depth  # already counted
    # reduce whatever is left to one value
    if depth == 0:
        m.iconst(0)
        depth = 1
    while depth > 1:
        m.iadd()
        depth -= 1
    m.istore(59)
    m.getstatic("java/lang/System", "out").iload(59)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def _run(pb, config):
    return JavaVM(pb.build(), f"{config},spawn_daemons=False").run()


@settings(max_examples=60, deadline=None)
@given(_op_indices)
def test_interpreter_and_jit_agree(ops):
    interp = _run(_build(ops), "interp")
    jit = _run(_build(ops), "jit")
    assert interp.stdout == jit.stdout
    assert interp.bytecodes_executed == jit.bytecodes_executed


@settings(max_examples=25, deadline=None)
@given(_op_indices)
def test_folding_interpreter_agrees(ops):
    base = _run(_build(ops), "interp")
    folded = _run(_build(ops), "interp,folding=True")
    assert base.stdout == folded.stdout
    assert folded.instructions <= base.instructions


@settings(max_examples=25, deadline=None)
@given(_op_indices)
def test_result_is_a_java_int(ops):
    result = _run(_build(ops), "interp")
    value = int(result.stdout[-1])
    assert -(2**31) <= value < 2**31


@settings(max_examples=20, deadline=None)
@given(_op_indices)
def test_trace_replay_simulators_accept_any_program(ops):
    """Whatever the program, its trace must be simulable end to end."""
    from repro.arch.branch import compare_predictors
    from repro.arch.caches import simulate_split_l1
    result = _run(_build(ops), "jit,record=True")
    res = simulate_split_l1(result.trace)
    assert res.icache.total_refs == result.trace.n
    preds = compare_predictors(result.trace, names=("gshare",))
    assert preds["gshare"].transfers > 0


@settings(max_examples=40, deadline=None)
@given(_op_indices)
def test_dataflow_fixpoints_are_idempotent(ops):
    """Re-applying every transfer at the solved fixpoint changes nothing."""
    from repro.analysis.dataflow import check_fixpoint
    from repro.analysis.dataflow.constprop import ConstProblem
    from repro.analysis.dataflow.liveness import LivenessProblem
    from repro.analysis.dataflow.typestate import TypeProblem
    from repro.analysis.dataflow.solver import solve

    program = _build(ops).build()
    method = program.get_class("P").methods["main"]
    for problem in (TypeProblem(program), LivenessProblem(),
                    ConstProblem()):
        assert check_fixpoint(method, problem, solve(method, problem))


@settings(max_examples=40, deadline=None)
@given(_op_indices)
def test_typed_verifier_accepts_generated_programs(ops):
    """Anything the generator emits is well-typed: the typed verifier
    must agree with the interpreter's acceptance."""
    from repro.analysis.dataflow.typestate import typecheck_method

    pb = _build(ops)
    program = pb.build(typed=True)       # typed verification at link time
    method = program.get_class("P").methods["main"]
    result = typecheck_method(method, program)
    assert not result.errors
    # the same program still runs
    vm = JavaVM(program, "interp,spawn_daemons=False")
    assert vm.run().stdout


@settings(max_examples=30, deadline=None)
@given(_op_indices)
def test_jit_optimizations_preserve_semantics(ops):
    """Liveness DSE + escape-analysis lock elision never change output."""
    base = _run(_build(ops), "jit")
    opt = _run(_build(ops), "jit,jit_opt=True,lock_elision=True")
    assert base.stdout == opt.stdout
    assert base.bytecodes_executed == opt.bytecodes_executed
    assert opt.sync["elision_violations"] == 0
