"""A hot line run as one generated function ≡ its ops run one at a time.

Each example is a random straight line of well-typed pure ops, placed
right after a full handler so that the counting stepper starts a line
at its first op, and closed by a branch (taken or not, forward or back
to the line's start), a switch, or nothing.  The line draws from the
ops whose generated code differs most from their ``sem``: the stack
shuffles, ``idiv``/``irem`` by zero, ``f2i`` of NaN and infinities,
array loads, stores and ``arraylength`` on null or out of range, and
narrowing.  The program is stepped twice from boot under the same
random budgets, once with every line generated on its first visit and
once with none, and after every step the two must agree on the frame's
stack, locals and ``ip``, the sink's cycles and template counts, the
opcode counts, the profiles, and the exception raised, by type and
message.  Under a recording sink, where a line also logs its run, they
must agree on the log, its three patch streams and the frozen trace's
stored bytes as well.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.isa import ArrayType, Op, ProgramBuilder
from repro.vm import JavaVM, RunConfig
from repro.vm import lines as lines_mod
from repro.vm.objects import JArray

INTS = (0, 1, -1, 3, 7, -8, 2**31 - 1, -2**31, 255, 65535, 40000)
FLOATS = (0.0, 1.5, -2.25, 1e12, math.nan, math.inf, -math.inf)
#: Locals: 0 int[3], 1 null, 2-4 ints, 5-6 floats, 7 int, 8 float.
INT_LOCALS, FLOAT_LOCALS = (2, 3, 4, 7), (5, 6, 8)
#: The typed stack a line starts on: locals 2 and 3 and a static.
ENTRY = "III"

INT_BINARY = (Op.IADD, Op.ISUB, Op.IMUL, Op.IDIV, Op.IREM, Op.ISHL,
              Op.ISHR, Op.IUSHR, Op.IAND, Op.IOR, Op.IXOR)
FLOAT_BINARY = (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV)
INT_UNARY = (Op.INEG, Op.I2B, Op.I2C, Op.I2S)
IF1 = (Op.IFEQ, Op.IFNE, Op.IFLT, Op.IFGE, Op.IFGT, Op.IFLE)
IF2 = (Op.IF_ICMPEQ, Op.IF_ICMPNE, Op.IF_ICMPLT, Op.IF_ICMPGE,
       Op.IF_ICMPGT, Op.IF_ICMPLE)

CONFIGS = {
    "interp": RunConfig(threshold=None),
    "jit": RunConfig(),
    "tiered": RunConfig(policy="tiered", osr_backedges=2, t2_invocations=3,
                        t2_backedges=8),
}


def _candidates(stack: list) -> list:
    """``(op, a, b, pops, pushes)`` rows valid on the typed ``stack``
    (top last; ``I`` int, ``F`` float, ``R`` reference)."""
    rows = [(Op.NOP, 0, 0, 0, ""), (Op.ACONST_NULL, 0, 0, 0, "R"),
            (Op.ALOAD, 0, 0, 0, "R"), (Op.ALOAD, 1, 0, 0, "R")]
    rows += [(Op.ICONST, v, 0, 0, "I") for v in INTS]
    rows += [(Op.FCONST, v, 0, 0, "F") for v in FLOATS]
    rows += [(Op.ILOAD, i, 0, 0, "I") for i in INT_LOCALS]
    rows += [(Op.FLOAD, i, 0, 0, "F") for i in FLOAT_LOCALS]
    rows += [(Op.IINC, i, d, 0, "") for i in INT_LOCALS for d in (1, -3)]
    top = "".join(stack[-3:])
    if stack:
        rows += [(Op.POP, 0, 0, 1, ""), (Op.DUP, 0, 0, 1, top[-1] * 2)]
    if len(stack) >= 2:
        rows += [(Op.SWAP, 0, 0, 2, top[-1] + top[-2]),
                 (Op.DUP_X1, 0, 0, 2, top[-1] + top[-2] + top[-1])]
    if top.endswith("I"):
        rows += [(Op.ISTORE, i, 0, 1, "") for i in INT_LOCALS]
        rows += [(op, 0, 0, 1, "I") for op in INT_UNARY]
        rows += [(Op.I2F, 0, 0, 1, "F")]
    if top.endswith("F"):
        rows += [(Op.FSTORE, i, 0, 1, "") for i in FLOAT_LOCALS]
        rows += [(Op.FNEG, 0, 0, 1, "F"), (Op.F2I, 0, 0, 1, "I")]
    if top.endswith("R"):
        rows += [(Op.ARRAYLENGTH, 0, 0, 1, "I")]
    if top.endswith("II"):
        rows += [(op, 0, 0, 2, "I") for op in INT_BINARY]
    if top.endswith("FF"):
        rows += [(op, 0, 0, 2, "F") for op in FLOAT_BINARY]
        rows += [(Op.FCMPL, 0, 0, 2, "I"), (Op.FCMPG, 0, 0, 2, "I")]
    if top.endswith("RI"):
        rows += [(Op.IALOAD, 0, 0, 2, "I")]
    if top.endswith("RII"):
        rows += [(Op.IASTORE, 0, 0, 3, ""), (Op.BASTORE, 0, 0, 3, ""),
                 (Op.CASTORE, 0, 0, 3, "")]
    return rows


def _closers(stack: list) -> list:
    """``(kind, op, pops)`` of each way to end the line on ``stack``."""
    top = "".join(stack[-2:])
    rows = [("fall", None, 0), ("goto", Op.GOTO, 0)]
    if top.endswith("I"):
        rows += [("if", op, 1) for op in IF1]
        rows += [("tableswitch", Op.TABLESWITCH, 1),
                 ("lookupswitch", Op.LOOKUPSWITCH, 1)]
    if top.endswith("R"):
        rows += [("if", Op.IFNULL, 1), ("if", Op.IFNONNULL, 1)]
    if top.endswith("II"):
        rows += [("if", op, 2) for op in IF2]
    if top.endswith("RR"):
        rows += [("if", Op.IF_ACMPEQ, 2), ("if", Op.IF_ACMPNE, 2)]
    return rows


@st.composite
def programs(draw):
    """A random straight line in a runnable ``main`` (module docs)."""
    stack, body = list(ENTRY), []
    for _ in range(draw(st.integers(1, 20))):
        op, a, b, pops, pushes = draw(st.sampled_from(_candidates(stack)))
        body.append((op, a, b))
        del stack[len(stack) - pops:]
        stack += pushes
    kind, op, pops = draw(st.sampled_from(_closers(stack)))
    # The start is a target only on the typed stack the line started on.
    where = draw(st.sampled_from(
        ("next", "taken", "start")
        if "".join(stack[:len(stack) - pops]) == ENTRY
        else ("next", "taken")))
    return {
        "ints": draw(st.lists(st.sampled_from(INTS), min_size=3,
                              max_size=3)),
        "floats": draw(st.lists(st.sampled_from(FLOATS), min_size=2,
                                max_size=2)),
        "array": draw(st.lists(st.sampled_from(INTS), min_size=3,
                               max_size=3)),
        "body": body, "closer": (kind, op), "where": where,
        "keys": draw(st.lists(st.sampled_from(INTS), min_size=1,
                              max_size=3, unique=True)),
        "budgets": draw(st.lists(st.integers(1, 40), min_size=1,
                                 max_size=12)),
    }


def _build(spec):
    pb = ProgramBuilder("line", main_class="Test")
    cb = pb.cls("Test")
    cb.static_field("s")
    m = cb.method("main", static=True)
    m.iconst(3).newarray(ArrayType.INT).astore(0)
    for index, value in enumerate(spec["array"]):
        m.aload(0).iconst(index).iconst(value).iastore()
    m.aconst_null().astore(1)
    for local, value in zip((2, 3, 4), spec["ints"]):
        m.iconst(value).istore(local)
    for local, value in zip((5, 6), spec["floats"]):
        m.fconst(value).fstore(local)
    m.iconst(0).istore(7).fconst(0.0).fstore(8)
    # The line starts right after a full handler, on ENTRY: values it
    # reads from the stack it finds.
    m.iload(2).iload(3).getstatic("Test", "s")
    start, nxt, taken = m.new_label(), m.new_label(), m.new_label()
    m.bind(start)
    for op, a, b in spec["body"]:
        m.emit(op, a, b)
    kind, op = spec["closer"]
    target = {"next": nxt, "taken": taken, "start": start}[spec["where"]]
    if kind in ("goto", "if"):
        getattr(m, op.name.lower())(target)
    elif kind == "tableswitch":
        m.tableswitch(spec["keys"][0], [target, nxt], taken)
    elif kind == "lookupswitch":
        m.lookupswitch({k: target for k in spec["keys"]}, nxt)
    # Each exit marks itself and spins, so the frame stays observable.
    for label, mark in ((nxt, 1), (taken, 2)):
        m.bind(label)
        spin = m.new_label()
        m.iinc(7, mark).bind(spin)
        m.goto(spin)
    return pb.build()


def _norm(value):
    if isinstance(value, JArray):
        return ("array", value.atype, tuple(map(_norm, value.data)))
    if isinstance(value, float):
        return ("float", repr(value))
    return value


def _templates(emits) -> Counter:
    counts = Counter()
    for t, k in emits.items():
        counts[t.name, t.base_pc, t.n, t.cycles] += k
    return counts


def _recorded(sink) -> tuple:
    """A recording sink's log, its patch streams and the bytes of the
    trace it freezes to."""
    log = sink.trace().log
    return ([(t.name, t.base_pc, t.n, t.cycles) for t in sink.appenders()[0]],
            log.eas.tolist(), log.takens.tolist(), log.targets.tolist(),
            log.to_bytes())


def _stepped(program, config: RunConfig, budgets) -> list:
    """The observable state after each step of the main thread."""
    vm = JavaVM(program, config)
    vm.boot()
    thread = vm.threads[0]
    seen, executed = [], 0
    for budget in itertools.islice(itertools.cycle(budgets), 100):
        if executed > 300:
            break
        executed += budget
        error = None
        try:
            vm.interp.step(thread, budget)
        except Exception as exc:  # noqa: BLE001 - compared as data
            error = (type(exc).__name__, str(exc))
        frame = thread.frames[-1] if thread.frames else None
        seen.append((
            error, thread.state,
            None if frame is None else (
                frame.ip, frame.emit_mode, [_norm(v) for v in frame.stack],
                [_norm(v) for v in frame.locals]),
            vm.sink.cycles, _templates(vm.sink.emits),
            list(vm.opcode_counts), vm.profiler.snapshot(),
            _recorded(vm.sink) if config.record else None))
        if error:
            break
    return seen


def _force(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(lines_mod, "HOT_CYCLES", 0 if on else 10**18)
    monkeypatch.setattr(lines_mod, "VISITS", 1)


def _fixed(body, ints=(5, 0, 7), closer=("fall", None),
           where="next") -> dict:
    """A spec of ``body`` with budget to spare for the whole line."""
    return {"ints": list(ints), "floats": [math.nan, 1.5],
            "array": [1, 2, 3], "body": body, "closer": closer,
            "where": where, "keys": [0], "budgets": [60]}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(spec=programs())
# Whatever the draw: raises deep in a line, charged up to the op before,
# and entry values rewritten in new slots.
@example(spec=_fixed([(Op.ILOAD, 2, 0), (Op.ILOAD, 3, 0), (Op.POP, 0, 0),
                      (Op.ILOAD, 3, 0), (Op.IDIV, 0, 0)]))
@example(spec=_fixed([(Op.ILOAD, 4, 0), (Op.ALOAD, 1, 0), (Op.ICONST, 1, 0),
                      (Op.IALOAD, 0, 0)]))
@example(spec=_fixed([(Op.ILOAD, 2, 0), (Op.FLOAD, 5, 0), (Op.F2I, 0, 0)]))
@example(spec=_fixed([(Op.SWAP, 0, 0), (Op.POP, 0, 0), (Op.ILOAD, 2, 0)],
                     ints=(5, 9, 7)))
def test_line_matches_op_by_op(config, spec, monkeypatch):
    program = _build(spec)
    runs = []
    for on in (True, False):
        _force(monkeypatch, on)
        runs.append(_stepped(program, CONFIGS[config], spec["budgets"]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(spec=programs())
# Raises deep in a line, and taken back edges to the line's start (the
# back-edge hook runs under tiered): the line logs only what precedes.
@example(spec=_fixed([(Op.ILOAD, 2, 0), (Op.ILOAD, 3, 0), (Op.POP, 0, 0),
                      (Op.ILOAD, 3, 0), (Op.IDIV, 0, 0)]))
@example(spec=_fixed([(Op.ILOAD, 4, 0), (Op.ALOAD, 0, 0), (Op.ICONST, 1, 0),
                      (Op.IALOAD, 0, 0), (Op.ALOAD, 1, 0), (Op.ICONST, 1, 0),
                      (Op.IALOAD, 0, 0)]))
@example(spec=_fixed([(Op.ILOAD, 2, 0), (Op.ISTORE, 4, 0)],
                     closer=("goto", Op.GOTO), where="start"))
@example(spec=_fixed([(Op.ILOAD, 2, 0), (Op.IINC, 2, -3)],
                     closer=("if", Op.IFGT), where="start"))
# Switches on a negative key: its jump-table entry wraps (``_switch_eas``).
@example(spec=_fixed([(Op.ALOAD, 0, 0), (Op.ICONST, 2, 0), (Op.ILOAD, 4, 0),
                      (Op.IASTORE, 0, 0), (Op.ILOAD, 2, 0)], ints=(-1, 0, 7),
                     closer=("tableswitch", Op.TABLESWITCH), where="taken"))
@example(spec=_fixed([(Op.ILOAD, 2, 0)], ints=(-1, 0, 7),
                     closer=("lookupswitch", Op.LOOKUPSWITCH), where="taken"))
def test_recording_line_matches_op_by_op(config, spec, monkeypatch):
    """The same relation under a recording sink."""
    program = _build(spec)
    runs = []
    for on in (True, False):
        _force(monkeypatch, on)
        runs.append(_stepped(program, CONFIGS[config].replace(record=True),
                             spec["budgets"]))
    assert runs[0] == runs[1]


def test_lines_run_when_forced(monkeypatch):
    """The relation above compares something: forced on, a line is
    built at the first op after the handler and runs."""
    spec = {"ints": [1, 2, 3], "floats": [1.5, 2.5], "array": [1, 2, 3],
            "body": [(Op.ILOAD, 2, 0), (Op.ILOAD, 3, 0), (Op.IADD, 0, 0),
                     (Op.ISTORE, 4, 0)],
            "closer": ("fall", None), "where": "next",
            "keys": [0], "budgets": [40]}
    built = []
    build = lines_mod.build

    def spy(code, start, *args):
        line = build(code, start, *args)
        built.append((start, line and line[1]))
        return line

    monkeypatch.setattr(lines_mod, "build", spy)
    _force(monkeypatch, True)
    _stepped(_build(spec), CONFIGS["interp"], spec["budgets"])
    # The body, then the fall-through block's ``iinc`` and ``goto``.
    assert any(n == 6 for _, n in built), built


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_recording_lines_log_when_forced(config, monkeypatch):
    """The recording relation compares something: forced on, lines that
    log their runs are built and run under every config."""
    spec = _fixed([(Op.ILOAD, 2, 0), (Op.ILOAD, 3, 0), (Op.IADD, 0, 0),
                   (Op.ISTORE, 4, 0)], closer=("goto", Op.GOTO),
                  where="start")
    runs = [0]
    build = lines_mod.build

    def spy(code, start, templates, hook, env, eas=None):
        line = build(code, start, templates, hook, env, eas)
        if line is None or eas is None:
            return line
        fn = line[0]

        def counted(frame):
            runs[0] += 1
            return fn(frame)
        return (counted, *line[1:])

    monkeypatch.setattr(lines_mod, "build", spy)
    _force(monkeypatch, True)
    _stepped(_build(spec), CONFIGS[config].replace(record=True),
             spec["budgets"])
    assert runs[0] > 1
