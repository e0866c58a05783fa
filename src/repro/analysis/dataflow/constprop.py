"""Forward constant and copy propagation.

Folds with the interpreter's exact semantics (``vm.values`` int32
wrapping, fcmp NaN rules), so a branch this pass calls constant really
is constant at run time.

Value lattice per local / stack slot::

    ("c", v)   known constant (int or float)
    ("l", i)   copy of local ``i``'s value at load time (stack only)
    "nac"      not-a-constant (top)

Locals above the parameter slots start as ``("c", 0)`` — frames
zero-initialize locals, so the "uninitialized" read the typed verifier
warns about is, semantically, a constant zero.  Parameters start
``nac``.

Relation to ``vm/folding.py``: that module implements picoJava-style
*dispatch* folding — a trace-time sink that merges adjacent simple
bytecodes into one dispatch to model a folding frontend.  It operates
on dynamic traces and changes only the cost model.  This pass is the
static, semantics-level subsumption of the compile-time half of that
idea: constants are proven per program point and constant branches are
reported (``RL003``) rather than merely counted at run time.  The two
deliberately coexist — the folding sink stays as the picoJava
comparison's mechanism, experiments keep their ``folding=True`` runs.
"""

from __future__ import annotations

from ...isa.method import Method
from ...isa.opcodes import Op, OPINFO
from ...isa.pool import FloatConst
from ...vm import values
from .cfg import CFG, build_cfg
from .findings import Finding
from .solver import DataflowProblem, Solution, solve

NAC = "nac"

_INT_FOLD = {
    Op.IADD: lambda a, b: values.i32(a + b),
    Op.ISUB: lambda a, b: values.i32(a - b),
    Op.IMUL: lambda a, b: values.i32(a * b),
    Op.IDIV: values.idiv,
    Op.IREM: values.irem,
    Op.ISHL: values.ishl,
    Op.ISHR: values.ishr,
    Op.IUSHR: values.iushr,
    Op.IAND: lambda a, b: values.i32(a & b),
    Op.IOR: lambda a, b: values.i32(a | b),
    Op.IXOR: lambda a, b: values.i32(a ^ b),
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
}

_UN_FOLD = {
    Op.INEG: lambda v: values.i32(-v),
    Op.FNEG: lambda v: -v,
    Op.I2F: float,
    Op.F2I: lambda v: values.i32(int(v)),
    Op.I2B: values.i8,
    Op.I2C: values.u16,
    Op.I2S: values.i16,
}

_IF1_TESTS = {
    Op.IFEQ: lambda v: v == 0,
    Op.IFNE: lambda v: v != 0,
    Op.IFLT: lambda v: v < 0,
    Op.IFGE: lambda v: v >= 0,
    Op.IFGT: lambda v: v > 0,
    Op.IFLE: lambda v: v <= 0,
}

_IF2_TESTS = {
    Op.IF_ICMPEQ: lambda a, b: a == b,
    Op.IF_ICMPNE: lambda a, b: a != b,
    Op.IF_ICMPLT: lambda a, b: a < b,
    Op.IF_ICMPGE: lambda a, b: a >= b,
    Op.IF_ICMPGT: lambda a, b: a > b,
    Op.IF_ICMPLE: lambda a, b: a <= b,
}


class ConstProblem(DataflowProblem):
    """States are ``(stack, locals)`` tuples of lattice values."""

    direction = "forward"

    def boundary(self, method: Method):
        locs = [NAC] * method.max_locals
        for i in range(method.n_param_slots, method.max_locals):
            locs[i] = ("c", 0)
        return ((), tuple(locs))

    def bottom(self, method: Method):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (tuple(_join(x, y) for x, y in zip(a[0], b[0])),
                tuple(_join(x, y) for x, y in zip(a[1], b[1])))

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        stack, locs = list(state[0]), list(state[1])
        op = instr.op
        info = OPINFO[op]
        kind = info.kind

        def pop():
            return stack.pop() if stack else NAC

        if op is Op.ICONST:
            stack.append(("c", instr.a))
        elif op is Op.FCONST:
            stack.append(("c", float(instr.a)))
        elif op is Op.LDC:
            entry = method.pool[instr.a]
            stack.append(("c", entry.value)
                         if isinstance(entry, FloatConst) else NAC)
        elif kind == "const":
            stack.append(NAC)    # ACONST_NULL: refs are not folded
        elif kind == "load_local":
            v = locs[instr.a]
            stack.append(v if v[0] == "c" else ("l", instr.a))
        elif kind == "store_local":
            v = pop()
            if v[0] == "l":
                v = locs[v[1]] if locs[v[1]][0] == "c" else NAC
            _kill_copies(stack, locs[instr.a], instr.a)
            locs[instr.a] = v
        elif kind == "iinc":
            v = locs[instr.a]
            _kill_copies(stack, v, instr.a)
            locs[instr.a] = (("c", values.i32(v[1] + instr.b))
                             if v[0] == "c" else NAC)
        elif kind == "stack":
            if op is Op.POP:
                pop()
            elif op is Op.DUP:
                stack.append(stack[-1] if stack else NAC)
            elif op is Op.DUP_X1:
                b = pop()
                a = pop()
                stack.extend((b, a, b))
            else:  # SWAP
                b = pop()
                a = pop()
                stack.extend((b, a))
        elif kind == "binop":
            b = _value(pop(), locs)
            a = _value(pop(), locs)
            fold = _INT_FOLD.get(op)
            if fold and a[0] == "c" and b[0] == "c":
                try:
                    stack.append(("c", fold(a[1], b[1])))
                except ZeroDivisionError:
                    stack.append(NAC)   # traps at runtime; don't fold
            elif op in (Op.FCMPL, Op.FCMPG) and a[0] == "c" and b[0] == "c":
                stack.append(("c", values.fcmp(a[1], b[1],
                                               -1 if op is Op.FCMPL else 1)))
            elif op is Op.FDIV and a[0] == "c" and b[0] == "c" and b[1] != 0.0:
                stack.append(("c", a[1] / b[1]))
            else:
                stack.append(NAC)
        elif kind == "unop":
            v = _value(pop(), locs)
            if v[0] == "c":
                try:
                    stack.append(("c", _UN_FOLD[op](v[1])))
                except (OverflowError, ValueError):   # e.g. f2i of inf/nan
                    stack.append(NAC)
            else:
                stack.append(NAC)
        else:
            pops, pushes = _delta(method, instr)
            del stack[len(stack) - pops:]
            stack.extend(NAC for _ in range(pushes))
        return (tuple(stack), tuple(locs))


def _delta(method, instr):
    from ...isa.verifier import _stack_delta
    return _stack_delta(method, instr)


def _join(a, b):
    if a == b:
        # 0 == 0.0 in Python; don't conflate int and float constants
        if a[0] == "c" and type(a[1]) is not type(b[1]):
            return NAC
        return a
    return NAC


def _value(v, locs):
    """Resolve a copy to its current constant, if any."""
    if v[0] == "l":
        cur = locs[v[1]]
        return cur if cur[0] == "c" else NAC
    return v


def _kill_copies(stack, old_value, local):
    """A write to ``local`` invalidates stack copies of its old value.

    If the old value was a known constant the copies keep it; otherwise
    they degrade to not-a-constant (the copy holds the *old*, now
    unknowable, value)."""
    for i, v in enumerate(stack):
        if v[0] == "l" and v[1] == local:
            stack[i] = old_value if old_value[0] == "c" else NAC


def solve_constants(method: Method, cfg: CFG | None = None) -> Solution:
    return solve(method, ConstProblem(), cfg=cfg)


def constant_branches(method: Method, cfg: CFG | None = None) -> list[Finding]:
    """``RL003`` findings for conditional branches whose outcome is fixed."""
    cfg = cfg or build_cfg(method)
    solution = solve_constants(method, cfg=cfg)
    findings = []
    qn = method.qualified_name
    for i, instr in enumerate(method.code):
        state = solution.in_states[i]
        if state is None:
            continue
        stack, locs = state
        op = instr.op
        verdict = None
        if op in _IF1_TESTS and stack:
            v = _value(stack[-1], locs)
            if v[0] == "c":
                verdict = _IF1_TESTS[op](v[1])
        elif op in _IF2_TESTS and len(stack) >= 2:
            b = _value(stack[-1], locs)
            a = _value(stack[-2], locs)
            if a[0] == "c" and b[0] == "c":
                verdict = _IF2_TESTS[op](a[1], b[1])
        if verdict is not None:
            findings.append(Finding(
                "RL003", qn, i,
                f"{OPINFO[op].mnemonic} is always "
                f"{'taken' if verdict else 'fall-through'}"))
    return findings
