"""Forward constant and copy propagation.

Folds with the interpreter's exact semantics: each folded op runs the
expression of its row in ``vm.pureops``, the one the stepper and the
hot lines run (int32 wrapping, truncating division, fcmp NaN rules), so
a branch this pass calls constant really is constant at run time.

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
from ...vm import pureops
from .cfg import CFG, build_cfg
from .findings import Finding
from .solver import DataflowProblem, Solution, solve

NAC = "nac"

#: Each folded op's expression, a function of its operands (and, for
#: ``iinc``, its local and increment): the interpreter's own
#: (``vm.pureops``).  References are not folded, so neither are the
#: null and reference tests.
_FOLD = {op: fn for op, fn in enumerate(pureops.EVAL)
         if fn is not None and op not in (Op.IFNULL, Op.IFNONNULL,
                                          Op.IF_ACMPEQ, Op.IF_ACMPNE)}


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
            locs[instr.a] = (("c", _FOLD[op](v[1], instr.b))
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
            # A float division by zero is left unfolded.
            if (a[0] == "c" and b[0] == "c"
                    and not (op is Op.FDIV and b[1] == 0.0)):
                try:
                    stack.append(("c", _FOLD[op](a[1], b[1])))
                except ZeroDivisionError:
                    stack.append(NAC)   # traps at runtime; don't fold
            else:
                stack.append(NAC)
        elif kind == "unop":
            v = _value(pop(), locs)
            if v[0] == "c":
                try:
                    stack.append(("c", _FOLD[op](v[1])))
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
        n = OPINFO[op].pops
        if OPINFO[op].kind != "branch" or op not in _FOLD or len(stack) < n:
            continue
        operands = [_value(v, locs) for v in stack[-n:]]
        if all(v[0] == "c" for v in operands):
            verdict = _FOLD[op](*(v[1] for v in operands))
            findings.append(Finding(
                "RL003", qn, i,
                f"{OPINFO[op].mnemonic} is always "
                f"{'taken' if verdict else 'fall-through'}"))
    return findings
