"""Eraser-style lockset dataflow over one method.

Extends the escape analysis' origin flow with a *held lockset*: states
are ``(stack, locals, held)`` where stack/locals carry origin-token sets
and ``held`` is the set of monitors provably held (a must-analysis —
joins intersect).  Each heap access is harvested with the base object's
origins and the lockset in force, which is all the race detector needs.

Origin tokens:

* ``("p", slot)`` — parameter (receiver is slot 0),
* ``("a", idx)`` — allocation at instruction ``idx``,
* ``("g", cls, field)`` — value read from a static field,
* ``("f", cls, field)`` — value read from an instance field,
* ``("class", cls)`` — the class object (static synchronized methods).

``("g", ...)``/``("class", ...)`` names are treated as stable lock
identities by the race detector (the usual lockset-tool assumption that
lock-holding statics are assigned once); field/param tokens only count
for self-guarding, where both sides lock the very object they access.
"""

from __future__ import annotations

from ..dataflow.solver import DataflowProblem, solve
from ..dataflow.cfg import build_cfg
from ...isa.method import Method
from ...isa.opcodes import Op, OPINFO
from ...isa.pool import MethodRef
from ...isa.verifier import VerifyError, _stack_delta
from ..dataflow.escape import GLOBAL, RETURNED

_EMPTY: frozenset = frozenset()
_NO_LOCKS: frozenset = frozenset()


class Access:
    """One heap access with its base origins and held lockset."""

    __slots__ = ("kind", "cls", "name", "index", "write", "base", "held")

    def __init__(self, kind: str, cls: str | None, name: str | None,
                 index: int, write: bool, base: frozenset | None,
                 held: frozenset) -> None:
        self.kind = kind          # "field" | "static" | "elem"
        self.cls = cls
        self.name = name
        self.index = index
        self.write = write
        self.base = base          # None for statics
        self.held = held          # frozenset of origin-frozensets

    def __repr__(self) -> str:
        rw = "W" if self.write else "R"
        return f"Access({rw} {self.kind} {self.cls}.{self.name}@{self.index})"


class MethodConcurrency:
    """Everything the interprocedural passes need from one method."""

    __slots__ = ("accesses", "monitors", "sync_calls", "calls", "stores",
                 "alloc_classes")

    def __init__(self) -> None:
        self.accesses: list[Access] = []
        #: MONITORENTER sites: (index, operand origins)
        self.monitors: list[tuple] = []
        #: calls that may lock: (index, static receiver class, is_class_lock)
        self.sync_calls: list[tuple] = []
        #: all resolved-or-not calls: (index, targets|None, arg_origins, held)
        self.calls: list[tuple] = []
        #: field stores for class inference: ((decl_cls, name), value origins)
        self.stores: list[tuple] = []
        #: reachable allocation sites: index -> class name ("[arr]" arrays)
        self.alloc_classes: dict[int, str] = {}


class _LockProblem(DataflowProblem):
    """Forward origin+lockset flow; see the module docstring."""

    direction = "forward"

    def __init__(self, summaries) -> None:
        self.summaries = summaries          # EscapeSummaries
        self.program = summaries.program
        self.events: MethodConcurrency | None = None
        self._decl_cache: dict[tuple, str] = {}

    def _decl(self, class_name: str, field_name: str) -> str:
        key = (class_name, field_name)
        decl = self._decl_cache.get(key)
        if decl is None:
            # A dangling ref keeps its symbolic class, so its key still
            # compares stably.
            owner = self.program.field_owner(class_name, field_name)
            decl = self._decl_cache[key] = (owner.name if owner
                                            else class_name)
        return decl

    def boundary(self, method: Method):
        locs = [_EMPTY] * method.max_locals
        for i in range(method.n_param_slots):
            locs[i] = frozenset((("p", i),))
        held = _NO_LOCKS
        if method.is_synchronized:
            if method.is_static:
                cls = method.jclass.name if method.jclass else "?"
                held = frozenset((frozenset((("class", cls),)),))
            else:
                held = frozenset((frozenset((("p", 0),)),))
        return ((), tuple(locs), held)

    def bottom(self, method: Method):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (tuple(x | y for x, y in zip(a[0], b[0])),
                tuple(x | y for x, y in zip(a[1], b[1])),
                a[2] & b[2])

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        stack, locs = list(state[0]), list(state[1])
        held = state[2]
        ev = self.events
        op = instr.op
        kind = OPINFO[op].kind

        def pop():
            return stack.pop() if stack else _EMPTY

        if kind == "load_local":
            stack.append(locs[instr.a])
        elif kind == "store_local":
            locs[instr.a] = pop()
        elif kind == "stack":
            if op is Op.POP:
                pop()
            elif op is Op.DUP:
                t = pop()
                stack.extend((t, t))
            elif op is Op.DUP_X1:
                b = pop()
                a = pop()
                stack.extend((b, a, b))
            else:  # SWAP
                b = pop()
                a = pop()
                stack.extend((b, a))
        elif kind == "new":
            if op is not Op.NEW:
                pop()   # array length
            stack.append(frozenset((("a", idx),)))
        elif kind == "field":
            ref = method.pool[instr.a]
            decl = self._decl(ref.class_name, ref.field_name)
            if op is Op.PUTSTATIC:
                v = pop()
                if ev is not None:
                    ev.accesses.append(Access(
                        "static", decl, ref.field_name, idx, True, None, held))
                    ev.stores.append(((decl, ref.field_name), v))
            elif op is Op.PUTFIELD:
                v = pop()
                base = pop()
                if ev is not None:
                    ev.accesses.append(Access(
                        "field", decl, ref.field_name, idx, True, base, held))
                    ev.stores.append(((decl, ref.field_name), v))
            elif op is Op.GETFIELD:
                base = pop()
                if ev is not None:
                    ev.accesses.append(Access(
                        "field", decl, ref.field_name, idx, False, base, held))
                stack.append(frozenset((("f", decl, ref.field_name),)))
            else:  # GETSTATIC
                if ev is not None:
                    ev.accesses.append(Access(
                        "static", decl, ref.field_name, idx, False, None,
                        held))
                stack.append(frozenset((("g", decl, ref.field_name),)))
        elif kind == "array":
            if OPINFO[op].pops == 3:         # typed array stores
                pop()                        # value
                pop()                        # index
                base = pop()
                if ev is not None:
                    ev.accesses.append(Access(
                        "elem", None, None, idx, True, base, held))
            elif op is Op.ARRAYLENGTH:       # length is immutable: no access
                pop()
                stack.append(_EMPTY)
            else:                            # typed array loads
                pop()                        # index
                base = pop()
                if ev is not None:
                    ev.accesses.append(Access(
                        "elem", None, None, idx, False, base, held))
                stack.append(_EMPTY)
        elif kind == "invoke":
            result, held = self._transfer_invoke(method, idx, instr, pop, held)
            if result is not None:
                stack.append(result)
        elif kind == "typecheck":
            t = pop()
            stack.append(t if op is Op.CHECKCAST else _EMPTY)
        elif kind == "return":
            if OPINFO[op].pops:
                pop()
        elif kind == "monitor":
            t = pop()
            if op is Op.MONITORENTER:
                if ev is not None:
                    ev.monitors.append((idx, t))
                held = held | frozenset((t,))
            else:
                if t in held:
                    held = held - frozenset((t,))
                else:
                    # Lost track of which lock this releases: drop them
                    # all rather than claim protection we can't prove.
                    held = _NO_LOCKS
        else:
            # const/iinc/binop/unop/branch/switch/misc: nothing tracked
            try:
                pops, pushes = _stack_delta(method, instr)
            except VerifyError:
                return (tuple(stack), tuple(locs), held)
            if pops:
                del stack[len(stack) - pops:]
            stack.extend(_EMPTY for _ in range(pushes))
        return (tuple(stack), tuple(locs), held)

    def _transfer_invoke(self, method: Method, idx: int, instr, pop, held):
        ref = method.pool[instr.a]
        if not isinstance(ref, MethodRef):
            return None, held
        n_args = ref.argc + (0 if instr.op is Op.INVOKESTATIC else 1)
        arg_origins = [pop() for _ in range(n_args)]
        arg_origins.reverse()
        targets = self.program.call_targets(instr.op, ref)
        ev = self.events
        if ev is not None:
            ev.calls.append((idx, tuple(targets) if targets else None,
                             tuple(arg_origins), held))
            if targets is not None:
                for t in targets:
                    if not t.is_synchronized:
                        continue
                    ev.sync_calls.append(
                        (idx, ref.class_name, bool(t.is_static)))
        result = _EMPTY
        if targets is not None:
            for slot, origins in enumerate(arg_origins):
                level = max((self.summaries.summary(t)[slot]
                             for t in targets), default=GLOBAL)
                if level == RETURNED:
                    result = result | origins
        return (result if ref.has_result else None), held


def analyze_method(method: Method, summaries) -> MethodConcurrency | None:
    """Lockset facts for one bytecode method (None when unverifiable)."""
    if method.is_native or not method.code:
        return None
    problem = _LockProblem(summaries)
    try:
        cfg = build_cfg(method)
        solution = solve(method, problem, cfg=cfg)
        info = MethodConcurrency()
        problem.events = info
        for i, instr in enumerate(method.code):
            if solution.in_states[i] is None:
                continue
            if OPINFO[instr.op].kind == "new":
                if instr.op is Op.NEW:
                    info.alloc_classes[i] = method.pool[instr.a].class_name
                else:
                    info.alloc_classes[i] = "[arr]"
            problem.transfer(method, i, instr, solution.in_states[i])
        problem.events = None
        return info
    except (VerifyError, ValueError):
        return None
