"""Interprocedural escape analysis over NEW / field / invoke flows.

Proves allocation sites *thread-local*: an object allocated at a
non-escaping site is only ever reachable from the allocating frame (and
callee frames during calls), so every monitor operation on it is by the
allocating thread and the VM may elide the lock — the static analogue
of the paper's Table 3 observation that most lock acquisitions never
contend.

Per-parameter escape summaries form a three-point lattice::

    NO_ESCAPE (0)  <  RETURNED (1)  <  GLOBAL (2)

``RETURNED`` means the callee may return (an alias of) the argument —
the value stays in the caller's hands (``StringBuffer.append`` returning
``this`` is the canonical case).  ``GLOBAL`` means it may become
reachable beyond the caller: stored to a static or an object field,
stored into an array, passed to an unknown callee, or handed to an
unannotated native.

Intraprocedural facts are origin sets flowing through stack and locals:
``("p", slot)`` for parameters, ``("a", idx)`` for allocation sites.
Summaries are solved by a worklist fixpoint over the whole program —
monotone over a finite lattice, so it terminates; virtual calls join
the summaries of every by-name candidate target reachable from the
static receiver class.  Native methods default to all-``GLOBAL``
unless they carry a ``native_escape`` annotation.

Deliberate conservatisms (documented in docs/analysis.md): field
stores are field-insensitive (the stored value escapes even if the base
object is local), and an allocation returned out of its allocating
method is treated as escaped rather than tracked into callers.
"""

from __future__ import annotations

from collections import deque

from ...isa.method import Method, Program
from ...isa.opcodes import Op, OPINFO
from ...isa.pool import MethodRef
from ...isa.verifier import VerifyError, _stack_delta
from .cfg import build_cfg
from .findings import Finding
from .solver import DataflowProblem, solve

NO_ESCAPE = 0
RETURNED = 1
GLOBAL = 2

_NATIVE_LEVELS = {"none": NO_ESCAPE, "returned": RETURNED, "global": GLOBAL}

_EMPTY: frozenset = frozenset()


class _OriginProblem(DataflowProblem):
    """Forward flow of origin sets; states are ``(stack, locals)``."""

    direction = "forward"

    def __init__(self, summaries: "EscapeSummaries") -> None:
        self.summaries = summaries
        # events observed by the reporting pass (None while iterating)
        self.events = None

    def boundary(self, method: Method):
        locs = [_EMPTY] * method.max_locals
        for i in range(method.n_param_slots):
            locs[i] = frozenset(((("p", i)),))
        return ((), tuple(locs))

    def bottom(self, method: Method):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (tuple(x | y for x, y in zip(a[0], b[0])),
                tuple(x | y for x, y in zip(a[1], b[1])))

    def _escape(self, origins) -> None:
        if self.events is not None:
            self.events["global"] |= origins

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        stack, locs = list(state[0]), list(state[1])
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
            if op is Op.PUTSTATIC:
                self._escape(pop())
            elif op is Op.PUTFIELD:
                self._escape(pop())   # the stored value escapes
                pop()                 # the base object does not
            elif op is Op.GETFIELD:
                pop()
                stack.append(_EMPTY)
            else:  # GETSTATIC
                stack.append(_EMPTY)
        elif kind == "array":
            if OPINFO[op].pops == 3:     # typed array stores
                self._escape(pop())      # stored value escapes the frame
                pop()
                pop()
            elif op is Op.ARRAYLENGTH:
                pop()
                stack.append(_EMPTY)
            else:                        # typed array loads
                pop()
                pop()
                stack.append(_EMPTY)
        elif kind == "invoke":
            result = self._transfer_invoke(method, instr, pop)
            if result is not None:
                stack.append(result)
        elif kind == "typecheck":
            t = pop()
            stack.append(t if op is Op.CHECKCAST else _EMPTY)
        elif kind == "return":
            if op is Op.ARETURN:
                t = pop()
                if self.events is not None:
                    self.events["returned"] |= t
            elif OPINFO[op].pops:
                pop()
        elif kind == "monitor":
            t = pop()
            if self.events is not None:
                self.events["monitors"].setdefault(idx, set()).update(t)
        else:
            # const/iinc/binop/unop/branch/switch/misc: nothing tracked
            try:
                pops, pushes = _stack_delta(method, instr)
            except VerifyError:
                return (tuple(stack), tuple(locs))
            if pops:
                del stack[len(stack) - pops:]
            stack.extend(_EMPTY for _ in range(pushes))
        return (tuple(stack), tuple(locs))

    def _transfer_invoke(self, method: Method, instr, pop):
        ref = method.pool[instr.a]
        if not isinstance(ref, MethodRef):
            return None
        n_args = ref.argc + (0 if instr.op is Op.INVOKESTATIC else 1)
        # stack: [receiver,] arg1 .. argN — pop args last-first
        arg_origins = [pop() for _ in range(n_args)]
        arg_origins.reverse()
        targets = self.summaries.program.call_targets(instr.op, ref)
        result = _EMPTY
        if targets is None:
            # unknown callee: everything handed to it escapes
            for origins in arg_origins:
                self._escape(origins)
        else:
            for slot, origins in enumerate(arg_origins):
                level = max((self.summaries.summary(t)[slot]
                             for t in targets), default=GLOBAL)
                if level == GLOBAL:
                    self._escape(origins)
                elif level == RETURNED:
                    result = result | origins
        return result if ref.has_result else None


class MethodEscape:
    """Per-method analysis product."""

    __slots__ = ("summary", "alloc_sites", "escaped_allocs",
                 "elidable_allocs", "monitor_sites")

    def __init__(self, summary, alloc_sites, escaped_allocs,
                 elidable_allocs, monitor_sites) -> None:
        self.summary = summary                   # per-param escape levels
        self.alloc_sites = alloc_sites           # reachable NEW* indices
        self.escaped_allocs = escaped_allocs
        self.elidable_allocs = elidable_allocs   # provably thread-local
        self.monitor_sites = monitor_sites       # idx -> True if elidable


def _method_escape(events, alloc_sites) -> MethodEscape:
    """The per-method product of one analysis (summary set by the
    caller once the fixpoint is reached)."""
    escaped = {i for i in alloc_sites
               if ("a", i) in events["global"]
               or ("a", i) in events["returned"]}
    elidable = frozenset(alloc_sites - escaped)
    monitor_sites = {}
    for idx, origins in events["monitors"].items():
        monitor_sites[idx] = bool(origins) and all(
            o[0] == "a" and o[1] in elidable for o in origins)
    return MethodEscape(None, frozenset(alloc_sites), frozenset(escaped),
                        elidable, monitor_sites)


class EscapeSummaries:
    """Whole-program escape fixpoint plus per-method results."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._summary: dict[Method, tuple] = {}
        self._info: dict[Method, MethodEscape | None] = {}
        self._solve()

    # -- fixpoint -----------------------------------------------------------

    def summary(self, method: Method) -> tuple:
        s = self._summary.get(method)
        if s is not None:
            return s
        if method.is_native:
            ann = getattr(method, "native_escape", None)
            if ann is None:
                s = (GLOBAL,) * method.n_param_slots
            else:
                s = tuple(_NATIVE_LEVELS[a] for a in ann)
                if len(s) < method.n_param_slots:
                    s = s + (GLOBAL,) * (method.n_param_slots - len(s))
        else:
            s = (NO_ESCAPE,) * method.n_param_slots   # optimistic seed
        self._summary[method] = s
        return s

    def _analyze(self, method: Method):
        """One intraprocedural pass under the current summaries."""
        problem = _OriginProblem(self)
        cfg = build_cfg(method)
        solution = solve(method, problem, cfg=cfg)
        events = {"global": set(), "returned": set(), "monitors": {}}
        problem.events = events
        alloc_sites = set()
        for i, instr in enumerate(method.code):
            if solution.in_states[i] is None:
                continue
            if OPINFO[instr.op].kind == "new":
                alloc_sites.add(i)
            problem.transfer(method, i, instr, solution.in_states[i])
        problem.events = None
        return events, alloc_sites

    def _callers(self, methods) -> dict:
        """method -> the methods whose code may call it, in code order
        (by ``Program.call_targets``, reachable or not)."""
        callers: dict[Method, dict] = {}
        for m in methods:
            for instr in m.code:
                if OPINFO[instr.op].kind != "invoke":
                    continue
                ref = m.pool[instr.a]
                if not isinstance(ref, MethodRef):
                    continue
                for t in self.program.call_targets(instr.op, ref) or ():
                    callers.setdefault(t, {})[m] = None
        return callers

    def _solve(self) -> None:
        """Worklist fixpoint: every method is analyzed once in code
        order, and a method is analyzed again only when the summary of
        a method it may call changed.  Each method's results come from
        its last analysis, which saw the final summaries of its
        callees."""
        bytecode_methods = [m for m in self.program.all_methods()
                            if not m.is_native and m.code]
        for m in bytecode_methods:
            self.summary(m)   # seed
        callers = self._callers(bytecode_methods)
        queue = deque(bytecode_methods)
        queued = set(bytecode_methods)
        info = self._info
        while queue:
            m = queue.popleft()
            queued.discard(m)
            if m in info and info[m] is None:
                continue          # unverifiable: stays all-GLOBAL
            try:
                events, alloc_sites = self._analyze(m)
            except VerifyError:
                info[m] = None
                new = (GLOBAL,) * m.n_param_slots
            else:
                info[m] = _method_escape(events, alloc_sites)
                new = tuple(
                    GLOBAL if ("p", slot) in events["global"]
                    else RETURNED if ("p", slot) in events["returned"]
                    else NO_ESCAPE
                    for slot in range(m.n_param_slots))
            if new != self._summary[m]:
                self._summary[m] = new
                for caller in callers.get(m, ()):
                    if caller not in queued:
                        queued.add(caller)
                        queue.append(caller)
        for m in bytecode_methods:
            if info[m] is not None:
                info[m].summary = self._summary[m]

    # -- public -------------------------------------------------------------

    def info(self, method: Method) -> MethodEscape | None:
        return self._info.get(method)

    def elidable_allocs(self, method: Method) -> frozenset:
        info = self._info.get(method)
        return info.elidable_allocs if info is not None else frozenset()

    def findings(self, method: Method) -> list[Finding]:
        """``RL005`` info findings for provably-elidable monitor sites."""
        info = self._info.get(method)
        if info is None:
            return []
        qn = method.qualified_name
        return [Finding("RL005", qn, idx,
                        "monitor operand is a non-escaping allocation; "
                        "the lock is elidable")
                for idx, ok in sorted(info.monitor_sites.items()) if ok]


def analyze_program(program: Program) -> EscapeSummaries:
    return EscapeSummaries(program)
