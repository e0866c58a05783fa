"""Hot straight lines: runs of pure ops executed as one generated function.

Under a plain :class:`~repro.native.trace.CountingSink` or
:class:`~repro.native.trace.RecordingSink`, the stepper runs the pure
ops of a *hot* method line by line.  A method is hot once it has been
charged :data:`HOT_CYCLES` cycles, and a line is generated at an ``ip``
the stepper has then reached :data:`VISITS` times.  A line runs forward
over consecutive pure ops.  It ends after its first ``goto``,
conditional branch or switch, before the first op with a full handler
or an ``ldc``, or after :data:`MAX_OPS` ops.  :func:`build` turns it
into one Python function, as Shade's translation cache turned a hot
block into one host routine.

The function keeps operands in Python locals instead of pushing and
popping ``frame.stack``.  It reads each entry value it consumes from
the untouched stack, writes ``frame.locals`` as each store happens, and
writes the stack and ``frame.ip`` once, at the end.  The stepper adds
the line's cycles.  The line only counts its run in its ``hits`` cell;
:meth:`Lines.fold` turns the runs into opcode counts
(``vm.opcode_counts``) and template counts (``sink.emits``), and both
attributes fold before they are read, so the counts are exact whenever
anything reads them.

Under a recording sink a line also logs its run in one step, as
Shade's translated blocks wrote their own trace records: one ``extend``
of the sink's log with the line's templates and one of its eas, the
branch's ``taken`` outcome or the switch's ``target``, and one test of
the sink's pack threshold.  The eas are the ones each op's row in
:mod:`repro.vm.pureops` lays out for its interpreter template, or its
chunk's ``ea_plan`` assembles around the row's dynamic addresses, each
written as a base plus a constant offset.  The bases are what the line
reads on entry (the bytecode address of its first op, the stack slot
at its entry depth and the first local, or, compiled, the frame's
base) and the arrays and switch keys it touches.  A compiled switch's
target is the pc of the first chunk at or after the ip it lands on
(:attr:`~repro.vm.jit.chunks.CompiledMethod.landing`).
Folding sinks fuse emissions across ops and never run lines.

Exactness, against running the same ops one at a time:

- **A raising op.**  The ops that can raise on well-typed operands (a
  zero divisor, ``f2i`` of a NaN or infinity, an array op or
  ``arraylength`` on null or out of bounds) run inside a ``try``.  If
  op ``j`` raises, its handler leaves the stack and ``frame.ip`` as the
  op's ``sem`` would (with its operands popped), counts ops
  ``0..j`` in the opcode counts and the templates of ops ``0..j-1``,
  logs ops ``0..j-1`` under a recording sink, and re-raises.  The
  stepper charges ``prefix[j]``, the cycles of the ops before ``j``.  A
  line assumes the verifier's typing: an op given an operand of the
  wrong type may raise another message than its ``sem``, or leave the
  frame otherwise.
- **A taken backward branch** under a back-edge hook returns having
  counted and logged everything but the branch: True, or, from an
  interpreted frame under a recording sink, the branch's eas.  The
  stepper charges ``head``, the cycles of the ops before the branch,
  and then emits the branch and runs the hook as it does for a single
  op.
- **The budget.**  The stepper takes a line only if all ``n`` of its
  ops fit the remaining budget; otherwise it runs the ops one at a time.

:func:`build` writes each op from its row in :mod:`repro.vm.pureops`,
the one the op's ``sem`` is generated from, through
:func:`~repro.vm.pureops.statements`: the same expressions, operand
names bound to the line's symbolic values.  Tables,
visit counts and deferred counts belong to one VM's :class:`Lines` and
die with it.  The compiled code of each line's source is shared by the
whole process (:data:`_SHAPES`): it refers to no VM object, since a
line binds its constants, its cells and the sink's lists as default
arguments when it is made.
"""

from __future__ import annotations

import time
from operator import add
from types import CodeType, FunctionType

from ..native import trace as _trace
from ..native.layout import WORD_BYTES
from . import pureops
from .interp_templates import shared_templates
from .pureops import ea_expr
from .threads import EMIT_COMPILED, EMIT_INTERP

#: A method's lines are generated once it has been charged this many
#: cycles ...
HOT_CYCLES = 20_000
#: ... and an ``ip`` has been reached this many times: a line started by
#: the budget's cut is seldom reached again.
VISITS = 16
#: The most ops in one line.
MAX_OPS = 16

#: Each line source compiled in this process -> its code.  Lines of one
#: shape differ only in the constants bound when each is made.
_SHAPES: dict = {}
#: :data:`_SHAPES` starts over past this many sources, so a process that
#: runs many programs keeps it bounded.
_MAX_SHAPES = 2048
#: Every op a line may hold; a line ends after the branches.
_LINEABLE = frozenset(op for row in pureops.ROWS if not row.vm
                      for op in row.ops)
#: The recording sink's lists and pack step, as a line names them.
_SINK_NAMES = ("log", "E", "K", "G", "pack")


def _fixup(start: int, ops: list, templates: list, oc: list,
           emits: dict, sink, offsets: dict):
    """The handler every raising op of one line calls: op ``j`` raised
    with ``consumed`` entry values gone and ``live`` above them.  Under
    a recording sink (``sink``, its
    :meth:`~repro.native.trace.RecordingSink.appenders`), ops
    ``0..j-1`` made eas over ``bases``, and ``offsets[j]`` picks each
    ea's base and gives its offset."""
    log, eas, _, _, pack = sink or (None,) * 5

    def raised(frame, j, consumed, live, bases=()):
        stack = frame.stack
        if consumed:
            del stack[-consumed:]
        stack.extend(live)
        frame.ip = start + j + 1
        for op in ops[:j + 1]:
            oc[op] += 1
        for t in templates[:j]:
            if t is not None:
                emits[t] = emits.get(t, 0) + 1
                if log is not None:
                    log.append(t)
        if bases:
            picks, offs = offsets[j]
            eas.extend(map(add, map(bases.__getitem__, picks), offs))
            if len(eas) > _trace._PACK_VALUES:
                pack()
    return raised


class _InterpEas:
    """The eas an op's interpreter template logs (its row's ``eas``),
    as ``(base, offset)`` pairs over ``b``, the bytecode address of the
    line's first op, ``s``, the stack slot at the line's entry depth,
    and ``l``, the first local."""

    #: At a taken back edge the line hands the stepper the branch's eas.
    hands_eas = True

    def __init__(self, offsets, start: int) -> None:
        self.offsets, self.start = offsets, start

    def base(self, w: "_Writer", name: str) -> str:
        if name == "b":
            return f"frame.bc_addr + {w.const(self.offsets[self.start])}"
        if name == "s":
            return f"frame.stack_addr + {WORD_BYTES} * len(frame.stack)"
        return "frame.locals_addr"

    def target(self, w: "_Writer", target: str):
        return None

    def __call__(self, w: "_Writer", ip: int, instr, r: int, row,
                 names: dict) -> list:
        """Op ``instr`` of ``row`` at ``ip``, ``r`` values above the
        entry depth, its row's names bound to ``names``."""
        bc_off = self.offsets[ip] - self.offsets[self.start]
        fixed = {"b": bc_off, "s": WORD_BYTES * r, "l": WORD_BYTES * instr.a}
        # An ea over the op's own bytecode is written over the line's.
        names = {**names, "bc": "b"}
        return [w.at(base, fixed[base] + off) if base in fixed
                else (base.format_map(names),
                      off + bc_off if "{bc}" in base else off)
                for base, off in row.eas]


class _ChunkEas:
    """The eas an op's compiled chunk logs: its ``ea_plan``, read when
    the line is built, with frame-relative entries over ``f``, the
    frame's base, and the rest from its row's ``dyn``."""

    hands_eas = False

    def __init__(self, chunks, landing) -> None:
        self.chunks, self.landing = chunks, landing

    def base(self, w: "_Writer", name: str) -> str:
        return "frame.frame_base"

    def target(self, w: "_Writer", target: str) -> str:
        return f"{w.const(self.landing)}[{target}]"

    def __call__(self, w: "_Writer", ip: int, instr, r: int, row,
                 names: dict) -> list:
        chunk = self.chunks[ip]
        if chunk is None:
            return []
        dyn = [(base.format_map(names), off) for base, off in row.dyn]
        plan = chunk.ea_plan
        if plan is None:
            return dyn
        rest = iter(dyn)
        return [w.at("f", value) if rel else next(rest)
                for rel, value in plan]


class _Writer:
    """Source of one line function, written op by op.

    The operand stack is symbolic: ``sym`` holds one Python expression
    per value above the ``consumed`` entry values the line has taken
    from ``frame.stack``.  Every expression is a name bound once, a
    constant or ``None``, so a value means the same wherever it is
    read.  ``eas`` writes each op's effective addresses when the line
    logs its run (a recording sink), and is None otherwise."""

    def __init__(self, eas=None) -> None:
        self.out: list[str] = []
        self.sym: list[str] = []
        self.consumed = 0
        self.names = 0
        self.consts: dict[str, object] = {}
        self.local: dict[int, str] = {}
        self.uses_stack = self.uses_locals = False
        self.eas = eas
        #: Each base an ea is written over -> its definition.
        self.bases: dict[str, str] = {}
        #: Per op so far: its template (None: it emits nothing) and eas.
        self.logged: list[tuple] = []
        #: Per raising op, the eas of the ops before it: which of the
        #: bases it passes its handler each is over, and the offsets.
        self.raising: dict[int, tuple] = {}

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def const(self, value) -> str:
        name = f"k{len(self.consts)}"
        self.consts[name] = value
        return name

    def emit(self, line: str, depth: int = 1) -> None:
        self.out.append("    " * depth + line)

    def depth(self) -> int:
        """The symbolic stack's depth over the line's entry depth."""
        return len(self.sym) - self.consumed

    def take(self, k: int) -> list[str]:
        """The top ``k`` values, reading entry values as needed."""
        while len(self.sym) < k:
            self.uses_stack = True
            self.consumed += 1
            name = f"e{self.consumed}"
            self.emit(f"{name} = stack[-{self.consumed}]")
            self.sym.insert(0, name)
        return self.sym[len(self.sym) - k:]

    def pop(self, k: int) -> list[str]:
        values_ = self.take(k)
        del self.sym[len(self.sym) - k:]
        return values_

    def load(self, index: int) -> str:
        self.uses_locals = True
        name = self.local.get(index)
        if name is None:
            name = self.local[index] = self.fresh()
            self.emit(f"{name} = L[{index}]")
        return name

    def store(self, index: int, expr: str) -> None:
        self.uses_locals = True
        self.emit(f"L[{index}] = {expr}")
        self.local[index] = expr

    def at(self, base: str, off: int) -> tuple:
        """The address ``off`` bytes past ``base``, read on entry."""
        if base not in self.bases:
            self.bases[base] = self.eas.base(self, base)
        return base, int(off)

    def note(self, template, ip: int, instr, r: int, row,
             names: dict) -> None:
        """Op ``instr`` at ``ip`` emits ``template`` (see ``eas``)."""
        eas = [] if self.eas is None or template is None \
            else self.eas(self, ip, instr, r, row, names)
        self.logged.append((template, eas))

    def eas_of(self, lo: int, hi: int) -> list:
        return [ea for _, eas in self.logged[lo:hi] for ea in eas]

    def log(self, lo: int, hi: int, taken: str | None = None,
            target: str | None = None) -> None:
        """Statements logging the run of ops ``lo..hi-1`` under a
        recording sink: the last op's ``taken`` outcome or its switch
        ``target`` with it.  None when the line logs nothing."""
        if self.eas is None:
            return
        templates = tuple(t for t, _ in self.logged[lo:hi] if t is not None)
        eas = self.eas_of(lo, hi)
        if len(templates) == 1:
            self.emit(f"log.append({self.const(templates[0])})")
        elif templates:
            self.emit(f"log.extend({self.const(templates)})")
        if eas:
            items = "".join(ea_expr(*ea) + ", " for ea in eas)
            self.emit(f"E.extend(({items}))")
        if self.logged[hi - 1][0] is not None:
            if taken is not None:
                self.emit(f"K.append({taken})")
            if target and (expr := self.eas.target(self, target)) \
                    is not None:
                self.emit(f"G.append({expr})")
        if eas:
            self.emit(f"if len(E) > {_trace._PACK_VALUES}:")
            self.emit("pack()", 2)

    def handed(self) -> str:
        """What the line returns at a taken back edge (module docs)."""
        if self.eas is None or not self.eas.hands_eas:
            return "True"
        return f"({''.join(ea_expr(*ea) + ', ' for ea in self.logged[-1][1])})"

    def commit(self) -> None:
        """Write the symbolic stack back over the consumed entries."""
        keep, live = self.consumed, list(self.sym)
        # Entry values still in their own slots need no write.
        while keep and live and live[0] == f"e{keep}":
            keep -= 1
            live.pop(0)
        self.uses_stack |= bool(keep or live)
        if not keep:
            if len(live) == 1:
                self.emit(f"stack.append({live[0]})")
            elif live:
                self.emit(f"stack.extend(({', '.join(live)},))")
        elif not live:
            self.emit(f"del stack[-{keep}:]")
        elif keep == len(live) == 1:
            self.emit(f"stack[-1] = {live[0]}")
        else:
            self.emit(f"stack[-{keep}:] = ({', '.join(live)},)")

    def guarded(self, raising: bool, j: int, body: list[str]) -> None:
        """``body`` as op ``j``.  If the op can raise on well-typed
        operands, a ``try`` leaves the stack as the op's ``sem`` would,
        its operands popped (module docs)."""
        if not raising:
            for text in body:
                self.emit(text)
            return
        self.emit("try:")
        for text in body:
            self.emit(text, 2)
        self.emit("except BaseException:")
        args = f"{j}, {self.consumed}, ({''.join(v + ', ' for v in self.sym)})"
        # Under a recording sink, the distinct bases of the eas of the
        # ops before this one; the handler picks and offsets them.
        before = self.eas_of(0, j)
        if before:
            bases = list(dict.fromkeys(base for base, _ in before))
            self.raising[j] = ([bases.index(base) for base, _ in before],
                               [off for _, off in before])
            args += f", ({''.join(base + ', ' for base in bases)})"
        self.emit(f"raised(frame, {args})", 2)
        self.emit("raise", 2)


def _scan(code, start: int) -> list:
    """The instructions of the line starting at ``start``."""
    instrs = []
    for ip in range(start, min(len(code), start + MAX_OPS)):
        instr = code[ip]
        if instr.op not in _LINEABLE:
            break
        instrs.append(instr)
        if pureops.ROW[instr.op].branch:
            break
    return instrs


def build(code, start: int, templates, hook: bool, env: dict, eas=None):
    """The line starting at ``code[start]``, or None if none can.

    ``templates(ip, op)`` is what the op at ``ip`` emits (None:
    nothing); ``hook`` says whether a taken backward branch stops for
    the back-edge hook.  ``env`` names the VM's raw opcode and template
    counts, ``oc`` and ``emits``, and ``sink``, the recording sink's
    lists or None.  ``eas`` writes the effective
    addresses of each op that emits (:class:`_InterpEas`,
    :class:`_ChunkEas`) when the line logs its run, and is None when it
    only counts it.

    Returns ``(fn, n, cycles, head, branch, prefix, tally)``.
    ``fn(frame)`` runs the line and returns something true at a taken
    backward branch under the hook (module docs).  Its ``n`` ops cost
    ``cycles``, or ``head`` plus the ``branch`` template's when the hook
    stops them; ``prefix[j]`` is the cost of the ops before op ``j``.
    ``tally`` is ``(hits, ops, templates, back)``: ``fn`` counts a run
    in ``hits[0]``, or in ``hits[1]`` when it stops for the hook, and
    :meth:`Lines.fold` adds the runs' opcode and template counts."""
    instrs = _scan(code, start)
    if not instrs:
        return None
    n = len(instrs)
    ops = [int(instr.op) for instr in instrs]
    tpls = [templates(start + j, instr.op) for j, instr in enumerate(instrs)]
    costs = [0 if t is None else t.cycles for t in tpls]
    prefix = tuple(sum(costs[:j]) for j in range(n))
    w = _Writer(eas)
    cond = target = None
    for j, instr in enumerate(instrs):
        op = instr.op
        row = pureops.ROW[op]
        r = w.depth()
        names = {}
        if row.imm:
            names.update(zip(row.imm, map(w.const, pureops.IMMS[op](instr))))
        if row.pops:
            names.update(zip(row.pops, w.pop(len(row.pops))))
        if row.reads_local(op):
            names["local"] = w.load(instr.a)
        body, pushed, stored, test = pureops.statements(
            row, row.ops[op], names, w.fresh)
        w.guarded(row.raising, j, body)
        if stored is not None:
            w.store(instr.a, stored)
        w.sym += pushed
        cond = test
        target = names.get("target")
        w.note(tpls[j], start + j, instr, r, row, names)
    last = instrs[-1]
    kind = pureops.ROW[last.op].branch
    # A taken backward branch leaves its own template to the stepper.
    back = hook and kind in ("goto", "if") and last.a <= start + n - 1
    w.commit()
    if not back:
        w.emit("hits[0] += 1")
    end = start + n
    # Under a recording sink, each exit logs its run once: a run that
    # stops for the hook logs all but the branch.
    if kind == "switch":
        w.log(0, n, target=target)
        w.emit(f"frame.ip = {target}")
    elif kind == "goto":
        w.emit(f"frame.ip = {w.const(last.a)}")
        if back:
            w.log(0, n - 1)
            w.emit("hits[1] += 1")
            w.emit(f"return {w.handed()}")
        else:
            w.log(0, n)
    elif back:
        w.log(0, n - 1)
        w.emit(f"if {cond}:")
        w.emit(f"frame.ip = {w.const(last.a)}", 2)
        w.emit("hits[1] += 1", 2)
        w.emit(f"return {w.handed()}", 2)
        w.emit("hits[0] += 1")
        w.log(n - 1, n, taken="False")
        w.emit(f"frame.ip = {w.const(end)}")
    elif cond is not None:
        if w.eas is not None:
            w.emit(f"taken = {cond}")
            w.log(0, n, taken="taken")
            cond = "taken"
        w.emit(f"if {cond}:")
        w.emit(f"frame.ip = {w.const(last.a)}", 2)
        w.emit("return", 2)
        w.emit(f"frame.ip = {w.const(end)}")
    else:
        w.log(0, n)
        w.emit(f"frame.ip = {w.const(end)}")
    hits = [0, 0]
    sink = env["sink"] if eas is not None else None
    bound = {"hits": hits,
             "raised": _fixup(start, ops, tpls, env["oc"], env["emits"],
                              sink, w.raising)}
    if sink is not None:
        bound.update(zip(_SINK_NAMES, sink))
    fn = _function(w, bound)
    cycles = sum(costs)
    branch = tpls[-1] if back else None
    return (fn, n, cycles, cycles - costs[-1] if back else cycles, branch,
            prefix, (hits, ops, tpls, back))


def _function(w: _Writer, bound: dict):
    """The line ``w`` wrote, its parameters after ``frame`` bound to
    ``bound``'s values and its constants: no namespace per line.  Each
    source compiles once per process (:data:`_SHAPES`)."""
    head = []
    if w.uses_stack:
        head.append("    stack = frame.stack")
    if w.uses_locals:
        head.append("    L = frame.locals")
    head += [f"    {name} = {value}" for name, value in w.bases.items()]
    names = ["hits", "raised"]
    if w.eas is not None:
        names += _SINK_NAMES
    params = ", ".join(("frame", *names, *w.consts))
    source = "\n".join([f"def line({params}):", *head, *w.out])
    code = _SHAPES.get(source)
    if code is None:
        if len(_SHAPES) >= _MAX_SHAPES:
            _SHAPES.clear()
        module = compile(source, "<line>", "exec")
        code = _SHAPES[source] = next(
            c for c in module.co_consts if isinstance(c, CodeType))
    return FunctionType(code, pureops.GLOBALS, "line",
                        (*map(bound.__getitem__, names), *w.consts.values()))


class Lines:
    """One VM's hot lines: the tables of its hot methods, and the lines'
    runs not yet folded into the counts.  Under a recording sink its
    lines also log their runs (module docs)."""

    def __init__(self, vm, sink, hook: bool) -> None:
        self.hook = hook
        self.records = sink.records
        self.env = {"oc": vm.opcode_tally,
                    "emits": sink.tally,
                    "sink": sink.appenders() if sink.records else None}
        self.seconds = vm.dispatch_seconds
        self.counts = vm.dispatch_counts
        # Each hot method's profile holds its tables: one per emit mode
        # for its interpreted and inlined frames, and one per chunk list
        # for its compiled and OSR frames (which share it), keyed by the
        # list's id.  A table has one entry per ip (None until built,
        # then the line's tuple plus its timed twin at index 7, or False
        # when no line starts there), then one visit count per ip.
        self.owners: list = []  # keeps each keyed list, so its id, alive
        self.tallies: list = []

    def table(self, frame, tables: dict) -> list:
        """A new table in ``tables``, its method's, for the frame's code
        and emit mode: an entry per ip, then the ips' visit counts."""
        mode = frame.emit_mode
        if mode < EMIT_COMPILED:
            key = mode
        else:
            key = id(frame.chunks)
            self.owners.append(frame.chunks)
        size = len(frame.code)
        table = tables[key] = [None] * size + [0] * size
        return table

    def visit(self, table: list, frame, ip: int):
        """Count a visit of ``ip``, which has no entry yet, and build
        the entry on the :data:`VISITS`-th; False until then."""
        seen = ip + len(table) // 2
        table[seen] += 1
        if table[seen] < VISITS:
            return False
        entry = table[ip] = self._entry(frame, ip)
        return entry

    def _entry(self, frame, ip: int):
        mode = frame.emit_mode
        eas = None
        if mode == EMIT_INTERP:
            by_opcode = shared_templates().by_opcode

            def templates(i, op):
                return by_opcode[op]
            if self.records:
                eas = _InterpEas(frame.method.bc_offsets, ip)
        elif mode:
            chunks = frame.chunks

            def templates(i, op):
                chunk = chunks[i]
                return None if chunk is None else chunk.template
            if self.records:
                eas = _ChunkEas(chunks, frame.compiled.landing)
        else:
            def templates(i, op):
                return None
        line = build(frame.code, ip, templates, self.hook, self.env, eas)
        if line is None:
            return False
        self.tallies.append(line[6])
        return (*line, self._timed(line[0], line[1], ip))

    def _timed(self, fn, n: int, start: int):
        """``fn`` timed into the dispatch bucket of the frame's mode, as
        a ``sem`` is with the tracer on."""
        seconds, counts, clock = self.seconds, self.counts, time.perf_counter

        def timed(frame):
            mode = frame.emit_mode
            started = clock()
            try:
                back = fn(frame)
            except BaseException:
                seconds[mode] += clock() - started
                counts[mode] += frame.ip - start
                raise
            seconds[mode] += clock() - started
            counts[mode] += n
            return back
        return timed

    def fold(self) -> None:
        """Add every line's runs since the last fold to the VM's opcode
        counts and the sink's template counts."""
        oc, emits = self.env["oc"], self.env["emits"]
        for hits, ops, tpls, back in self.tallies:
            full, stopped = hits
            if not (full or stopped):
                continue
            hits[0] = hits[1] = 0
            for op in ops:
                oc[op] += full + stopped
            for j, t in enumerate(tpls):
                if t is not None:
                    # A run stopped at the back edge left the branch's
                    # template to the stepper.
                    k = stopped if not back or j < len(tpls) - 1 else 0
                    emits[t] = emits.get(t, 0) + full + k
