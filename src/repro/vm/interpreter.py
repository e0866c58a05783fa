"""The bytecode execution engine (semantic stepper).

One stepper executes bytecode for *both* runtime modes: the semantics
(operand stacks, heap, monitors, threads) are identical; what differs is
the native trace each executed bytecode emits — the interpreter handler
templates (``EMIT_INTERP``), the method's compiled chunks
(``EMIT_COMPILED``), or nothing for bodies inlined into their caller
(``EMIT_NONE``).  This mirrors how the paper instruments the same
program under both JVMs.

The stepper is budgeted (bytecodes per call) so the VM's green-thread
scheduler can interleave threads and so runaway programs are caught.

**Pure ops.**  Constants and ``ldc``, locals and ``iinc``, stack
shuffles, arithmetic and conversions, branches and switches, and array
loads, stores and ``arraylength`` are *pure*: each has one semantics
function ``sem(frame, instr)`` and, next to it, one effective-address
builder ``eas(frame, instr)``, and no handler.  What a pure op emits is
the interpreter template of its opcode, the frame's compiled chunk at
that ``ip``, or nothing under ``EMIT_NONE``.  A plain
:class:`CountingSink` ignores effective addresses and branch outcomes,
so under it the stepper builds nothing and counts the template inline
(``cycles += t.cycles``; ``emits[t] += 1``), and the profile is charged
that template's cycles.  Any other sink gets the op's full emission:
the builder runs before the ``sem`` and reads the interpreter
template's addresses from the pre-op stack depth and, for an array op,
``arraylength`` or a switch, from the operands the ``sem`` is about to
pop; under a compiled frame an array op's builder returns the chunk's
dynamic addresses instead (its element addresses).  A branch's outcome
is the ``sem``'s return value, and a switch's compiled target is the pc
of the chunk its ``sem`` lands on.  Every other op (invoke, return,
allocation, field access, type checks, monitors) may load classes,
compile, OSR or deoptimize mid-bytecode, so it runs its full handler
and the profile is charged the sink's cycle delta net of translate and
class-loading overhead.  Under the counting sink the invoke, native-call
and return handlers emit only their template, with no effective
addresses.

**Frame-local loop.**  The pure ops of one activation run in one inner
loop, the same for every sink and for hot and cold activations, that
keeps the frame's code, emit mode, chunks and line table in locals.
Its ``lane`` is the frame's mode under a plain counting sink, which
takes each op's template inline, and None under any other sink, for
which each op builds its addresses and emits them.  A counting sink's
cycles are summed in ``pending``; any other sink is charged by its
cycle delta over the loop, because a
:class:`~repro.vm.folding.FoldingSink` holds one emission and emits
folded variants that cost less than the template.  The charge is
written to the frame's profile (and a counting sink's ``cycles``)
whenever the loop stops: before a full handler, before the back-edge
hook (whose promotion rule reads the profile's interpreted cycles), when
the budget runs out, and when a ``sem`` raises.  The outer loop re-reads
the top frame after every handler and hook, since either may push, pop,
OSR or deoptimize.

**Hot lines.**  Under a plain counting or recording sink, a method
charged ``lines.HOT_CYCLES`` cycles is hot: its profile holds line
tables, and the frame-local loop of each of its activations holds the
table of the frame's code and mode.  Before each op it runs the
straight line of pure ops starting at ``ip`` as one generated function
(:mod:`repro.vm.lines`) once that ``ip`` has been reached
``lines.VISITS`` times, if all of the line fits the remaining budget,
so the green threads interleave exactly as op by op; otherwise the op
runs as in a cold frame.  The loop adds the line's precomputed cycles
to ``pending`` once (under a recording sink ``pending`` holds only the
lines' cycles, added to the sink's before its delta is charged); the
line counts its run, and ``vm.opcode_counts`` and ``sink.emits`` fold
the runs into the counts when read.  Under a recording sink the line
also logs its templates and patch values in one step.  If an op of the
line raises, the line leaves the frame as that op's ``sem`` would,
having logged the ops before it, and the loop charges their cycles; at
a taken backward branch the line returns before counting or logging
the branch, and the loop charges the ops before the branch and then
emits the branch as below, under either sink.  A folding sink never
runs lines.  A cold frame's table is None, so it pays one test per op,
and, when the loop charges the profile, one whether the method has
just turned hot; a hot frame's ops that no line covers pay the sink
tests a cold frame's do.  The tables and the counts die with the VM.

**Back-edge charge order.**  A taken backward ``goto``/``if`` emits,
then runs ``tiered.on_backedge``, and only then is the profile charged,
under the frame's *post-hook* emit mode: an OSR inside the hook turns
the branch's interpreter cycles into compiled cycles, and any cycles
the hook emitted, net of translate/loader overhead, are charged to this
bytecode.  Switches never run the hook.

With the tracer on, the same loop runs over semantics and handler
tables wrapped once in timing wrappers, which fill the VM's
per-emit-mode ``dispatch_seconds``/``dispatch_counts`` buckets; a line
runs through a timed twin that adds its time and its ops to the bucket
of the frame's mode.
"""

from __future__ import annotations

import time

from ..isa.opcodes import ArrayType, N_OPCODES, Op
from ..native.trace import CountingSink, RecordingSink
from ..obs import TRACER
from . import lines as _lines
from . import values
from .classloader import ClassLoader
from .interp_templates import MAX_INVOKE_ARGS, shared_templates
from .objects import JArray, JObject, JString
from .threads import EMIT_COMPILED, EMIT_INTERP, EMIT_NONE, JThread, RUNNABLE


class VMError(Exception):
    """A runtime error the simulated program caused (bad cast, bounds...)."""


def _bc_ea(frame) -> int:
    """Address of the bytecode the frame fetched last (at ``ip - 1``)."""
    return frame.bc_addr + frame.method.bc_offsets[frame.ip - 1]


# ----------------------------------------------------------------------
# the pure ops: semantics and effective addresses
# ----------------------------------------------------------------------
# ``sem(frame, instr)`` updates the frame and raises any VMError before
# anything is emitted.  A goto or conditional branch returns whether it
# was taken (the stepper runs the back-edge hook when a taken target is
# not ahead); every other op returns None.
#
# ``eas(frame, instr)`` runs after the fetch (``frame.ip`` is past the
# op) and before the ``sem``, so ``len(frame.stack)`` is the pre-op depth
# and a popped operand is still on the stack.  It returns the addresses
# the op's interpreter template reads and writes; an array op's
# ``*_dyn`` twin returns its compiled chunk's dynamic addresses.  Array
# builders return ``()`` when the operand is not an array: the ``sem``
# raises before anything is emitted.

def _nop(frame, instr):
    pass


def _bc_eas(frame, instr):
    # nop, pop and goto
    return (_bc_ea(frame),)


def _iconst(frame, instr):
    frame.stack.append(instr.a)


def _fconst(frame, instr):
    frame.stack.append(float(instr.a))


def _aconst_null(frame, instr):
    frame.stack.append(None)


def _push_eas(frame, instr):
    # iconst, fconst and aconst_null
    return (_bc_ea(frame), frame.slot_addr(len(frame.stack)))


def _ldc_eas(frame, instr):
    # the sem needs its VM's string table: ``Interpreter._ldc``
    return (_bc_ea(frame), ClassLoader.pool_ea(frame.mirror, instr.a),
            frame.slot_addr(len(frame.stack)))


def _load_local(frame, instr):
    frame.stack.append(frame.locals[instr.a])


def _load_local_eas(frame, instr):
    return (_bc_ea(frame), frame.local_addr(instr.a),
            frame.slot_addr(len(frame.stack)))


def _store_local(frame, instr):
    frame.locals[instr.a] = frame.stack.pop()


def _store_local_eas(frame, instr):
    return (_bc_ea(frame), frame.slot_addr(len(frame.stack) - 1),
            frame.local_addr(instr.a))


def _iinc(frame, instr):
    frame.locals[instr.a] = values.i32(frame.locals[instr.a] + instr.b)


def _iinc_eas(frame, instr):
    ea = frame.local_addr(instr.a)
    return (_bc_ea(frame), ea, ea)


def _pop(frame, instr):
    frame.stack.pop()


def _dup(frame, instr):
    stack = frame.stack
    stack.append(stack[-1])


def _dup_eas(frame, instr):
    d = len(frame.stack)
    return (_bc_ea(frame), frame.slot_addr(d - 1), frame.slot_addr(d))


def _dup_x1(frame, instr):
    stack = frame.stack
    b = stack.pop()
    a = stack.pop()
    stack.extend((b, a, b))


def _dup_x1_eas(frame, instr):
    d = len(frame.stack)
    s = frame.slot_addr
    return (_bc_ea(frame), s(d - 1), s(d - 2), s(d - 2), s(d - 1), s(d))


def _swap(frame, instr):
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _swap_eas(frame, instr):
    d = len(frame.stack)
    s = frame.slot_addr
    return (_bc_ea(frame), s(d - 1), s(d - 2), s(d - 1), s(d - 2))


def _binop(fn):
    def sem(frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(fn(a, b))
    return sem


def _fcmp(nan_result):
    def sem(frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(values.fcmp(a, b, nan_result))
    return sem


def _binop_eas(frame, instr):
    # two-operand arithmetic and fcmpl/fcmpg
    d = len(frame.stack)
    s = frame.slot_addr
    return (_bc_ea(frame), s(d - 2), s(d - 1), s(d - 2))


def _unop(fn):
    def sem(frame, instr):
        stack = frame.stack
        stack[-1] = fn(stack[-1])
    return sem


def _unop_eas(frame, instr):
    ea = frame.slot_addr(len(frame.stack) - 1)
    return (_bc_ea(frame), ea, ea)


def _if1(test):
    def sem(frame, instr):
        if test(frame.stack.pop()):
            frame.ip = instr.a
            return True
        return False
    return sem


def _if1_eas(frame, instr):
    return (_bc_ea(frame), frame.slot_addr(len(frame.stack) - 1))


def _if2(test):
    def sem(frame, instr):
        stack = frame.stack
        b = stack.pop()
        if test(stack.pop(), b):
            frame.ip = instr.a
            return True
        return False
    return sem


def _if2_eas(frame, instr):
    d = len(frame.stack)
    return (_bc_ea(frame), frame.slot_addr(d - 2), frame.slot_addr(d - 1))


def _goto(frame, instr):
    frame.ip = instr.a
    return True


def _tableswitch(frame, instr):
    low, targets, default = instr.extra
    index = frame.stack.pop() - low
    frame.ip = targets[index] if 0 <= index < len(targets) else default


def _lookupswitch(frame, instr):
    table, default = instr.extra
    frame.ip = table.get(frame.stack.pop(), default)


def _switch_eas(frame, instr):
    # The key's jump-table entry (a lookupswitch's key stands for it).
    stack = frame.stack
    index = (stack[-1] - instr.extra[0] if instr.op is Op.TABLESWITCH
             else stack[-1])
    bc = _bc_ea(frame)
    return (bc, frame.slot_addr(len(stack) - 1),
            bc + 12 + 4 * max(0, int(index) % 64))


def _arraylength(frame, instr):
    stack = frame.stack
    arr = stack.pop()
    if not isinstance(arr, JArray):
        raise VMError("arraylength on non-array")
    stack.append(arr.length)


def _arraylength_eas(frame, instr):
    stack = frame.stack
    arr = stack[-1]
    if not isinstance(arr, JArray):
        return ()
    ea = frame.slot_addr(len(stack) - 1)
    return (_bc_ea(frame), ea, arr.addr + 8, ea)


def _arraylength_dyn(frame, instr):
    arr = frame.stack[-1]
    return (arr.addr + 8,) if isinstance(arr, JArray) else ()


def _array_load(frame, instr):
    stack = frame.stack
    index = stack.pop()
    arr = stack.pop()
    if not isinstance(arr, JArray):
        raise VMError(f"array load on {arr!r}")
    arr.check(index)
    stack.append(arr.data[index])


def _array_load_eas(frame, instr):
    stack = frame.stack
    arr = stack[-2]
    if not isinstance(arr, JArray):
        return ()
    d = len(stack)
    s = frame.slot_addr
    return (_bc_ea(frame), s(d - 1), s(d - 2), arr.addr + 8,
            arr.elem_addr(stack[-1]), s(d - 2))


def _array_load_dyn(frame, instr):
    stack = frame.stack
    arr = stack[-2]
    if not isinstance(arr, JArray):
        return ()
    return (arr.addr + 8, arr.elem_addr(stack[-1]))


def _array_store(coerce):
    def sem(frame, instr):
        stack = frame.stack
        value = stack.pop()
        index = stack.pop()
        arr = stack.pop()
        if not isinstance(arr, JArray):
            raise VMError(f"array store on {arr!r}")
        arr.check(index)
        arr.data[index] = coerce(value)
    return sem


def _array_store_eas(frame, instr):
    stack = frame.stack
    arr = stack[-3]
    if not isinstance(arr, JArray):
        return ()
    d = len(stack)
    s = frame.slot_addr
    return (_bc_ea(frame), s(d - 1), s(d - 2), s(d - 3), arr.addr + 8,
            arr.elem_addr(stack[-2]))


def _array_store_dyn(frame, instr):
    stack = frame.stack
    arr = stack[-3]
    if not isinstance(arr, JArray):
        return ()
    return (arr.addr + 8, arr.elem_addr(stack[-2]))


_BINOPS = {
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
    Op.FDIV: values.fdiv,
}

_UNOPS = {
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
    Op.IFNULL: lambda v: v is None,
    Op.IFNONNULL: lambda v: v is not None,
}

_IF2_TESTS = {
    Op.IF_ICMPEQ: lambda a, b: a == b,
    Op.IF_ICMPNE: lambda a, b: a != b,
    Op.IF_ICMPLT: lambda a, b: a < b,
    Op.IF_ICMPGE: lambda a, b: a >= b,
    Op.IF_ICMPGT: lambda a, b: a > b,
    Op.IF_ICMPLE: lambda a, b: a <= b,
    Op.IF_ACMPEQ: lambda a, b: a is b,
    Op.IF_ACMPNE: lambda a, b: a is not b,
}

_ARRAY_STORE_COERCE = {
    Op.IASTORE: values.i32,
    Op.FASTORE: float,
    Op.BASTORE: values.i8,
    Op.CASTORE: values.u16,
    Op.AASTORE: lambda v: v,
}


def _pure_tables() -> tuple[list, list, list]:
    """The pure ops' semantics, interpreter-ea builders and chunk
    dynamic-ea builders, indexed by opcode (None: not pure, or, in the
    last, a chunk with no dynamic addresses).  ``ldc``'s sem needs its
    VM's string table, so the interpreter adds it."""
    sem, eas, dyn = ([None] * N_OPCODES for _ in range(3))

    def pure(ops, fn, build, chunk=None):
        for op in ops:
            sem[op], eas[op], dyn[op] = fn, build, chunk

    pure((Op.NOP,), _nop, _bc_eas)
    pure((Op.ICONST,), _iconst, _push_eas)
    pure((Op.FCONST,), _fconst, _push_eas)
    pure((Op.ACONST_NULL,), _aconst_null, _push_eas)
    pure((Op.LDC,), None, _ldc_eas)
    pure((Op.ILOAD, Op.FLOAD, Op.ALOAD), _load_local, _load_local_eas)
    pure((Op.ISTORE, Op.FSTORE, Op.ASTORE), _store_local, _store_local_eas)
    pure((Op.IINC,), _iinc, _iinc_eas)
    pure((Op.POP,), _pop, _bc_eas)
    pure((Op.DUP,), _dup, _dup_eas)
    pure((Op.DUP_X1,), _dup_x1, _dup_x1_eas)
    pure((Op.SWAP,), _swap, _swap_eas)
    pure((Op.FCMPL,), _fcmp(-1), _binop_eas)
    pure((Op.FCMPG,), _fcmp(1), _binop_eas)
    pure((Op.GOTO,), _goto, _bc_eas)
    pure((Op.TABLESWITCH,), _tableswitch, _switch_eas)
    pure((Op.LOOKUPSWITCH,), _lookupswitch, _switch_eas)
    pure((Op.ARRAYLENGTH,), _arraylength, _arraylength_eas,
         _arraylength_dyn)
    pure((Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD),
         _array_load, _array_load_eas, _array_load_dyn)
    for table, make, build in ((_BINOPS, _binop, _binop_eas),
                               (_UNOPS, _unop, _unop_eas),
                               (_IF1_TESTS, _if1, _if1_eas),
                               (_IF2_TESTS, _if2, _if2_eas)):
        for op, fn in table.items():
            pure((op,), make(fn), build)
    for op, coerce in _ARRAY_STORE_COERCE.items():
        pure((op,), _array_store(coerce), _array_store_eas, _array_store_dyn)
    return sem, eas, dyn


_SEMANTICS, _INTERP_EAS, _CHUNK_DYN = _pure_tables()

#: The kind half of an interpreter invoke template's ``(kind, argc)`` key.
_INVOKE_KIND = {Op.INVOKEVIRTUAL: "invokevirtual",
                Op.INVOKESPECIAL: "invokespecial",
                Op.INVOKESTATIC: "invokestatic"}


class Interpreter:
    """Executes bytecodes for one VM instance."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self.sink = vm.sink
        self.tpls = shared_templates()
        self.stubs = vm.stubs
        self.loader = vm.loader
        self.tiered = vm.tiered
        self.lock_elision = vm.config.lock_elision
        self._sem = list(_SEMANTICS)
        self._sem[Op.LDC] = self._ldc
        self._handlers = self._build_dispatch()
        # Only a plain counting sink takes its templates inline.
        self._counting = type(self.sink) is CountingSink
        # Hot lines run under a plain counting or recording sink.
        self._lineable = type(self.sink) in (CountingSink, RecordingSink)
        self._traced = None
        # Hot lines (``repro.vm.lines``), made when a first method turns
        # hot.
        self._lines = None

    def _hot_lines(self):
        """This VM's hot lines; the sink and the VM fold their counts in
        when read."""
        if self._lines is None:
            self._lines = _lines.Lines(self.vm, self.sink,
                                       self.tiered is not None, VMError)
            self.sink.deferred.append(self._lines.fold)
        return self._lines

    def fold_lines(self) -> None:
        """Add the hot lines' runs to the opcode and template counts."""
        if self._lines is not None:
            self._lines.fold()

    def _ldc(self, frame, instr):
        value = frame.method.pool[instr.a].value
        if isinstance(value, str):
            value = self.vm.intern_string(value)
        frame.stack.append(value)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, thread: JThread, budget: int) -> int:
        """Run up to ``budget`` bytecodes; returns the number executed."""
        # ``run`` indexes a line entry's function, or its timed twin.
        if TRACER.enabled:
            sems, handlers, on_backedge = self._traced_tables()
            run = 7
        else:
            sems, handlers = self._sem, self._handlers
            on_backedge = (self.tiered.on_backedge
                           if self.tiered is not None else None)
            run = 0
        vm = self.vm
        loader = self.loader
        sink = self.sink
        counting = self._counting
        emits = sink.tally if counting else None
        emit_pure = self._emit_pure
        interp_tpl = self.tpls.by_opcode
        opcode_counts = vm.opcode_tally
        # Lines need a plain counting or recording sink.
        hot_cycles = _lines.HOT_CYCLES if self._lineable else float("inf")
        hot = self._lines
        frames = thread.frames
        executed = 0
        while executed < budget and thread.state == RUNNABLE and frames:
            # The frame-local loop: this activation's pure ops, charged
            # to the profile (and a counting sink) before anything can
            # read either.  A pure op pushes no frame and changes no
            # mode, so the frame's code, mode and chunks hold until the
            # loop breaks.  ``lane`` is the mode under a counting sink,
            # which takes the template inline, and None under any other
            # sink, which builds the op's eas and emits them.
            frame = frames[-1]
            code = frame.code
            mode = frame.emit_mode
            chunks = frame.chunks
            backedge = False
            pending = 0
            # Every frame gets its profile when pushed.  Only a hot
            # method's profile holds line tables (``repro.vm.lines``).
            tables = frame.profile.lines
            if counting:
                lane = mode
            else:
                lane = None
                builders = _INTERP_EAS if mode == EMIT_INTERP else _CHUNK_DYN
                start = sink.cycles
            # A hot activation's line table (``repro.vm.lines``); None
            # for a cold one.
            lines = None
            if tables is not None:
                lines = tables.get(
                    mode if mode < EMIT_COMPILED else id(chunks))
                if lines is None:
                    lines = hot.table(frame, tables)
            try:
                while executed < budget:
                    ip = frame.ip
                    if lines is not None:
                        # Each line that fits the budget runs as one
                        # call, charged once (module docs); any other op
                        # runs as below.
                        line = lines[ip]
                        if line is None:
                            line = hot.visit(lines, frame, ip)
                        if line and executed + line[1] <= budget:
                            try:
                                back = line[run](frame)
                            except BaseException:
                                pending += line[5][frame.ip - ip - 1]
                                raise
                            executed += line[1]
                            if back:
                                # The line ran all but the branch, fetched
                                # at ``ip``; ``back`` is its eas when a
                                # recording emission needs them.
                                pending += line[3]
                                ip += line[1] - 1
                                op = code[ip].op
                                tpl = line[4]
                                eas = () if back is True else back
                                backedge = True
                                break
                            pending += line[2]
                            continue
                    instr = code[ip]
                    op = instr.op
                    sem = sems[op]
                    if sem is None:
                        break
                    frame.ip = ip + 1
                    opcode_counts[op] += 1
                    executed += 1
                    if lane == EMIT_INTERP:
                        tpl = interp_tpl[op]
                    elif lane:
                        tpl = chunks[ip]
                        if tpl is not None:
                            tpl = tpl.template
                    elif lane is None:
                        if mode:
                            build = builders[op]
                            eas = build(frame, instr) if build else ()
                        taken = sem(frame, instr)
                        if (taken and frame.ip <= ip
                                and on_backedge is not None):
                            backedge = True
                            break
                        if mode:
                            emit_pure(frame, ip, op, eas, taken)
                        continue
                    else:
                        tpl = None
                    if (sem(frame, instr) and frame.ip <= ip
                            and on_backedge is not None):
                        backedge = True
                        break
                    if tpl is not None:
                        pending += tpl.cycles
                        emits[tpl] = emits.get(tpl, 0) + 1
            finally:
                # A counting sink's ops and the lines leave their cycles
                # to the loop.  A folding sink emits folded variants
                # cheaper than the templates, so any sink but a counting
                # one is charged by its cycle delta (a folding sink runs
                # no lines, so its ``cycles``, which a wrapper reads
                # through to the sink it wraps, is never written here).
                if pending:
                    sink.cycles += pending
                if not counting:
                    pending = sink.cycles - start
                if pending:
                    p = frame.profile
                    if mode == EMIT_INTERP:
                        p.interp_cycles += pending
                    else:
                        p.compiled_cycles += pending
                    # A method turns hot here (module docs).
                    if (p.interp_cycles + p.compiled_cycles >= hot_cycles
                            and tables is None):
                        p.lines = {}
                        hot = self._hot_lines()
            if not backedge and executed >= budget:
                break
            cycles_before = sink.cycles
            overhead_before = vm.translate_overhead + loader.overhead_cycles
            if backedge:
                # The branch emits before the hook but is charged after
                # it, under the frame's post-hook mode (module docs).
                if counting:
                    if tpl is not None:
                        sink.emit(tpl)
                elif mode:
                    emit_pure(frame, ip, op, eas, True)
                on_backedge(thread, frame)
            else:
                # The loop stopped at ``instr``, which has a full
                # handler.  What it emits is known only once it has run;
                # translate and class-loading cycles land in the sink
                # too but are overhead, not the method's.
                frame.ip = ip + 1
                opcode_counts[op] += 1
                executed += 1
                handlers[op](thread, frame, instr)
            cycles = (sink.cycles - cycles_before) - (
                vm.translate_overhead + loader.overhead_cycles
                - overhead_before)
            if cycles <= 0:
                continue
            # The frame caches its MethodProfile at push time, so
            # attribution is slot access — no per-bytecode dict lookup.
            p = frame.profile
            if frame.emit_mode == EMIT_INTERP:
                p.interp_cycles += cycles
            else:
                p.compiled_cycles += cycles
        thread.bytecodes_executed += executed
        if not frames and thread.state == RUNNABLE:
            vm.finish_thread(thread)
        return executed

    def _emit_pure(self, frame, ip, op, eas, taken) -> None:
        """Emit pure op ``op``, fetched at ``ip``, to a sink that is not
        a plain counting one: its interpreter template with ``eas``, or
        the frame's chunk with ``eas`` as the chunk's dynamic addresses.
        ``taken`` is what the op's ``sem`` returned: a conditional
        branch's outcome, True for ``goto``, None for any other op."""
        takens = () if taken is None or op is Op.GOTO else (taken,)
        if frame.emit_mode == EMIT_INTERP:
            self.sink.emit(self.tpls.by_opcode[op], eas, takens)
            return
        chunk = frame.chunks[ip]
        if chunk is None:
            return
        targets = ()
        if op is Op.TABLESWITCH or op is Op.LOOKUPSWITCH:
            targets = (frame.compiled.landing[frame.ip],)
        chunk.emit(self.sink, frame, eas, takens, targets)

    def _traced_tables(self):
        """The pure-op semantics and the handler tables, and the
        back-edge hook, wrapped to time each bytecode into the VM's
        ``dispatch_seconds``/``dispatch_counts``, keyed by the frame's
        emit mode as the bytecode starts; ``JavaVM.run`` emits them as
        the ``vm.interp.dispatch`` / ``vm.jit.execute`` spans.  A pure
        op's bucket times its ``sem`` alone: its template count, and
        under any sink but a counting one its ea building and emission,
        fall in the enclosing ``vm.run.count``/``vm.run.record`` self
        time.  Nested JIT translation happens inside an invoke handler
        or the hook, so its wall time also appears separately as
        ``vm.jit.translate``."""
        if self._traced is None:
            seconds = self.vm.dispatch_seconds
            counts = self.vm.dispatch_counts
            clock = time.perf_counter

            def timed_sem(fn):
                def sem(frame, instr):
                    mode = frame.emit_mode
                    started = clock()
                    taken = fn(frame, instr)
                    seconds[mode] += clock() - started
                    counts[mode] += 1
                    return taken
                return sem

            def timed_handler(fn):
                def handler(thread, frame, instr):
                    mode = frame.emit_mode
                    started = clock()
                    fn(thread, frame, instr)
                    seconds[mode] += clock() - started
                    counts[mode] += 1
                return handler

            def timed_hook(fn):
                # Part of the branch bytecode the sem wrapper counted.
                def hook(thread, frame):
                    mode = frame.emit_mode
                    started = clock()
                    fn(thread, frame)
                    seconds[mode] += clock() - started
                return hook

            self._traced = (
                [None if fn is None else timed_sem(fn) for fn in self._sem],
                [None if fn is None else timed_handler(fn)
                 for fn in self._handlers],
                None if self.tiered is None
                else timed_hook(self.tiered.on_backedge),
            )
        return self._traced

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def _pool_ea(self, frame, idx) -> int:
        return self.loader.pool_ea(frame.mirror, idx)

    def class_of(self, ref):
        """Runtime class of a reference (for dispatch / type checks)."""
        if isinstance(ref, JObject):
            return ref.jclass
        if isinstance(ref, JString):
            return self.vm.string_class
        if isinstance(ref, JArray):
            return self.vm.object_class
        raise VMError("null pointer dereference")

    # ------------------------------------------------------------------
    # dispatch-table construction
    # ------------------------------------------------------------------
    def _build_dispatch(self) -> list:
        """Full handlers, indexed by opcode; None for a pure op, which
        has a sem instead.  Every opcode has exactly one of the two."""
        h = {
            Op.IRETURN: self._op_return_value,
            Op.FRETURN: self._op_return_value,
            Op.ARETURN: self._op_return_value,
            Op.RETURN: self._op_return_void,
            Op.GETSTATIC: self._op_getstatic,
            Op.PUTSTATIC: self._op_putstatic,
            Op.GETFIELD: self._op_getfield,
            Op.PUTFIELD: self._op_putfield,
            Op.INVOKEVIRTUAL: self._op_invoke,
            Op.INVOKESPECIAL: self._op_invoke,
            Op.INVOKESTATIC: self._op_invoke,
            Op.NEW: self._op_new,
            Op.NEWARRAY: self._op_newarray,
            Op.ANEWARRAY: self._op_anewarray,
            Op.CHECKCAST: self._op_checkcast,
            Op.INSTANCEOF: self._op_instanceof,
            Op.MONITORENTER: self._op_monitorenter,
            Op.MONITOREXIT: self._op_monitorexit,
        }
        handlers = [h.get(op) for op in range(N_OPCODES)]
        wrong = [Op(op).name for op in range(N_OPCODES)
                 if (handlers[op] is None) == (self._sem[op] is None)]
        assert not wrong, f"not exactly one of a sem and a handler: {wrong}"
        return handlers

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------
    def _emit_chunk(self, frame, dyn=(), takens=(), targets=()):
        chunk = frame.chunks[frame.ip - 1]
        if chunk is not None:
            chunk.emit(self.sink, frame, dyn, takens, targets)

    # ------------------------------------------------------------------
    # fields
    # ------------------------------------------------------------------
    def _op_getstatic(self, thread, frame, instr):
        declarer, name = self.loader.resolve_field(frame.mirror, instr.a)
        d = len(frame.stack)
        frame.stack.append(declarer.statics[name])
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.GETSTATIC],
                (_bc_ea(frame), self._pool_ea(frame, instr.a),
                 declarer.static_addr[name], frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_putstatic(self, thread, frame, instr):
        declarer, name = self.loader.resolve_field(frame.mirror, instr.a)
        value = frame.stack.pop()
        d = len(frame.stack)
        declarer.statics[name] = value
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.PUTSTATIC],
                (_bc_ea(frame), self._pool_ea(frame, instr.a),
                 frame.slot_addr(d), declarer.static_addr[name]),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_getfield(self, thread, frame, instr):
        self.loader.resolve_field(frame.mirror, instr.a)
        obj = frame.stack.pop()
        if not isinstance(obj, JObject):
            raise VMError(f"getfield on {obj!r}")
        entry = frame.method.pool[instr.a]
        name = entry.field_name
        d = len(frame.stack)
        frame.stack.append(obj.fields[name])
        field_ea = obj.field_addr(name)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.GETFIELD],
                (_bc_ea(frame), self._pool_ea(frame, instr.a),
                 frame.slot_addr(d), field_ea, frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (field_ea,))

    def _op_putfield(self, thread, frame, instr):
        self.loader.resolve_field(frame.mirror, instr.a)
        value = frame.stack.pop()
        obj = frame.stack.pop()
        if not isinstance(obj, JObject):
            raise VMError(f"putfield on {obj!r}")
        name = frame.method.pool[instr.a].field_name
        d = len(frame.stack)
        obj.fields[name] = value
        field_ea = obj.field_addr(name)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.PUTFIELD],
                (_bc_ea(frame), self._pool_ea(frame, instr.a),
                 frame.slot_addr(d + 1), frame.slot_addr(d), field_ea),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (field_ea,))

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def _op_new(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.mirror, instr.a)
        obj = self.vm.heap.new_object(cls.jclass)
        self._mark_allocation(thread, frame, obj)
        d = len(frame.stack)
        frame.stack.append(obj)
        self._emit_alloc(frame, instr, obj, frame.slot_addr(d))

    def _op_newarray(self, thread, frame, instr):
        length = frame.stack.pop()
        arr = self.vm.heap.new_array(ArrayType(instr.a), length)
        self._mark_allocation(thread, frame, arr)
        d = len(frame.stack)
        frame.stack.append(arr)
        self._emit_alloc(frame, instr, arr, frame.slot_addr(d))

    def _op_anewarray(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.mirror, instr.a)
        length = frame.stack.pop()
        arr = self.vm.heap.new_array("ref", length, ref_class=cls.jclass)
        self._mark_allocation(thread, frame, arr)
        d = len(frame.stack)
        frame.stack.append(arr)
        self._emit_alloc(frame, instr, arr, frame.slot_addr(d))

    def _mark_allocation(self, thread, frame, obj) -> None:
        """Tag ``obj`` for lock elision when this allocation site is
        proven non-escaping (the instruction just fetched is ip-1), or
        let the tiered engine mark it."""
        if self.lock_elision:
            if (frame.ip - 1) in self.vm.elidable_sites(frame.method):
                obj.tl_thread = thread.thread_id
        elif self.tiered is not None:
            self.tiered.mark_allocation(thread, frame, obj)

    def _emit_alloc(self, frame, instr, obj, push_ea):
        mode = frame.emit_mode
        stubs = self.stubs
        if mode == EMIT_INTERP:
            pool_ea = (self._pool_ea(frame, instr.a)
                       if instr.op is not Op.NEWARRAY
                       else self._pool_ea(frame, 0) if len(frame.method.pool)
                       else frame.mirror.pool_addr)
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (_bc_ea(frame), pool_ea, push_ea),
                (),
                (stubs.alloc_entry.base_pc,),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (), (), (stubs.alloc_entry.base_pc,))
        if mode != EMIT_NONE:
            stubs.emit_alloc(self.sink, obj.addr, obj.byte_size)

    # ------------------------------------------------------------------
    # type checks
    # ------------------------------------------------------------------
    def _op_checkcast(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.mirror, instr.a)
        ref = frame.stack[-1]
        if ref is not None and not self._instance_of(ref, cls.jclass):
            raise VMError(
                f"ClassCastException: {ref!r} is not a {cls.jclass.name}"
            )
        self._emit_typecheck(frame, instr, Op.CHECKCAST, ref, cls)

    def _op_instanceof(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.mirror, instr.a)
        ref = frame.stack.pop()
        result = 1 if (ref is not None
                       and self._instance_of(ref, cls.jclass)) else 0
        frame.stack.append(result)
        self._emit_typecheck(frame, instr, Op.INSTANCEOF, ref, cls)

    def _instance_of(self, ref, cls) -> bool:
        return self.class_of(ref).is_subclass_of(cls)

    def _emit_typecheck(self, frame, instr, op, ref, cls):
        d = len(frame.stack)
        hdr = ref.addr if ref is not None else frame.slot_addr(d - 1)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            eas = (_bc_ea(frame), frame.slot_addr(d - 1), hdr,
                   cls.meta_addr)
            if op is Op.INSTANCEOF:
                eas = eas + (frame.slot_addr(d - 1),)
            self.sink.emit(self.tpls.tpl[op], eas)
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (hdr,))

    # ------------------------------------------------------------------
    # monitors
    # ------------------------------------------------------------------
    def _op_monitorenter(self, thread, frame, instr):
        obj = frame.stack[-1]
        if obj is None:
            raise VMError("monitorenter on null")
        self._emit_monitor(frame, instr, obj)
        if self.vm.monitor_enter(thread, obj):
            frame.stack.pop()
        else:
            frame.ip -= 1  # re-execute when unblocked

    def _op_monitorexit(self, thread, frame, instr):
        obj = frame.stack.pop()
        if obj is None:
            raise VMError("monitorexit on null")
        self._emit_monitor(frame, instr, obj)
        self.vm.monitor_exit(thread, obj)

    def _emit_monitor(self, frame, instr, obj):
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            d = len(frame.stack)
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (_bc_ea(frame), frame.slot_addr(d - 1)),
                (),
                (self.stubs.interp_entry_pc,),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (), (), (self.stubs.interp_entry_pc,))

    # ------------------------------------------------------------------
    # invocation and returns
    # ------------------------------------------------------------------
    def _op_invoke(self, thread, frame, instr):
        vm = self.vm
        method_ref = frame.method.pool[instr.a]
        resolved = self.loader.resolve_method(frame.mirror, instr.a)
        op = instr.op
        stack = frame.stack
        n_args = method_ref.argc + (0 if op is Op.INVOKESTATIC else 1)

        # Virtual dispatch on the receiver's run-time class.
        receiver = None
        if op is Op.INVOKESTATIC:
            target = resolved
        else:
            receiver = stack[-n_args]
            if receiver is None:
                raise VMError(
                    f"null receiver calling {method_ref.method_name}"
                )
            if op is Op.INVOKEVIRTUAL:
                target = self.class_of(receiver).find_method(
                    method_ref.method_name
                )
                if target is None:
                    raise VMError(
                        f"no such method {method_ref.method_name} on "
                        f"{self.class_of(receiver).name}"
                    )
            else:
                target = resolved

        mm = self.loader.methods[target]

        # Synchronized methods lock before anything is popped, so a
        # blocked thread can retry the invoke cleanly.  A static one
        # locks its class's mirror.
        sync_obj = None
        if target.is_synchronized:
            sync_obj = receiver if receiver is not None else mm.owner
            if not vm.monitor_enter(thread, sync_obj):
                frame.ip -= 1
                return

        args = stack[len(stack) - n_args:] if n_args else []
        del stack[len(stack) - n_args:]

        if target.is_native:
            self._invoke_native(thread, frame, instr, mm, args,
                                receiver, sync_obj, n_args)
            return

        compiled = vm.prepare_method(target)
        callee = thread.push_frame(mm)
        callee.profile = vm.profiler.profile_for(target)
        for i, value in enumerate(args):
            callee.locals[i] = value
        callee.sync_obj = sync_obj

        caller_mode = frame.emit_mode
        inline_site = None
        if caller_mode >= EMIT_COMPILED and frame.compiled is not None:
            inline_site = frame.compiled.inline_info.get(frame.ip - 1)
            if inline_site is not None and inline_site.target is not target:
                # Speculatively devirtualized site whose dynamic target
                # diverged (deopt is in flight): fall back to a real call.
                inline_site = None
        if inline_site is not None:
            callee.emit_mode = EMIT_NONE
            if self._counting:
                self._emit_chunk(frame)
            else:
                self._emit_chunk(frame, tuple(
                    receiver.addr + off for off in inline_site.field_offsets))
            callee.return_pc = 0
            return

        if compiled is not None:
            callee.emit_mode = EMIT_COMPILED
            callee.chunks = compiled.chunks
            callee.compiled = compiled
            entry_pc = compiled.entry_pc
        else:
            callee.emit_mode = (EMIT_INTERP if caller_mode != EMIT_NONE
                                else EMIT_NONE)
            entry_pc = self.stubs.interp_entry_pc
        if caller_mode == EMIT_NONE:
            callee.emit_mode = EMIT_NONE

        callee.return_pc = self._return_site(frame)
        self._emit_invoke(frame, instr, receiver, mm, n_args,
                          callee.locals_addr, callee.frame_base, entry_pc)
        if callee.emit_mode == EMIT_COMPILED:
            compiled.prologue.emit(self.sink, callee)

    def _return_site(self, frame) -> int:
        """Native pc execution resumes at when the callee returns."""
        if frame.emit_mode >= EMIT_COMPILED:
            chunk = frame.chunks[frame.ip - 1]
            if chunk is not None:
                return chunk.template.end_pc
        return self.tpls.dispatch_pc

    def _emit_invoke(self, frame, instr, receiver, mm, n_args,
                     locals_base, saved_vpc, target_pc):
        """Emit the call in the caller's mode: its compiled chunk, or the
        interpreter's invoke template, which copies the args into the
        callee's locals at ``locals_base`` and saves ``saved_vpc``;
        either transfers to ``target_pc``.  A counting sink reads only
        the template, so it gets nothing else."""
        mode = frame.emit_mode
        if mode == EMIT_NONE:
            return
        op = instr.op
        if mode >= EMIT_COMPILED:
            if self._counting:
                self._emit_chunk(frame)
            elif op is Op.INVOKEVIRTUAL:
                self._emit_chunk(frame, (receiver.addr, mm.meta_addr), (),
                                 (target_pc,))
            else:
                self._emit_chunk(frame, (), (), (target_pc,))
            return
        # Interpreter emission: one template per (kind, modelled argc).
        static = op is Op.INVOKESTATIC
        argc_key = min(n_args if static else n_args - 1, MAX_INVOKE_ARGS)
        tpl = self.tpls.tpl[_INVOKE_KIND[op], argc_key]
        if self._counting:
            self.sink.emit(tpl)
            return
        d = len(frame.stack)  # args already popped
        s = frame.slot_addr
        eas = [_bc_ea(frame), self._pool_ea(frame, instr.a)]
        if op is Op.INVOKEVIRTUAL:
            eas += (s(d), receiver.addr, mm.meta_addr)
        for k in range(argc_key if static else argc_key + 1):
            eas.append(s(d + k))                    # arg load (caller stack)
            eas.append(locals_base + 4 * k)         # arg store (callee locals)
        eas.append(saved_vpc)
        self.sink.emit(tpl, tuple(eas), (), (target_pc,))

    def _invoke_native(self, thread, frame, instr, mm, args, receiver,
                       sync_obj, n_args):
        vm = self.vm
        target = mm.method
        mode = frame.emit_mode
        # The invoke handler models the call into a static-cost native
        # body, whose locals start where the args were.
        locals_base = frame.slot_addr(len(frame.stack))
        self._emit_invoke(frame, instr, receiver, mm, n_args, locals_base,
                          locals_base, self.stubs.region.base)

        result = target.native_impl(vm, thread, args)
        if result is vm.NATIVE_BLOCKED:
            # Undo: the native could not proceed (e.g. join on a live
            # thread).  Push the args back and retry later.
            frame.stack.extend(args)
            frame.ip -= 1
            if sync_obj is not None:
                vm.monitor_exit(thread, sync_obj)
            return
        if mode != EMIT_NONE and self._counting:
            self.sink.emit(self.stubs.native_body(target.native_cost))
        elif mode != EMIT_NONE:
            data_addr = receiver.addr if receiver is not None else (
                args[0].addr if args and hasattr(args[0], "addr")
                else vm.heap.base
            )
            self.stubs.emit_native(self.sink, target.native_cost, data_addr,
                                   self._return_site(frame))
        if sync_obj is not None:
            vm.monitor_exit(thread, sync_obj)
        if target.has_result:
            frame.stack.append(result)

    def _op_return_value(self, thread, frame, instr):
        result = frame.stack.pop()
        self._do_return(thread, frame, instr, result, True)

    def _op_return_void(self, thread, frame, instr):
        self._do_return(thread, frame, instr, None, False)

    def _do_return(self, thread, frame, instr, result, has_result):
        vm = self.vm
        thread.pop_frame()
        if frame.sync_obj is not None:
            vm.monitor_exit(thread, frame.sync_obj)
        caller = thread.frames[-1] if thread.frames else None
        if has_result and caller is not None:
            push_d = len(caller.stack)
            caller.stack.append(result)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            tpl = self.tpls.tpl[instr.op]
            if self._counting:
                self.sink.emit(tpl)
                return
            d = len(frame.stack)
            bc = _bc_ea(frame)
            fh = frame.frame_base
            if has_result:
                caller_push = (caller.slot_addr(push_d) if caller is not None
                               else frame.slot_addr(0))
                eas = (bc, frame.slot_addr(d), fh, fh + 4, caller_push)
            else:
                eas = (bc, fh, fh + 4)
            self.sink.emit(tpl, eas, (), (frame.return_pc,))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (), (), (frame.return_pc,))
