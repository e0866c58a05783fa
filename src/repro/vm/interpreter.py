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

**Quickened pure ops.**  Constants, locals and ``iinc``, stack shuffles,
arithmetic and conversions, branches and switches, and array loads,
stores and ``arraylength`` are *pure*: each has one semantics function
``sem(frame, instr)`` in :data:`_SEMANTICS`, and its full handler is
that function plus its emission.  Under a plain :class:`CountingSink`
the stepper runs the semantics and counts the template inline instead
(``cycles += t.cycles``; ``emits[t] += 1``): a counting sink ignores
effective addresses and branch outcomes, so what a pure op emits is
known before it runs — the interpreter template of its opcode, the
frame's compiled chunk at that ``ip``, or nothing under ``EMIT_NONE``.
The profiler is charged that template's cycles.  Recording and folding
sinks need the addresses, so they run the full handlers; those are the
reference path the quickened one is tested against.  Every other op
(invoke, return, allocation, field access, type checks, monitors) may
load classes, compile, OSR or deoptimize mid-bytecode, so it runs its
full handler and the profiler is charged the sink's cycle delta net of
translate and class-loading overhead.  Under the counting sink the
invoke, native-call and return handlers emit only their template, with
no effective addresses.

**Frame-local loop.**  The quickened ops of one activation run in an
inner loop that keeps the frame's code, emit mode and chunks in locals
and sums their cycles in ``pending``.  ``pending`` is written to
``sink.cycles`` and the frame's profile whenever the loop stops: before
a full handler, before the back-edge hook (whose promotion rule reads
the profile's interpreted cycles), when the budget runs out, and when a
``sem`` raises.  The outer loop re-reads the top frame after every
handler and hook, since either may push, pop, OSR or deoptimize.

**Back-edge charge order.**  A taken backward ``goto``/``if`` emits,
then runs ``tiered.on_backedge``, and only then is the profile charged,
under the frame's *post-hook* emit mode: an OSR inside the hook turns
the branch's interpreter cycles into compiled cycles, and any cycles
the hook emitted, net of translate/loader overhead, are charged to this
bytecode.  Switches never run the hook.

With the tracer on, the same loop runs over semantics and handler
tables wrapped once in timing wrappers, which fill the VM's
per-emit-mode ``dispatch_seconds``/``dispatch_counts`` buckets.
"""

from __future__ import annotations

import time

from ..isa.opcodes import ArrayType, N_OPCODES, Op, OPINFO
from ..native.nisa import NCat
from ..native.trace import CountingSink
from ..obs import TRACER
from . import values
from .interp_templates import MAX_INVOKE_ARGS, shared_templates
from .objects import JArray, JObject, JString
from .threads import (
    BLOCKED,
    EMIT_COMPILED,
    EMIT_INTERP,
    EMIT_NONE,
    FINISHED,
    JThread,
    RUNNABLE,
)


class VMError(Exception):
    """A runtime error the simulated program caused (bad cast, bounds...)."""


# ----------------------------------------------------------------------
# semantics of the pure ops
# ----------------------------------------------------------------------
# ``sem(frame, instr)`` updates the frame and raises any VMError before
# anything is emitted.  A goto or conditional branch returns whether it
# was taken (the stepper runs the back-edge hook when a taken target is
# not ahead); every other op returns None.

def _nop(frame, instr):
    pass


def _iconst(frame, instr):
    frame.stack.append(instr.a)


def _fconst(frame, instr):
    frame.stack.append(float(instr.a))


def _aconst_null(frame, instr):
    frame.stack.append(None)


def _load_local(frame, instr):
    frame.stack.append(frame.locals[instr.a])


def _store_local(frame, instr):
    frame.locals[instr.a] = frame.stack.pop()


def _iinc(frame, instr):
    frame.locals[instr.a] = values.i32(frame.locals[instr.a] + instr.b)


def _pop(frame, instr):
    frame.stack.pop()


def _dup(frame, instr):
    stack = frame.stack
    stack.append(stack[-1])


def _dup_x1(frame, instr):
    stack = frame.stack
    b = stack.pop()
    a = stack.pop()
    stack.extend((b, a, b))


def _swap(frame, instr):
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _binop(fn):
    def sem(frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(fn(a, b))
    return sem


def _unop(fn):
    def sem(frame, instr):
        stack = frame.stack
        stack[-1] = fn(stack[-1])
    return sem


def _fcmp(nan_result):
    def sem(frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(values.fcmp(a, b, nan_result))
    return sem


def _if1(test):
    def sem(frame, instr):
        if test(frame.stack.pop()):
            frame.ip = instr.a
            return True
        return False
    return sem


def _if2(test):
    def sem(frame, instr):
        stack = frame.stack
        b = stack.pop()
        if test(stack.pop(), b):
            frame.ip = instr.a
            return True
        return False
    return sem


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


def _arraylength(frame, instr):
    stack = frame.stack
    arr = stack.pop()
    if not isinstance(arr, JArray):
        raise VMError("arraylength on non-array")
    stack.append(arr.length)


def _array_load(frame, instr):
    stack = frame.stack
    index = stack.pop()
    arr = stack.pop()
    if not isinstance(arr, JArray):
        raise VMError(f"array load on {arr!r}")
    arr.check(index)
    stack.append(arr.data[index])


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


def _fdiv(a, b):
    if b != 0.0:
        return a / b
    return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")


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
    Op.FDIV: _fdiv,
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


def _semantics_table() -> list:
    """Semantics of every pure op, indexed by opcode (None: not pure).
    ``ldc`` needs its VM's string table, so the interpreter adds it."""
    sem: list = [None] * N_OPCODES
    for op, fn in ((Op.NOP, _nop), (Op.ICONST, _iconst),
                   (Op.FCONST, _fconst), (Op.ACONST_NULL, _aconst_null),
                   (Op.IINC, _iinc), (Op.POP, _pop), (Op.DUP, _dup),
                   (Op.DUP_X1, _dup_x1), (Op.SWAP, _swap),
                   (Op.FCMPL, _fcmp(-1)), (Op.FCMPG, _fcmp(1)),
                   (Op.GOTO, _goto), (Op.TABLESWITCH, _tableswitch),
                   (Op.LOOKUPSWITCH, _lookupswitch),
                   (Op.ARRAYLENGTH, _arraylength)):
        sem[op] = fn
    for op in (Op.ILOAD, Op.FLOAD, Op.ALOAD):
        sem[op] = _load_local
    for op in (Op.ISTORE, Op.FSTORE, Op.ASTORE):
        sem[op] = _store_local
    for op in (Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD):
        sem[op] = _array_load
    for table, make in ((_BINOPS, _binop), (_UNOPS, _unop),
                        (_IF1_TESTS, _if1), (_IF2_TESTS, _if2),
                        (_ARRAY_STORE_COERCE, _array_store)):
        for op, fn in table.items():
            sem[op] = make(fn)
    return sem


_SEMANTICS = _semantics_table()

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
        # Only a plain counting sink takes the quickened path.
        self._counting = type(self.sink) is CountingSink
        self._traced = None

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, thread: JThread, budget: int) -> int:
        """Run up to ``budget`` bytecodes; returns the number executed."""
        if TRACER.enabled:
            sems, handlers, on_backedge = self._traced_tables()
        else:
            sems, handlers = self._sem, self._handlers
            on_backedge = (self.tiered.on_backedge
                           if self.tiered is not None else None)
        vm = self.vm
        loader = self.loader
        profiler = vm.profiler
        sink = self.sink
        counting = self._counting
        emits = sink.emits if counting else None
        interp_tpl = self.tpls.by_opcode
        opcode_counts = vm.opcode_counts
        frames = thread.frames
        executed = 0
        while executed < budget and thread.state == RUNNABLE and frames:
            frame = frames[-1]
            backedge = False
            if counting:
                # The frame-local loop: this activation's pure ops, their
                # cycles summed in ``pending`` and written to the sink and
                # the profile before anything can read either.  A pure op
                # pushes no frame and changes no mode, so the frame's
                # code, mode and chunks hold until the loop breaks.
                code = frame.code
                mode = frame.emit_mode
                chunks = frame.chunks
                pending = 0
                try:
                    while executed < budget:
                        ip = frame.ip
                        instr = code[ip]
                        op = instr.op
                        sem = sems[op]
                        if sem is None:
                            break
                        frame.ip = ip + 1
                        opcode_counts[op] += 1
                        executed += 1
                        if mode == EMIT_INTERP:
                            tpl = interp_tpl[op]
                        elif mode:
                            tpl = chunks[ip]
                            if tpl is not None:
                                tpl = tpl.template
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
                    if pending:
                        sink.cycles += pending
                        p = frame.profile
                        if p is None:
                            p = frame.profile = profiler.profile_for(
                                frame.method)
                        if mode == EMIT_INTERP:
                            p.interp_cycles += pending
                        else:
                            p.compiled_cycles += pending
                if not backedge and executed >= budget:
                    break
            cycles = 0
            if backedge:
                # The branch emits before the hook but is charged after
                # it, under the frame's post-hook mode (module docs).
                if tpl is not None:
                    cycles = tpl.cycles
                    sink.cycles += cycles
                    emits[tpl] = emits.get(tpl, 0) + 1
                cycles_before = sink.cycles
                overhead_before = vm.translate_overhead + loader.overhead_cycles
                on_backedge(thread, frame)
            else:
                ip = frame.ip
                instr = frame.code[ip]
                frame.ip = ip + 1
                op = instr.op
                opcode_counts[op] += 1
                executed += 1
                # What a full handler emits is known only once it has
                # run; translate and class-loading cycles land in the
                # sink too but are overhead, not the method's.
                cycles_before = sink.cycles
                overhead_before = vm.translate_overhead + loader.overhead_cycles
                handlers[op](thread, frame, instr)
            cycles += (sink.cycles - cycles_before) - (
                vm.translate_overhead + loader.overhead_cycles
                - overhead_before)
            if cycles <= 0:
                continue
            # The frame caches its MethodProfile at push time, so
            # attribution is slot access — no per-bytecode dict lookup.
            p = frame.profile
            if p is None:
                p = frame.profile = profiler.profile_for(frame.method)
            if frame.emit_mode == EMIT_INTERP:
                p.interp_cycles += cycles
            else:
                p.compiled_cycles += cycles
        thread.bytecodes_executed += executed
        if not frames and thread.state == RUNNABLE:
            vm.finish_thread(thread)
        return executed

    def _traced_tables(self):
        """The quickened-semantics and handler tables, and the back-edge
        hook, wrapped to time each bytecode into the VM's
        ``dispatch_seconds``/``dispatch_counts``, keyed by the frame's
        emit mode as the bytecode starts; ``JavaVM.run`` emits them as
        the ``vm.interp.dispatch`` / ``vm.jit.execute`` spans.  Nested
        JIT translation happens inside an invoke handler or the hook, so
        its wall time also appears separately as ``vm.jit.translate``."""
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
                [timed_handler(fn) for fn in self._handlers],
                None if self.tiered is None
                else timed_hook(self.tiered.on_backedge),
            )
        return self._traced

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _bc_ea(frame) -> int:
        return frame.bc_addr + frame.method.bc_offsets[frame.ip - 1]

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
        """Full handlers, indexed by opcode."""
        h = {
            Op.NOP: self._op_nop,
            Op.ICONST: self._op_push,
            Op.FCONST: self._op_push,
            Op.ACONST_NULL: self._op_push,
            Op.LDC: self._op_ldc,
            Op.IINC: self._op_iinc,
            Op.POP: self._op_nop,
            Op.DUP: self._op_dup,
            Op.DUP_X1: self._op_dup_x1,
            Op.SWAP: self._op_swap,
            Op.FCMPL: self._op_binop,
            Op.FCMPG: self._op_binop,
            Op.GOTO: self._op_branch,
            Op.TABLESWITCH: self._op_switch,
            Op.LOOKUPSWITCH: self._op_switch,
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
            Op.ARRAYLENGTH: self._op_arraylength,
            Op.CHECKCAST: self._op_checkcast,
            Op.INSTANCEOF: self._op_instanceof,
            Op.MONITORENTER: self._op_monitorenter,
            Op.MONITOREXIT: self._op_monitorexit,
        }
        for op in (Op.ILOAD, Op.FLOAD, Op.ALOAD):
            h[op] = self._op_load_local
        for op in (Op.ISTORE, Op.FSTORE, Op.ASTORE):
            h[op] = self._op_store_local
        for op in _BINOPS:
            h[op] = self._op_binop
        for op in _UNOPS:
            h[op] = self._op_unary
        for op in (*_IF1_TESTS, *_IF2_TESTS):
            h[op] = self._op_branch
        for op in (Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD):
            h[op] = self._op_array_load
        for op in _ARRAY_STORE_COERCE:
            h[op] = self._op_array_store
        missing = set(Op) - set(h)
        assert not missing, f"unhandled opcodes: {missing}"
        return [h[op] for op in range(N_OPCODES)]

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------
    def _emit_chunk(self, frame, dyn=(), takens=(), targets=()):
        chunk = frame.chunks[frame.ip - 1]
        if chunk is not None:
            chunk.emit(self.sink, frame, dyn, takens, targets)

    # ------------------------------------------------------------------
    # pure ops: semantics, then emission (the recording/folding path)
    # ------------------------------------------------------------------
    def _op_nop(self, thread, frame, instr):
        # nop and pop
        self._sem[instr.op](frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[instr.op], (self._bc_ea(frame),))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_push(self, thread, frame, instr):
        # iconst, fconst, aconst_null
        self._sem[instr.op](frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[instr.op],
                           (self._bc_ea(frame),
                            frame.slot_addr(len(frame.stack) - 1)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _ldc(self, frame, instr):
        value = frame.method.pool[instr.a].value
        if isinstance(value, str):
            value = self.vm.intern_string(value)
        frame.stack.append(value)

    def _op_ldc(self, thread, frame, instr):
        self._ldc(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.LDC],
                (self._bc_ea(frame), self._pool_ea(frame, instr.a),
                 frame.slot_addr(len(frame.stack) - 1)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- locals ----------------------------------------------------------
    def _op_load_local(self, thread, frame, instr):
        _load_local(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), frame.local_addr(instr.a),
                 frame.slot_addr(len(frame.stack) - 1)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_store_local(self, thread, frame, instr):
        _store_local(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), frame.slot_addr(len(frame.stack)),
                 frame.local_addr(instr.a)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_iinc(self, thread, frame, instr):
        _iinc(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            ea = frame.local_addr(instr.a)
            self.sink.emit(self.tpls.tpl[Op.IINC],
                           (self._bc_ea(frame), ea, ea))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- operand stack -----------------------------------------------------
    def _op_dup(self, thread, frame, instr):
        _dup(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            d = len(frame.stack) - 1
            self.sink.emit(
                self.tpls.tpl[Op.DUP],
                (self._bc_ea(frame), frame.slot_addr(d - 1),
                 frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_dup_x1(self, thread, frame, instr):
        _dup_x1(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            d = len(frame.stack) - 3
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[Op.DUP_X1],
                (self._bc_ea(frame), s(d + 1), s(d), s(d), s(d + 1), s(d + 2)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_swap(self, thread, frame, instr):
        _swap(frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            d = len(frame.stack)
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[Op.SWAP],
                (self._bc_ea(frame), s(d - 1), s(d - 2), s(d - 1), s(d - 2)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- arithmetic -----------------------------------------------------------
    def _op_binop(self, thread, frame, instr):
        # two-operand arithmetic and fcmpl/fcmpg
        self._sem[instr.op](frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            d = len(frame.stack) - 1
            s = frame.slot_addr
            self.sink.emit(self.tpls.tpl[instr.op],
                           (self._bc_ea(frame), s(d), s(d + 1), s(d)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_unary(self, thread, frame, instr):
        self._sem[instr.op](frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            ea = frame.slot_addr(len(frame.stack) - 1)
            self.sink.emit(self.tpls.tpl[instr.op],
                           (self._bc_ea(frame), ea, ea))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- control flow -----------------------------------------------------------
    def _op_branch(self, thread, frame, instr):
        # goto and the conditional branches
        idx = frame.ip - 1
        op = instr.op
        taken = self._sem[op](frame, instr)
        takens = () if op is Op.GOTO else (taken,)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            d = len(frame.stack)
            bc = frame.bc_addr + frame.method.bc_offsets[idx]
            if op is Op.GOTO:
                eas = (bc,)
            elif op in _IF1_TESTS:
                eas = (bc, frame.slot_addr(d))
            else:
                eas = (bc, frame.slot_addr(d), frame.slot_addr(d + 1))
            self.sink.emit(self.tpls.tpl[op], eas, takens)
        elif mode >= EMIT_COMPILED:
            chunk = frame.chunks[idx]
            if chunk is not None:
                chunk.emit(self.sink, frame, (), takens)
        if taken and instr.a <= idx and self.tiered is not None:
            self.tiered.on_backedge(thread, frame)

    def _op_switch(self, thread, frame, instr):
        idx = frame.ip - 1
        key = frame.stack[-1]
        self._sem[instr.op](frame, instr)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            index = key - instr.extra[0] if instr.op is Op.TABLESWITCH else key
            bc = frame.bc_addr + frame.method.bc_offsets[idx]
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (bc, frame.slot_addr(len(frame.stack)),
                 bc + 12 + 4 * max(0, int(index) % 64)),
            )
        elif mode >= EMIT_COMPILED:
            chunk = frame.chunks[idx]
            if chunk is not None:
                chunk.emit(self.sink, frame, (), (),
                           (self._chunk_pc(frame, frame.ip),))

    def _chunk_pc(self, frame, index) -> int:
        """pc of the chunk for a bytecode index (next non-empty)."""
        chunks = frame.chunks
        for i in range(index, len(chunks)):
            if chunks[i] is not None:
                return chunks[i].base_pc
        return 0

    # -- arrays -----------------------------------------------------------------
    def _op_arraylength(self, thread, frame, instr):
        arr = frame.stack[-1]
        _arraylength(frame, instr)
        d = len(frame.stack) - 1
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.ARRAYLENGTH],
                (self._bc_ea(frame), frame.slot_addr(d), arr.addr + 8,
                 frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (arr.addr + 8,))

    def _op_array_load(self, thread, frame, instr):
        stack = frame.stack
        arr, index = stack[-2], stack[-1]
        _array_load(frame, instr)
        d = len(stack) - 1
        elem_ea = arr.elem_addr(index)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), s(d + 1), s(d), arr.addr + 8,
                 elem_ea, s(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (arr.addr + 8, elem_ea))

    def _op_array_store(self, thread, frame, instr):
        stack = frame.stack
        arr, index = stack[-3], stack[-2]
        self._sem[instr.op](frame, instr)
        d = len(stack)
        elem_ea = arr.elem_addr(index)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), s(d + 2), s(d + 1), s(d),
                 arr.addr + 8, elem_ea),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (arr.addr + 8, elem_ea))

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
                (self._bc_ea(frame), self._pool_ea(frame, instr.a),
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
                (self._bc_ea(frame), self._pool_ea(frame, instr.a),
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
                (self._bc_ea(frame), self._pool_ea(frame, instr.a),
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
                (self._bc_ea(frame), self._pool_ea(frame, instr.a),
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
                (self._bc_ea(frame), pool_ea, push_ea),
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
            eas = (self._bc_ea(frame), frame.slot_addr(d - 1), hdr,
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
                (self._bc_ea(frame), frame.slot_addr(d - 1)),
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
        eas = [self._bc_ea(frame), self._pool_ea(frame, instr.a)]
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
            bc = self._bc_ea(frame)
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
