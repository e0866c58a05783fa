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
"""

from __future__ import annotations

import time

from ..isa.opcodes import ArrayType, Op, OPINFO
from ..native.nisa import NCat
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


class Interpreter:
    """Executes bytecodes for one VM instance."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self.sink = vm.sink
        self.tpls = shared_templates()
        self.stubs = vm.stubs
        self.loader = vm.loader
        self.tiered = vm.tiered
        self._handlers = self._build_dispatch()

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, thread: JThread, budget: int) -> int:
        """Run up to ``budget`` bytecodes; returns the number executed."""
        if TRACER.enabled:
            # The traced variant buckets per-handler wall time by emit
            # mode; keeping it out of line leaves this hot loop with
            # exactly one extra attribute check when tracing is off.
            return self._step_traced(thread, budget)
        executed = 0
        vm = self.vm
        loader = self.loader
        profiler = vm.profiler
        sink = self.sink
        handlers = self._handlers
        opcode_counts = vm.opcode_counts
        while executed < budget and thread.state == RUNNABLE and thread.frames:
            frame = thread.frames[-1]
            instr = frame.code[frame.ip]
            frame.ip += 1
            opcode_counts[instr.op] += 1
            # Translate and class-loading cycles land in the sink too but
            # are overhead, not the method's: they are diffed out below.
            cycles_before = sink.cycles
            overhead_before = vm.translate_overhead + loader.overhead_cycles
            handlers[instr.op](thread, frame, instr)
            executed += 1
            if profiler is not None:
                delta = (sink.cycles - cycles_before) - (
                    vm.translate_overhead + loader.overhead_cycles
                    - overhead_before
                )
                if delta > 0:
                    # The frame caches its MethodProfile at push time, so
                    # attribution is slot access — no per-bytecode dict
                    # lookup on the method.
                    p = frame.profile
                    if p is None:
                        p = frame.profile = profiler.profile_for(frame.method)
                    if frame.emit_mode == EMIT_INTERP:
                        p.interp_cycles += delta
                    else:
                        p.compiled_cycles += delta
        thread.bytecodes_executed += executed
        if not thread.frames and thread.state == RUNNABLE:
            vm.finish_thread(thread)
        return executed

    def _step_traced(self, thread: JThread, budget: int) -> int:
        """The stepper with per-emit-mode dispatch timing (tracer on).

        Accumulates each handler's wall time into the VM's
        ``dispatch_seconds``/``dispatch_counts`` buckets, keyed by the
        current frame's emit mode; ``JavaVM.run`` emits the aggregates
        as the ``vm.interp.dispatch`` / ``vm.jit.execute`` spans.
        Nested JIT translation happens inside an invoke handler, so its
        wall time also appears separately as ``vm.jit.translate``.
        """
        executed = 0
        vm = self.vm
        loader = self.loader
        profiler = vm.profiler
        sink = self.sink
        handlers = self._handlers
        opcode_counts = vm.opcode_counts
        dispatch_seconds = vm.dispatch_seconds
        dispatch_counts = vm.dispatch_counts
        clock = time.perf_counter
        while executed < budget and thread.state == RUNNABLE and thread.frames:
            frame = thread.frames[-1]
            instr = frame.code[frame.ip]
            frame.ip += 1
            opcode_counts[instr.op] += 1
            cycles_before = sink.cycles
            overhead_before = vm.translate_overhead + loader.overhead_cycles
            mode = frame.emit_mode
            started = clock()
            handlers[instr.op](thread, frame, instr)
            dispatch_seconds[mode] += clock() - started
            dispatch_counts[mode] += 1
            executed += 1
            if profiler is not None:
                delta = (sink.cycles - cycles_before) - (
                    vm.translate_overhead + loader.overhead_cycles
                    - overhead_before
                )
                profiler.charge(frame, delta)
        thread.bytecodes_executed += executed
        if not thread.frames and thread.state == RUNNABLE:
            vm.finish_thread(thread)
        return executed

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _bc_ea(frame) -> int:
        m = frame.method
        return m.bc_addr + m.bc_offsets[frame.ip - 1]

    def _pool_ea(self, frame, idx) -> int:
        return self.loader.pool_ea(frame.method.jclass, idx)

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
    def _build_dispatch(self):
        h = {
            Op.NOP: self._op_nop,
            Op.ICONST: self._op_iconst,
            Op.FCONST: self._op_fconst,
            Op.ACONST_NULL: self._op_aconst_null,
            Op.LDC: self._op_ldc,
            Op.IINC: self._op_iinc,
            Op.POP: self._op_pop,
            Op.DUP: self._op_dup,
            Op.DUP_X1: self._op_dup_x1,
            Op.SWAP: self._op_swap,
            Op.INEG: self._op_unary,
            Op.FNEG: self._op_unary,
            Op.I2F: self._op_unary,
            Op.F2I: self._op_unary,
            Op.I2B: self._op_unary,
            Op.I2C: self._op_unary,
            Op.I2S: self._op_unary,
            Op.FCMPL: self._op_fcmp,
            Op.FCMPG: self._op_fcmp,
            Op.GOTO: self._op_goto,
            Op.TABLESWITCH: self._op_tableswitch,
            Op.LOOKUPSWITCH: self._op_lookupswitch,
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
        for op in (Op.IADD, Op.ISUB, Op.IMUL, Op.IDIV, Op.IREM, Op.ISHL,
                   Op.ISHR, Op.IUSHR, Op.IAND, Op.IOR, Op.IXOR,
                   Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV):
            h[op] = self._op_binop
        for op in (Op.IFEQ, Op.IFNE, Op.IFLT, Op.IFGE, Op.IFGT, Op.IFLE,
                   Op.IFNULL, Op.IFNONNULL):
            h[op] = self._op_if1
        for op in (Op.IF_ICMPEQ, Op.IF_ICMPNE, Op.IF_ICMPLT, Op.IF_ICMPGE,
                   Op.IF_ICMPGT, Op.IF_ICMPLE, Op.IF_ACMPEQ, Op.IF_ACMPNE):
            h[op] = self._op_if2
        for op in (Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD):
            h[op] = self._op_array_load
        for op in (Op.IASTORE, Op.FASTORE, Op.AASTORE, Op.BASTORE,
                   Op.CASTORE):
            h[op] = self._op_array_store
        missing = set(Op) - set(h)
        assert not missing, f"unhandled opcodes: {missing}"
        return h

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------
    def _emit_chunk(self, frame, dyn=(), takens=(), targets=()):
        chunk = frame.chunks[frame.ip - 1]
        if chunk is not None:
            chunk.emit(self.sink, frame, dyn, takens, targets)

    # ------------------------------------------------------------------
    # simple opcodes
    # ------------------------------------------------------------------
    def _op_nop(self, thread, frame, instr):
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[Op.NOP], (self._bc_ea(frame),))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_iconst(self, thread, frame, instr):
        d = len(frame.stack)
        frame.stack.append(instr.a)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[Op.ICONST],
                           (self._bc_ea(frame), frame.slot_addr(d)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_fconst(self, thread, frame, instr):
        d = len(frame.stack)
        frame.stack.append(float(instr.a))
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[Op.FCONST],
                           (self._bc_ea(frame), frame.slot_addr(d)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_aconst_null(self, thread, frame, instr):
        d = len(frame.stack)
        frame.stack.append(None)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[Op.ACONST_NULL],
                           (self._bc_ea(frame), frame.slot_addr(d)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_ldc(self, thread, frame, instr):
        entry = frame.method.pool[instr.a]
        value = entry.value
        if isinstance(value, str):
            value = self.vm.intern_string(value)
        d = len(frame.stack)
        frame.stack.append(value)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.LDC],
                (self._bc_ea(frame), self._pool_ea(frame, instr.a),
                 frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- locals ----------------------------------------------------------
    def _op_load_local(self, thread, frame, instr):
        d = len(frame.stack)
        frame.stack.append(frame.locals[instr.a])
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), frame.local_addr(instr.a),
                 frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_store_local(self, thread, frame, instr):
        value = frame.stack.pop()
        d = len(frame.stack)
        frame.locals[instr.a] = value
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), frame.slot_addr(d),
                 frame.local_addr(instr.a)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_iinc(self, thread, frame, instr):
        frame.locals[instr.a] = values.i32(frame.locals[instr.a] + instr.b)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            ea = frame.local_addr(instr.a)
            self.sink.emit(self.tpls.tpl[Op.IINC],
                           (self._bc_ea(frame), ea, ea))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- operand stack -----------------------------------------------------
    def _op_pop(self, thread, frame, instr):
        frame.stack.pop()
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(self.tpls.tpl[Op.POP], (self._bc_ea(frame),))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_dup(self, thread, frame, instr):
        d = len(frame.stack)
        frame.stack.append(frame.stack[-1])
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.DUP],
                (self._bc_ea(frame), frame.slot_addr(d - 1),
                 frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_dup_x1(self, thread, frame, instr):
        b = frame.stack.pop()
        a = frame.stack.pop()
        d = len(frame.stack)
        frame.stack.extend((b, a, b))
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[Op.DUP_X1],
                (self._bc_ea(frame), s(d + 1), s(d), s(d), s(d + 1), s(d + 2)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_swap(self, thread, frame, instr):
        stack = frame.stack
        stack[-1], stack[-2] = stack[-2], stack[-1]
        d = len(stack)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[Op.SWAP],
                (self._bc_ea(frame), s(d - 1), s(d - 2), s(d - 1), s(d - 2)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- arithmetic -----------------------------------------------------------
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
        Op.FDIV: lambda a, b: a / b if b != 0.0 else (
            float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
        ),
    }

    def _op_binop(self, thread, frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        d = len(stack)
        stack.append(self._BINOPS[instr.op](a, b))
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (self._bc_ea(frame), s(d), s(d + 1), s(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    _UNOPS = {
        Op.INEG: lambda v: values.i32(-v),
        Op.FNEG: lambda v: -v,
        Op.I2F: float,
        Op.F2I: lambda v: values.i32(int(v)),
        Op.I2B: values.i8,
        Op.I2C: values.u16,
        Op.I2S: values.i16,
    }

    def _op_unary(self, thread, frame, instr):
        stack = frame.stack
        stack[-1] = self._UNOPS[instr.op](stack[-1])
        d = len(stack)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(self.tpls.tpl[instr.op],
                           (self._bc_ea(frame), s(d - 1), s(d - 1)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    def _op_fcmp(self, thread, frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        d = len(stack)
        stack.append(values.fcmp(a, b, -1 if instr.op is Op.FCMPL else 1))
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            self.sink.emit(self.tpls.tpl[instr.op],
                           (self._bc_ea(frame), s(d), s(d + 1), s(d)))
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame)

    # -- control flow -----------------------------------------------------------
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

    def _op_if1(self, thread, frame, instr):
        value = frame.stack.pop()
        d = len(frame.stack)
        taken = self._IF1_TESTS[instr.op](value)
        idx = frame.ip - 1
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            m = frame.method
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (m.bc_addr + m.bc_offsets[idx], frame.slot_addr(d)),
                (taken,),
            )
        elif mode >= EMIT_COMPILED:
            chunk = frame.chunks[idx]
            if chunk is not None:
                chunk.emit(self.sink, frame, (), (taken,))
        if taken:
            frame.ip = instr.a
            if instr.a <= idx and self.tiered is not None:
                self.tiered.on_backedge(thread, frame)

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

    def _op_if2(self, thread, frame, instr):
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        d = len(stack)
        taken = self._IF2_TESTS[instr.op](a, b)
        idx = frame.ip - 1
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            s = frame.slot_addr
            m = frame.method
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (m.bc_addr + m.bc_offsets[idx], s(d), s(d + 1)),
                (taken,),
            )
        elif mode >= EMIT_COMPILED:
            chunk = frame.chunks[idx]
            if chunk is not None:
                chunk.emit(self.sink, frame, (), (taken,))
        if taken:
            frame.ip = instr.a
            if instr.a <= idx and self.tiered is not None:
                self.tiered.on_backedge(thread, frame)

    def _op_goto(self, thread, frame, instr):
        idx = frame.ip - 1
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            m = frame.method
            self.sink.emit(self.tpls.tpl[Op.GOTO],
                           (m.bc_addr + m.bc_offsets[idx],))
        elif mode >= EMIT_COMPILED:
            chunk = frame.chunks[idx]
            if chunk is not None:
                chunk.emit(self.sink, frame)
        frame.ip = instr.a
        if instr.a <= idx and self.tiered is not None:
            self.tiered.on_backedge(thread, frame)

    def _op_tableswitch(self, thread, frame, instr):
        key = frame.stack.pop()
        low, targets, default = instr.extra
        index = key - low
        if 0 <= index < len(targets):
            target = targets[index]
        else:
            target = default
        self._finish_switch(frame, instr, target, index)

    def _op_lookupswitch(self, thread, frame, instr):
        key = frame.stack.pop()
        table, default = instr.extra
        target = table.get(key, default)
        self._finish_switch(frame, instr, target, key)

    def _finish_switch(self, frame, instr, target, index):
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            m = frame.method
            bc = m.bc_addr + m.bc_offsets[frame.ip - 1]
            table_ea = bc + 12 + 4 * max(0, int(index) % 64)
            key_ea = frame.slot_addr(len(frame.stack))
            self.sink.emit(
                self.tpls.tpl[instr.op],
                (bc, key_ea, table_ea),
            )
        elif mode >= EMIT_COMPILED:
            chunk = frame.chunks[frame.ip - 1]
            target_pc = self._chunk_pc(frame, target)
            if chunk is not None:
                chunk.emit(self.sink, frame, (), (), (target_pc,))
        frame.ip = target

    def _chunk_pc(self, frame, index) -> int:
        """pc of the chunk for a bytecode index (next non-empty)."""
        chunks = frame.chunks
        for i in range(index, len(chunks)):
            if chunks[i] is not None:
                return chunks[i].base_pc
        return 0

    # ------------------------------------------------------------------
    # fields
    # ------------------------------------------------------------------
    def _op_getstatic(self, thread, frame, instr):
        declarer, name = self.loader.resolve_field(frame.method.jclass, instr.a)
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
        declarer, name = self.loader.resolve_field(frame.method.jclass, instr.a)
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
        self.loader.resolve_field(frame.method.jclass, instr.a)
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
        self.loader.resolve_field(frame.method.jclass, instr.a)
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
        cls = self.loader.resolve_class(frame.method.jclass, instr.a)
        obj = self.vm.heap.new_object(cls)
        if self.vm.lock_elision:
            self._mark_thread_local(thread, frame, obj)
        elif self.tiered is not None:
            self.tiered.mark_allocation(thread, frame, obj)
        d = len(frame.stack)
        frame.stack.append(obj)
        self._emit_alloc(frame, instr, obj, frame.slot_addr(d))

    def _op_newarray(self, thread, frame, instr):
        length = frame.stack.pop()
        arr = self.vm.heap.new_array(ArrayType(instr.a), length)
        if self.vm.lock_elision:
            self._mark_thread_local(thread, frame, arr)
        elif self.tiered is not None:
            self.tiered.mark_allocation(thread, frame, arr)
        d = len(frame.stack)
        frame.stack.append(arr)
        self._emit_alloc(frame, instr, arr, frame.slot_addr(d))

    def _op_anewarray(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.method.jclass, instr.a)
        length = frame.stack.pop()
        arr = self.vm.heap.new_array("ref", length, ref_class=cls)
        if self.vm.lock_elision:
            self._mark_thread_local(thread, frame, arr)
        elif self.tiered is not None:
            self.tiered.mark_allocation(thread, frame, arr)
        d = len(frame.stack)
        frame.stack.append(arr)
        self._emit_alloc(frame, instr, arr, frame.slot_addr(d))

    def _mark_thread_local(self, thread, frame, obj) -> None:
        """Tag ``obj`` for lock elision when this allocation site is
        proven non-escaping (the instruction just fetched is ip-1)."""
        if (frame.ip - 1) in self.vm.elidable_sites(frame.method):
            obj.tl_thread = thread.thread_id

    def _emit_alloc(self, frame, instr, obj, push_ea):
        mode = frame.emit_mode
        stubs = self.stubs
        if mode == EMIT_INTERP:
            pool_ea = (self._pool_ea(frame, instr.a)
                       if instr.op is not Op.NEWARRAY
                       else self._pool_ea(frame, 0) if len(frame.method.pool)
                       else frame.method.jclass.pool_addr)
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
    # arrays
    # ------------------------------------------------------------------
    def _op_arraylength(self, thread, frame, instr):
        arr = frame.stack.pop()
        if not isinstance(arr, JArray):
            raise VMError("arraylength on non-array")
        d = len(frame.stack)
        frame.stack.append(arr.length)
        mode = frame.emit_mode
        if mode == EMIT_INTERP:
            self.sink.emit(
                self.tpls.tpl[Op.ARRAYLENGTH],
                (self._bc_ea(frame), frame.slot_addr(d), arr.addr + 8,
                 frame.slot_addr(d)),
            )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (arr.addr + 8,))

    _ARRAY_STORE_COERCE = {
        Op.IASTORE: values.i32,
        Op.FASTORE: float,
        Op.BASTORE: values.i8,
        Op.CASTORE: values.u16,
        Op.AASTORE: lambda v: v,
    }

    def _op_array_load(self, thread, frame, instr):
        stack = frame.stack
        index = stack.pop()
        arr = stack.pop()
        if not isinstance(arr, JArray):
            raise VMError(f"array load on {arr!r}")
        arr.check(index)
        d = len(stack)
        stack.append(arr.data[index])
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
        value = stack.pop()
        index = stack.pop()
        arr = stack.pop()
        if not isinstance(arr, JArray):
            raise VMError(f"array store on {arr!r}")
        arr.check(index)
        d = len(stack)
        arr.data[index] = self._ARRAY_STORE_COERCE[instr.op](value)
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
    # type checks
    # ------------------------------------------------------------------
    def _op_checkcast(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.method.jclass, instr.a)
        ref = frame.stack[-1]
        if ref is not None and not self._instance_of(ref, cls):
            raise VMError(
                f"ClassCastException: {ref!r} is not a {cls.name}"
            )
        self._emit_typecheck(frame, instr, Op.CHECKCAST, ref, cls)

    def _op_instanceof(self, thread, frame, instr):
        cls = self.loader.resolve_class(frame.method.jclass, instr.a)
        ref = frame.stack.pop()
        result = 1 if (ref is not None and self._instance_of(ref, cls)) else 0
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
        resolved = self.loader.resolve_method(frame.method.jclass, instr.a)
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

        # Synchronized methods lock before anything is popped, so a
        # blocked thread can retry the invoke cleanly.
        sync_obj = None
        if target.is_synchronized:
            sync_obj = receiver if receiver is not None else target.jclass
            if not vm.monitor_enter(thread, sync_obj):
                frame.ip -= 1
                return

        args = stack[len(stack) - n_args:] if n_args else []
        del stack[len(stack) - n_args:]

        if target.is_native:
            self._invoke_native(thread, frame, instr, target, args,
                                receiver, sync_obj, n_args)
            return

        compiled = vm.prepare_method(target)
        callee = thread.push_frame(target)
        if vm.profiler is not None:
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
            dyn = tuple(receiver.addr + off for off in inline_site.field_offsets)
            self._emit_chunk(frame, dyn)
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
        self._emit_invoke(frame, instr, op, receiver, target, n_args,
                          callee, entry_pc)
        if callee.emit_mode == EMIT_COMPILED:
            compiled.prologue.emit(self.sink, callee)

    def _return_site(self, frame) -> int:
        """Native pc execution resumes at when the callee returns."""
        if frame.emit_mode >= EMIT_COMPILED:
            chunk = frame.chunks[frame.ip - 1]
            if chunk is not None:
                return chunk.template.end_pc
        return self.tpls.dispatch_pc

    def _emit_invoke(self, frame, instr, op, receiver, target, n_args,
                     callee, entry_pc):
        mode = frame.emit_mode
        if mode == EMIT_NONE:
            return
        if mode >= EMIT_COMPILED:
            if op is Op.INVOKEVIRTUAL:
                self._emit_chunk(
                    frame,
                    (receiver.addr, target.meta_addr),
                    (),
                    (entry_pc,),
                )
            else:
                self._emit_chunk(frame, (), (), (entry_pc,))
            return
        # Interpreter emission.
        d = len(frame.stack)  # args already popped
        s = frame.slot_addr
        bc = self._bc_ea(frame)
        pool_ea = self._pool_ea(frame, instr.a)
        if op is Op.INVOKEVIRTUAL:
            argc_key = min(n_args - 1, MAX_INVOKE_ARGS)
            eas = [bc, pool_ea, s(d), receiver.addr, target.meta_addr]
            pairs = argc_key + 1
        elif op is Op.INVOKESPECIAL:
            argc_key = min(n_args - 1, MAX_INVOKE_ARGS)
            eas = [bc, pool_ea]
            pairs = argc_key + 1
        else:
            argc_key = min(n_args, MAX_INVOKE_ARGS)
            eas = [bc, pool_ea]
            pairs = argc_key
        for k in range(pairs):
            eas.append(s(d + k))                    # arg load (caller stack)
            eas.append(callee.local_addr(k))        # arg store (callee locals)
        eas.append(callee.frame_base)               # saved vpc
        key = ({Op.INVOKEVIRTUAL: "invokevirtual",
                Op.INVOKESPECIAL: "invokespecial",
                Op.INVOKESTATIC: "invokestatic"}[op], argc_key)
        self.sink.emit(self.tpls.tpl[key], tuple(eas), (), (entry_pc,))

    def _invoke_native(self, thread, frame, instr, target, args, receiver,
                       sync_obj, n_args):
        vm = self.vm
        mode = frame.emit_mode
        callee_locals_base = frame.slot_addr(len(frame.stack))
        if mode == EMIT_INTERP:
            # The invoke handler models the call; a static-cost native
            # body follows.
            op = instr.op
            d = len(frame.stack)
            s = frame.slot_addr
            bc = self._bc_ea(frame)
            pool_ea = self._pool_ea(frame, instr.a)
            if op is Op.INVOKEVIRTUAL:
                argc_key = min(n_args - 1, MAX_INVOKE_ARGS)
                eas = [bc, pool_ea, s(d), receiver.addr, target.meta_addr]
                pairs = argc_key + 1
                key = ("invokevirtual", argc_key)
            elif op is Op.INVOKESPECIAL:
                argc_key = min(n_args - 1, MAX_INVOKE_ARGS)
                eas = [bc, pool_ea]
                pairs = argc_key + 1
                key = ("invokespecial", argc_key)
            else:
                argc_key = min(n_args, MAX_INVOKE_ARGS)
                eas = [bc, pool_ea]
                pairs = argc_key
                key = ("invokestatic", argc_key)
            for k in range(pairs):
                eas.append(s(d + k))
                eas.append(callee_locals_base + 4 * k)
            eas.append(callee_locals_base)
            self.sink.emit(self.tpls.tpl[key], tuple(eas),
                           (), (self.stubs.region.base,))
        elif mode >= EMIT_COMPILED:
            if instr.op is Op.INVOKEVIRTUAL:
                self._emit_chunk(frame, (receiver.addr, target.meta_addr),
                                 (), (self.stubs.region.base,))
            else:
                self._emit_chunk(frame, (), (), (self.stubs.region.base,))

        result = target.native_impl(vm, thread, args)
        if result is vm.NATIVE_BLOCKED:
            # Undo: the native could not proceed (e.g. join on a live
            # thread).  Push the args back and retry later.
            frame.stack.extend(args)
            frame.ip -= 1
            if sync_obj is not None:
                vm.monitor_exit(thread, sync_obj)
            return
        if mode != EMIT_NONE:
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
            d = len(frame.stack)
            bc = self._bc_ea(frame)
            fh = frame.frame_base
            if has_result:
                caller_push = (caller.slot_addr(push_d) if caller is not None
                               else frame.slot_addr(0))
                self.sink.emit(
                    self.tpls.tpl[instr.op],
                    (bc, frame.slot_addr(d), fh, fh + 4, caller_push),
                    (),
                    (frame.return_pc,),
                )
            else:
                self.sink.emit(
                    self.tpls.tpl[Op.RETURN],
                    (bc, fh, fh + 4),
                    (),
                    (frame.return_pc,),
                )
        elif mode >= EMIT_COMPILED:
            self._emit_chunk(frame, (), (), (frame.return_pc,))
