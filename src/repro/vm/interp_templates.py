"""Native-code templates for the bytecode interpreter.

The simulated interpreter is modelled after the classic JDK 1.1 C
interpreter: a dispatch loop that fetches the next bytecode (a *data*
load from the bytecode area), indexes a jump table (a data load from
the table in ``.rodata``), and indirect-jumps to the opcode's handler.
Handler bodies move operands between the memory operand stack / locals
and a few fixed VM registers — the source of the interpreter mode's
high memory-operation frequency.

Every executed bytecode therefore emits ``dispatch block + handler
body``.  The dispatch block occupies the *same* pcs for every opcode
(it is one loop in the real binary) while its indirect jump's target
varies per opcode — exactly the pattern that defeats BTB/target
prediction in the paper's branch study.

All templates are pc-stable across VM instances (the interpreter binary
is fixed), so they are built once per process and shared.
"""

from __future__ import annotations

from ..isa.opcodes import N_OPCODES, Op
from ..native.layout import INTERP_TEXT_BASE, INTERP_TEXT_SIZE, TextRegion, VM_DATA_BASE
from ..native.nisa import (
    NCat,
    REG_FP,
    REG_LOCALS,
    REG_RETVAL,
    REG_SP,
    REG_TMP0,
    REG_TMP1,
    REG_TMP2,
    REG_VPC,
)
from ..native.template import PATCH, Template, TemplateBuilder, concat_templates

#: The switch jump table lives at the bottom of the VM data segment.
JUMPTABLE_BASE = VM_DATA_BASE

#: Cap on modelled argument copies for invoke handlers.
MAX_INVOKE_ARGS = 6

#: The interpreter's C-level state block (vpc/sp/frame caches that the
#: unoptimized C code keeps reloading and spilling).
INTERP_STATE_EA = VM_DATA_BASE + 0x900

#: Where the dispatch loop starts (fixed pcs for every opcode's block).
_DISPATCH_LEN = 8


class InterpreterTemplates:
    """Builds and emits the per-opcode handler templates.

    The ``emit_*`` methods are the only interface the interpreter's
    semantic stepper uses; each encapsulates the patch-slot ordering of
    its template so the stepper cannot get it wrong.
    """

    def __init__(self) -> None:
        region = TextRegion(INTERP_TEXT_BASE, INTERP_TEXT_SIZE, "interp")
        self._dispatch_pc = region.alloc(_DISPATCH_LEN)
        self._region = region
        self.tpl: dict = {}
        self._build_all()
        #: ``tpl`` indexed by opcode (None for the invokes, keyed by
        #: ``(kind, argc)``), for the stepper's per-bytecode lookup.
        self.by_opcode = [self.tpl.get(op) for op in range(N_OPCODES)]
        self.text_bytes = region.used_bytes

    @property
    def dispatch_pc(self) -> int:
        """pc of the dispatch loop head (the switch indirect jump site)."""
        return self._dispatch_pc

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _dispatch(self, op: Op, handler_pc: int) -> Template:
        """The shared fetch-decode-dispatch block, one per opcode so the
        jump-table entry address and handler target can be baked in."""
        b = TemplateBuilder(f"dispatch:{op.name.lower()}")
        b.instr(NCat.LOAD, dst=REG_TMP0, src1=REG_VPC, ea=PATCH)  # fetch bytecode
        b.instr(NCat.IALU, dst=REG_VPC, src1=REG_VPC)             # advance vpc
        b.instr(NCat.IALU, dst=REG_SP, src1=REG_SP)               # bounds check
        b.instr(NCat.IALU, dst=REG_TMP1, src1=REG_TMP0)           # scale opcode
        b.instr(NCat.LOAD, dst=REG_TMP2, src1=REG_TMP1,
                ea=JUMPTABLE_BASE + 4 * int(op))                   # table entry
        b.instr(NCat.IALU, dst=REG_TMP0, src1=REG_VPC)            # operand decode
        b.instr(NCat.IALU, dst=REG_TMP1, src1=REG_SP)             # slot address
        b.instr(NCat.IJUMP, src1=REG_TMP2, target=handler_pc)     # to handler
        return b.build(base_pc=self._dispatch_pc)

    def _finish(self, op_key, body: TemplateBuilder) -> None:
        """Terminate a handler with the jump back to the loop and register
        the combined dispatch+body template under ``op_key``."""
        body.instr(NCat.JUMP, target=self._dispatch_pc)
        handler = body.build(region=self._region)
        if isinstance(op_key, Op):
            table_op = op_key
            name = op_key.name.lower()
        else:
            kind, argc = op_key
            table_op = {
                "invokevirtual": Op.INVOKEVIRTUAL,
                "invokespecial": Op.INVOKESPECIAL,
                "invokestatic": Op.INVOKESTATIC,
            }[kind]
            name = f"{kind}/{argc}"
        dispatch = self._dispatch(table_op, handler.base_pc)
        self.tpl[op_key] = concat_templates(f"interp:{name}", [dispatch, handler])

    @staticmethod
    def _bookkeep(b: TemplateBuilder, n: int = 2) -> None:
        """Handler-local bookkeeping the C interpreter does per bytecode:
        operand decoding, sp bookkeeping, type-tag checks, and the
        reload/spill of the interpreter's own C state — the unoptimized
        filler that pads real handlers to ~25 native instructions per
        bytecode (and, per the paper, streams well on wide cores)."""
        b.ialu(dst=REG_TMP1, src1=REG_SP, n=2)
        b.load(dst=REG_TMP2, src1=REG_FP, ea=INTERP_STATE_EA)
        b.ialu(dst=REG_TMP0, src1=REG_FP, n=2)     # independent recompute
        b.instr(NCat.BRANCH, src1=REG_TMP0, taken=False, target=b.rel(2))
        b.store(src1=REG_TMP2, src2=REG_FP, ea=INTERP_STATE_EA + 8)
        b.instr(NCat.BRANCH, src1=REG_TMP1, taken=False, target=b.rel(2))
        b.ialu(dst=REG_TMP1, src1=REG_SP, n=1 + n)

    # ------------------------------------------------------------------
    # template construction
    # ------------------------------------------------------------------
    def _build_all(self) -> None:
        T = self.tpl

        # nop / pop: dispatch + sp bookkeeping only
        for op in (Op.NOP, Op.POP):
            b = TemplateBuilder(op.name)
            self._bookkeep(b)
            self._finish(op, b)

        # constants: materialize + push
        for op in (Op.ICONST, Op.ACONST_NULL):
            b = TemplateBuilder(op.name)
            b.ialu(dst=REG_TMP0)                       # materialize immediate
            self._bookkeep(b)
            b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)  # push
            self._finish(op, b)
        b = TemplateBuilder("fconst")
        b.instr(NCat.FALU, dst=REG_TMP0)
        self._bookkeep(b)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        self._finish(Op.FCONST, b)

        # ldc: pool load + push   eas: (bc, pool_ea, push_ea)
        b = TemplateBuilder("ldc")
        b.load(dst=REG_TMP0, src1=REG_TMP1, ea=PATCH)
        self._bookkeep(b)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        self._finish(Op.LDC, b)

        # local loads: local -> stack   eas: (bc, local_ea, push_ea)
        for op in (Op.ILOAD, Op.FLOAD, Op.ALOAD):
            b = TemplateBuilder(op.name)
            b.ialu(dst=REG_TMP1, src1=REG_LOCALS)      # locals index calc
            b.load(dst=REG_TMP0, src1=REG_TMP1, ea=PATCH)
            self._bookkeep(b)
            b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
            self._finish(op, b)

        # local stores: stack -> local   eas: (bc, pop_ea, local_ea)
        for op in (Op.ISTORE, Op.FSTORE, Op.ASTORE):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.ialu(dst=REG_TMP1, src1=REG_LOCALS)
            self._bookkeep(b)
            b.store(src1=REG_TMP0, src2=REG_TMP1, ea=PATCH)
            self._finish(op, b)

        # iinc: read-modify-write a local   eas: (bc, local_ea, local_ea)
        b = TemplateBuilder("iinc")
        b.load(dst=REG_TMP0, src1=REG_LOCALS, ea=PATCH)
        b.ialu(dst=REG_TMP0, src1=REG_TMP0)
        self._bookkeep(b)
        b.store(src1=REG_TMP0, src2=REG_LOCALS, ea=PATCH)
        self._finish(Op.IINC, b)

        # dup: reload top, push copy   eas: (bc, top_ea, push_ea)
        b = TemplateBuilder("dup")
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        self._bookkeep(b)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        self._finish(Op.DUP, b)

        # dup_x1: 2 loads, 3 stores   eas: (bc, s1, s0, w0, w1, w2)
        b = TemplateBuilder("dup_x1")
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)
        self._bookkeep(b)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        b.store(src1=REG_TMP1, src2=REG_SP, ea=PATCH)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        self._finish(Op.DUP_X1, b)

        # swap: 2 loads, 2 stores   eas: (bc, s1, s0, w1, w0)
        b = TemplateBuilder("swap")
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)
        self._bookkeep(b)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        b.store(src1=REG_TMP1, src2=REG_SP, ea=PATCH)
        self._finish(Op.SWAP, b)

        # binary arithmetic: pop 2, op, push   eas: (bc, a_ea, b_ea, res_ea)
        binop_cat = {
            Op.IADD: NCat.IALU, Op.ISUB: NCat.IALU, Op.IMUL: NCat.IMUL,
            Op.IDIV: NCat.IDIV, Op.IREM: NCat.IDIV, Op.ISHL: NCat.IALU,
            Op.ISHR: NCat.IALU, Op.IUSHR: NCat.IALU, Op.IAND: NCat.IALU,
            Op.IOR: NCat.IALU, Op.IXOR: NCat.IALU,
            Op.FADD: NCat.FALU, Op.FSUB: NCat.FALU, Op.FMUL: NCat.FMUL,
            Op.FDIV: NCat.FDIV,
        }
        for op, cat in binop_cat.items():
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)
            b.instr(cat, dst=REG_TMP0, src1=REG_TMP0, src2=REG_TMP1)
            self._bookkeep(b)
            b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
            self._finish(op, b)

        # fcmp: pop 2 floats, push int   eas: (bc, a_ea, b_ea, res_ea)
        for op in (Op.FCMPL, Op.FCMPG):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)
            b.instr(NCat.FALU, dst=REG_TMP0, src1=REG_TMP0, src2=REG_TMP1)
            b.ialu(dst=REG_TMP0, src1=REG_TMP0)
            self._bookkeep(b)
            b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
            self._finish(op, b)

        # unary ops / conversions   eas: (bc, a_ea, res_ea)
        unop_cat = {
            Op.INEG: NCat.IALU, Op.I2B: NCat.IALU, Op.I2C: NCat.IALU,
            Op.I2S: NCat.IALU, Op.FNEG: NCat.FALU, Op.I2F: NCat.FALU,
            Op.F2I: NCat.FALU,
        }
        for op, cat in unop_cat.items():
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.instr(cat, dst=REG_TMP0, src1=REG_TMP0)
            self._bookkeep(b)
            b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
            self._finish(op, b)

        # one-operand branches   eas: (bc, val_ea)   takens: (cond,)
        for op in (Op.IFEQ, Op.IFNE, Op.IFLT, Op.IFGE, Op.IFGT, Op.IFLE,
                   Op.IFNULL, Op.IFNONNULL):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.ialu(dst=REG_TMP0, src1=REG_TMP0)           # compare
            b.instr(NCat.BRANCH, src1=REG_TMP0, taken=PATCH, target=b.rel(2))
            b.ialu(dst=REG_VPC, src1=REG_VPC)             # fallthrough vpc
            self._bookkeep(b, 1)
            self._finish(op, b)

        # two-operand branches   eas: (bc, a_ea, b_ea)   takens: (cond,)
        for op in (Op.IF_ICMPEQ, Op.IF_ICMPNE, Op.IF_ICMPLT, Op.IF_ICMPGE,
                   Op.IF_ICMPGT, Op.IF_ICMPLE, Op.IF_ACMPEQ, Op.IF_ACMPNE):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)
            b.instr(NCat.IALU, dst=REG_TMP0, src1=REG_TMP0, src2=REG_TMP1)
            b.instr(NCat.BRANCH, src1=REG_TMP0, taken=PATCH, target=b.rel(2))
            b.ialu(dst=REG_VPC, src1=REG_VPC)
            self._bookkeep(b, 1)
            self._finish(op, b)

        # goto: vpc update only   eas: (bc,)
        b = TemplateBuilder("goto")
        b.ialu(dst=REG_VPC, src1=REG_VPC, n=2)
        self._finish(Op.GOTO, b)

        # switches: bounds checks + table read from the bytecode stream
        # eas: (bc, table_ea)
        for op in (Op.TABLESWITCH, Op.LOOKUPSWITCH):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)    # key (popped)
            b.ialu(dst=REG_TMP1, src1=REG_TMP0, n=3)       # bounds / probe calc
            b.instr(NCat.BRANCH, src1=REG_TMP1, taken=False, target=b.rel(3))
            b.load(dst=REG_VPC, src1=REG_TMP1, ea=PATCH)   # read target offset
            b.ialu(dst=REG_VPC, src1=REG_VPC)
            self._finish(op, b)

        # field access (quickened fast path)
        # getfield  eas: (bc, pool_ea, obj_ea, field_ea, push_ea)
        b = TemplateBuilder("getfield")
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)      # pool entry (offset)
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)        # objectref
        b.ialu(dst=REG_TMP1, src1=REG_TMP0)                # null check / addr
        b.load(dst=REG_TMP0, src1=REG_TMP1, ea=PATCH)      # the field
        self._bookkeep(b, 1)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)      # push
        self._finish(Op.GETFIELD, b)

        # putfield  eas: (bc, pool_ea, val_ea, obj_ea, field_ea)
        b = TemplateBuilder("putfield")
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)        # value
        b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)        # objectref
        b.ialu(dst=REG_TMP1, src1=REG_TMP1)
        self._bookkeep(b, 1)
        b.store(src1=REG_TMP0, src2=REG_TMP1, ea=PATCH)    # the field
        self._finish(Op.PUTFIELD, b)

        # getstatic  eas: (bc, pool_ea, static_ea, push_ea)
        b = TemplateBuilder("getstatic")
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)
        b.load(dst=REG_TMP0, src1=REG_TMP2, ea=PATCH)
        self._bookkeep(b, 1)
        b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)
        self._finish(Op.GETSTATIC, b)

        # putstatic  eas: (bc, pool_ea, pop_ea, static_ea)
        b = TemplateBuilder("putstatic")
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        self._bookkeep(b, 1)
        b.store(src1=REG_TMP0, src2=REG_TMP2, ea=PATCH)
        self._finish(Op.PUTSTATIC, b)

        # allocation handlers: pool read + call into the allocator stub
        # eas: (bc, pool_ea, push_ea)
        for op in (Op.NEW, Op.NEWARRAY, Op.ANEWARRAY):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)
            b.ialu(dst=REG_TMP1, src1=REG_TMP2)
            b.instr(NCat.CALL, target=PATCH)               # allocator routine
            self._bookkeep(b, 1)
            b.store(src1=REG_RETVAL, src2=REG_SP, ea=PATCH)
            self._finish(op, b)

        # arraylength  eas: (bc, obj_ea, len_ea, push_ea)
        b = TemplateBuilder("arraylength")
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)
        self._bookkeep(b, 1)
        b.store(src1=REG_TMP1, src2=REG_SP, ea=PATCH)
        self._finish(Op.ARRAYLENGTH, b)

        # array loads  eas: (bc, idx_ea, ref_ea, len_ea, elem_ea, push_ea)
        for op in (Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)    # index
            b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)    # arrayref
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)  # length
            b.instr(NCat.BRANCH, src1=REG_TMP2, taken=False, target=b.rel(4))
            b.ialu(dst=REG_TMP2, src1=REG_TMP1, src2=REG_TMP0)
            b.load(dst=REG_TMP0, src1=REG_TMP2, ea=PATCH)  # element
            self._bookkeep(b, 1)
            b.store(src1=REG_TMP0, src2=REG_SP, ea=PATCH)  # push
            self._finish(op, b)

        # array stores  eas: (bc, val_ea, idx_ea, ref_ea, len_ea, elem_ea)
        for op in (Op.IASTORE, Op.FASTORE, Op.AASTORE, Op.BASTORE, Op.CASTORE):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)    # value
            b.load(dst=REG_TMP1, src1=REG_SP, ea=PATCH)    # index
            b.load(dst=REG_TMP2, src1=REG_SP, ea=PATCH)    # arrayref
            b.load(dst=REG_TMP2, src1=REG_TMP2, ea=PATCH)  # length
            b.instr(NCat.BRANCH, src1=REG_TMP2, taken=False, target=b.rel(3))
            b.ialu(dst=REG_TMP2, src1=REG_TMP2, src2=REG_TMP1)
            b.store(src1=REG_TMP0, src2=REG_TMP2, ea=PATCH)  # element
            self._bookkeep(b, 1)
            self._finish(op, b)

        # checkcast / instanceof  eas: (bc, obj_ea, hdr_ea, cls_ea, res_push_ea?)
        b = TemplateBuilder("checkcast")
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)      # class ptr
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)      # class struct walk
        b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=2)
        b.instr(NCat.BRANCH, src1=REG_TMP2, taken=False, target=b.rel(2))
        self._bookkeep(b, 1)
        self._finish(Op.CHECKCAST, b)

        b = TemplateBuilder("instanceof")
        b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
        b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)
        b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=2)
        b.instr(NCat.BRANCH, src1=REG_TMP2, taken=False, target=b.rel(2))
        b.store(src1=REG_TMP2, src2=REG_SP, ea=PATCH)      # push result
        self._finish(Op.INSTANCEOF, b)

        # monitors: pop the ref, call into the lock manager routine
        # eas: (bc, obj_ea)   targets: (lock_routine_pc,)
        for op in (Op.MONITORENTER, Op.MONITOREXIT):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
            b.ialu(dst=REG_TMP1, src1=REG_TMP0)
            b.instr(NCat.CALL, target=PATCH)
            self._finish(op, b)

        # invokes, one variant per (kind, modelled argc)
        # virtual eas: (bc, pool_ea, recv_ea, hdr_ea, vtbl_ea,
        #               arg pairs (load_ea, store_ea) * argc, savedvpc_ea)
        #   targets: (entry_pc,)
        for argc in range(MAX_INVOKE_ARGS + 1):
            b = TemplateBuilder(f"invokevirtual/{argc}")
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)   # pool entry
            b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)     # receiver
            b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)   # class ptr
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)   # vtable entry
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=2)        # frame setup
            for _ in range(argc + 1):                        # receiver + args
                b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
                b.store(src1=REG_TMP0, src2=REG_LOCALS, ea=PATCH)
            b.store(src1=REG_VPC, src2=REG_TMP1, ea=PATCH)  # save vpc in frame
            b.instr(NCat.ICALL, src1=REG_TMP2, target=PATCH)
            self._finish(("invokevirtual", argc), b)

            # special: resolved target, still copies receiver
            b = TemplateBuilder(f"invokespecial/{argc}")
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)   # pool entry
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=2)
            for _ in range(argc + 1):
                b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
                b.store(src1=REG_TMP0, src2=REG_LOCALS, ea=PATCH)
            b.store(src1=REG_VPC, src2=REG_TMP1, ea=PATCH)
            b.instr(NCat.ICALL, src1=REG_TMP2, target=PATCH)
            self._finish(("invokespecial", argc), b)

            # static: no receiver
            b = TemplateBuilder(f"invokestatic/{argc}")
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=2)
            for _ in range(argc):
                b.load(dst=REG_TMP0, src1=REG_SP, ea=PATCH)
                b.store(src1=REG_TMP0, src2=REG_LOCALS, ea=PATCH)
            b.store(src1=REG_VPC, src2=REG_TMP1, ea=PATCH)
            b.instr(NCat.ICALL, src1=REG_TMP2, target=PATCH)
            self._finish(("invokestatic", argc), b)

        # returns with a value
        # eas: (bc, res_ea, savedvpc_ea, savedfp_ea, caller_push_ea)
        for op in (Op.IRETURN, Op.FRETURN, Op.ARETURN):
            b = TemplateBuilder(op.name)
            b.load(dst=REG_RETVAL, src1=REG_SP, ea=PATCH)   # result
            b.load(dst=REG_VPC, src1=REG_LOCALS, ea=PATCH)  # restore vpc
            b.load(dst=REG_LOCALS, src1=REG_LOCALS, ea=PATCH)  # restore frame
            b.ialu(dst=REG_SP, src1=REG_SP)
            b.store(src1=REG_RETVAL, src2=REG_SP, ea=PATCH)  # push into caller
            b.instr(NCat.RET, target=PATCH)
            self._finish(op, b)

        # void return   eas: (bc, savedvpc_ea, savedfp_ea)
        b = TemplateBuilder("return")
        b.load(dst=REG_VPC, src1=REG_LOCALS, ea=PATCH)
        b.load(dst=REG_LOCALS, src1=REG_LOCALS, ea=PATCH)
        b.ialu(dst=REG_SP, src1=REG_SP)
        b.instr(NCat.RET, target=PATCH)
        self._finish(Op.RETURN, b)


_SHARED: InterpreterTemplates | None = None


def shared_templates() -> InterpreterTemplates:
    """Process-wide interpreter template set (the binary is fixed)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = InterpreterTemplates()
    return _SHARED
