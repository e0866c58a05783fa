"""Native templates for the JIT translator itself.

The translate routine is modelled on Kaffe's: a driver loop walks the
method's bytecode (reading it as *data*), dispatches to a per-opcode
code generator (small, heavily reused routines — hence the good
instruction locality the paper measures inside translate), builds IR in
a reused work area, and finally *stores* each generated native
instruction into the code cache — the compulsory write misses that
dominate the translate portion's data-cache behaviour (Figure 5).

Every instruction carries ``FLAG_TRANSLATE`` so the cache studies can
attribute misses to the translate portion in isolation.

:meth:`TranslateStubs.emit_translation` walks the bytecode and emits
every event, with its effective addresses; a recording sink gets that
walk.  A counting sink keeps no events, so its whole effect is a
template -> count histogram that depends only on the opcodes and on how
many native instructions the body installs:
:meth:`TranslateStubs.translation_counts` computes it in closed form,
and the compiler charges it in one step.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ...isa.opcodes import Op, OPINFO
from ...native.layout import (
    JITC_TEXT_BASE,
    JITC_TEXT_SIZE,
    NATIVE_INSTR_BYTES,
    TextRegion,
    VM_DATA_BASE,
)
from ...native.nisa import (
    FLAG_TRANSLATE,
    NCat,
    REG_ARG0,
    REG_ARG1,
    REG_TMP0,
    REG_TMP1,
    REG_TMP2,
)
from ...native.template import PATCH, Template, TemplateBuilder

#: The translator's IR work area (reused across compilations).
WORK_AREA_BASE = VM_DATA_BASE + 0x1000
WORK_AREA_BYTES = 0x800

#: Generator routine classes; each opcode maps onto one of these.
GENERATOR_CLASSES = (
    "const", "local", "stack", "alu", "falu", "branch", "field",
    "invoke", "array", "alloc", "switch", "ret", "misc",
)


def generator_class(op: Op) -> str:
    """Which generator routine translates a given opcode."""
    kind = OPINFO[op].kind
    if kind == "const":
        return "const"
    if kind in ("load_local", "store_local", "iinc"):
        return "local"
    if kind == "stack":
        return "stack"
    if kind in ("binop", "unop"):
        return "falu" if op in (
            Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FNEG, Op.I2F, Op.F2I,
            Op.FCMPL, Op.FCMPG,
        ) else "alu"
    if kind in ("branch", "goto"):
        return "branch"
    if kind == "field":
        return "field"
    if kind == "invoke":
        return "invoke"
    if kind == "array":
        return "array"
    if kind == "new":
        return "alloc"
    if kind == "switch":
        return "switch"
    if kind == "return":
        return "ret"
    return "misc"


class TranslateStubs:
    """pc-stable templates of the translator binary (built once)."""

    def __init__(self) -> None:
        region = TextRegion(JITC_TEXT_BASE, JITC_TEXT_SIZE, "jitc")

        # Driver loop: fetch bytecode (data read!), decode, call generator.
        b = TemplateBuilder("xlate:driver", base_flags=FLAG_TRANSLATE)
        b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)      # bytecode word
        b.ialu(dst=REG_TMP1, src1=REG_TMP0, n=4)           # decode
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)      # opcode gen table
        b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=2)
        b.instr(NCat.ICALL, src1=REG_TMP2, target=PATCH)   # generator routine
        b.instr(NCat.BRANCH, src1=REG_ARG0, taken=PATCH, target=b.rel(-9))
        self.driver = b.build(region=region)

        # Per-class generator routines: IR reads/writes in the work area.
        # Sized after Kaffe-class translators: a few dozen instructions
        # of IR manipulation and operand bookkeeping per bytecode.
        self.generators: dict[str, Template] = {}
        for name in GENERATOR_CLASSES:
            b = TemplateBuilder(f"xlate:gen:{name}", base_flags=FLAG_TRANSLATE)
            b.ialu(dst=REG_TMP0, src1=REG_ARG1, n=10)      # template selection
            b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)  # IR read
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=8)
            b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)  # IR read
            b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=8)
            b.store(src1=REG_TMP2, src2=REG_TMP0, ea=PATCH)  # IR write
            b.ialu(dst=REG_TMP0, src1=REG_TMP0, n=8)
            b.store(src1=REG_TMP0, src2=REG_TMP1, ea=PATCH)  # IR write
            b.instr(NCat.BRANCH, src1=REG_TMP0, taken=False, target=b.rel(2))
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=8)
            b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)  # operand-state read
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=6)
            b.store(src1=REG_TMP1, src2=REG_TMP0, ea=PATCH)  # operand-state write
            b.instr(NCat.BRANCH, src1=REG_TMP1, taken=True, target=b.rel(-4))
            b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=6)
            b.instr(NCat.RET, target=PATCH)
            self.generators[name] = b.build(region=region)

        # Emission of one generated native instruction into the code cache.
        b = TemplateBuilder("xlate:emit", base_flags=FLAG_TRANSLATE)
        b.ialu(dst=REG_TMP0, src1=REG_TMP1, n=2)           # encode
        b.store(src1=REG_TMP0, src2=REG_ARG1, ea=PATCH)    # install (write miss!)
        self.emit_instr = b.build(region=region)

        # Archive install: stream one pre-compiled word from the staged
        # archive image into the code cache.  The code-cache store is
        # the same compulsory write miss a fresh translation pays, but
        # none of the driver/generator work happens — this gap is the
        # whole warm-start win the shared code archive measures.
        b = TemplateBuilder("xlate:install", base_flags=FLAG_TRANSLATE)
        b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)      # archived word
        b.store(src1=REG_TMP0, src2=REG_ARG1, ea=PATCH)    # install (write miss!)
        self.install_instr = b.build(region=region)

        # Per-method install overhead: open/verify the archive entry and
        # relocate method-internal addresses onto the local code cache.
        b = TemplateBuilder("xlate:install-method", base_flags=FLAG_TRANSLATE)
        b.ialu(dst=REG_TMP0, src1=REG_TMP1, n=8)
        b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)      # entry header
        b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=4)
        b.load(dst=REG_TMP2, src1=REG_TMP0, ea=PATCH)      # relocation table
        b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=4)
        b.instr(NCat.RET, target=PATCH)
        self.install_overhead = b.build(region=region)

        # Per-method overhead: register allocation, branch fixups, flush.
        b = TemplateBuilder("xlate:method", base_flags=FLAG_TRANSLATE)
        b.ialu(dst=REG_TMP0, src1=REG_TMP1, n=48)
        for _ in range(8):
            b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)
            b.ialu(dst=REG_TMP1, src1=REG_TMP1, n=6)
            b.store(src1=REG_TMP1, src2=REG_TMP0, ea=PATCH)
        b.instr(NCat.BRANCH, src1=REG_TMP0, taken=True, target=b.rel(-9))
        b.ialu(dst=REG_TMP0, src1=REG_TMP0, n=16)
        b.instr(NCat.RET, target=PATCH)
        self.method_overhead = b.build(region=region)

        self.text_bytes = region.used_bytes
        #: The generator routine of each opcode.
        self.generator_of = {op: self.generators[generator_class(op)]
                             for op in Op}

    # ------------------------------------------------------------------
    def emit_translation(self, sink, method, bc_addr: int,
                         install_pcs_per_index) -> int:
        """Emit the full translate trace for ``method`` (whose bytecode
        this VM placed at ``bc_addr``).

        ``install_pcs_per_index`` maps bytecode index -> the code-cache
        pcs the chunk's instructions were installed at (a sequence; one
        ``emit_instr`` run each).  Returns the cycles charged (also
        accumulated in the sink).
        """
        before = sink.cycles
        work = WORK_AREA_BASE
        n = len(method.code)
        for idx, instr in enumerate(method.code):
            bc_ea = bc_addr + method.bc_offsets[idx]
            gen = self.generator_of[instr.op]
            w = work + (idx * 32) % WORK_AREA_BYTES
            sink.emit(
                self.driver,
                (bc_ea, VM_DATA_BASE + 0x40 + 4 * int(instr.op)),
                (idx + 1 < n,),
                (gen.base_pc,),
            )
            sink.emit(gen, (w, w + 8, w + 16, w + 24, w + 12, w + 20),
                      (), (0,))
            pcs = install_pcs_per_index[idx]
            sink.emit_run(self.emit_instr, len(pcs), pcs)
        sink.emit(
            self.method_overhead,
            tuple(
                WORK_AREA_BASE + 32 * i + off
                for i in range(8) for off in (0, 16)
            ),
            (),
            (0,),
        )
        return sink.cycles - before

    def translation_counts(self, code, installed: int
                           ) -> tuple[dict[Template, int], int]:
        """What :meth:`emit_translation` emits for a method of bytecode
        ``code`` whose body installs ``installed`` native instructions,
        as ``(template -> times emitted, cycles)``: the driver once per
        bytecode, each opcode's generator once per occurrence, the
        install store once per installed instruction and the per-method
        overhead once.  A counting sink takes it in one step
        (:meth:`~repro.native.trace.CountingSink.emit_counts`)."""
        counts: dict[Template, int] = {}
        if code:
            counts[self.driver] = len(code)
        generator_of = self.generator_of
        counts.update(Counter(generator_of[instr.op] for instr in code))
        if installed:
            counts[self.emit_instr] = installed
        counts[self.method_overhead] = 1
        return counts, sum(t.cycles * k for t, k in counts.items())

    def emit_install(self, sink, compiled) -> int:
        """Emit the archive-install trace for one compiled method: a
        load/store pair per installed native instruction plus a fixed
        per-method relocation pass.  Everything carries
        ``FLAG_TRANSLATE`` — installs are the translate portion's cheap
        path, and callers account them as the install subset of it.
        """
        before = sink.cycles
        stage = WORK_AREA_BASE
        templates = [compiled.prologue.template] + [
            c.template for c in compiled.chunks if c is not None
        ]
        eas = []
        if sink.records:
            pcs = chain.from_iterable(
                range(t.base_pc, t.end_pc, NATIVE_INSTR_BYTES)
                for t in templates)
            for i, pc in enumerate(pcs):
                eas += (stage + (4 * i) % WORK_AREA_BYTES, pc)
        sink.emit_run(self.install_instr, sum(t.n for t in templates), eas)
        sink.emit(self.install_overhead, (stage, stage + 16), (), (0,))
        return sink.cycles - before


_SHARED: TranslateStubs | None = None


def shared_translate_stubs() -> TranslateStubs:
    """Process-wide translator template set."""
    global _SHARED
    if _SHARED is None:
        _SHARED = TranslateStubs()
    return _SHARED
