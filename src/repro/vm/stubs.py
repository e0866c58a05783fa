"""Runtime-routine native stubs (allocator, native methods, loader loops).

These model the VM's C runtime: fixed routines whose pcs are reused on
every call (high instruction locality), parameterized by the data
addresses they touch.  Variable-length work (zeroing a new object,
copying class-file bytes) is modelled as a fixed loop-body template
emitted once per iteration — exactly the pc-reuse pattern the real
routine would show.

All stubs are pc-stable, built once per process, and shared by every VM
instance.
"""

from __future__ import annotations

from ..native.layout import VM_TEXT_BASE, VM_TEXT_SIZE, WORD_BYTES, TextRegion
from ..native.nisa import (
    FLAG_CLASSLOAD,
    NCat,
    REG_ARG0,
    REG_ARG1,
    REG_RETVAL,
    REG_TMP0,
    REG_TMP1,
    REG_TMP2,
)
from ..native.template import PATCH, Template, TemplateBuilder

#: Zeroing-loop variants: new objects are zeroed in chunks of this many
#: words per loop iteration.
ALLOC_CHUNK_WORDS = 8

#: Cost buckets (native instructions) for native-method bodies.
NATIVE_COST_BUCKETS = (10, 20, 40, 80, 160)

#: Elements copied per iteration of the bulk-copy routine.
COPY_CHUNK_ELEMS = 8

#: Frame slots transferred per iteration of the OSR / deopt map loops.
OSR_CHUNK_SLOTS = 4


class RuntimeStubs:
    """The VM's runtime-routine templates."""

    def __init__(self) -> None:
        region = TextRegion(VM_TEXT_BASE, VM_TEXT_SIZE, "vm_text")
        self._region = region

        # -- allocator ---------------------------------------------------
        b = TemplateBuilder("alloc:entry")
        b.ialu(dst=REG_TMP0, src1=REG_ARG0, n=2)               # size calc
        b.load(dst=REG_TMP1, src1=REG_TMP2, ea=PATCH)          # heap top
        b.ialu(dst=REG_TMP1, src1=REG_TMP1)                    # bump
        b.instr(NCat.BRANCH, src1=REG_TMP1, taken=False, target=b.rel(2))
        b.store(src1=REG_TMP1, src2=REG_TMP2, ea=PATCH)        # new heap top
        b.store(src1=REG_TMP2, src2=REG_TMP1, ea=PATCH)        # class ptr
        b.store(src1=REG_TMP2, src2=REG_TMP1, ea=PATCH)        # lock word
        b.instr(NCat.IALU, dst=REG_RETVAL, src1=REG_TMP1)
        self.alloc_entry = b.build(region=region)

        b = TemplateBuilder("alloc:zero_loop")
        for _ in range(ALLOC_CHUNK_WORDS):
            b.store(src1=0, src2=REG_TMP1, ea=PATCH)           # zero one word
        b.ialu(dst=REG_TMP1, src1=REG_TMP1)
        b.instr(NCat.BRANCH, src1=REG_TMP1, taken=PATCH, target=b.rel(-9))
        self.alloc_zero = b.build(region=region)

        b = TemplateBuilder("alloc:exit")
        b.instr(NCat.RET, target=PATCH)
        self.alloc_exit = b.build(region=region)

        # -- native-method bodies, by cost bucket --------------------------
        self.native_bodies: dict[int, Template] = {}
        self._native_body_for: dict[int, Template] = {}
        for cost in NATIVE_COST_BUCKETS:
            b = TemplateBuilder(f"native:{cost}")
            # A realistic C-routine mix: ~60% alu, ~15% loads, ~10% branch.
            n_load = max(1, cost * 15 // 100)
            n_branch = max(1, cost // 10)
            n_alu = max(1, cost - n_load - n_branch - 1)
            for i in range(n_load):
                b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)
            b.ialu(dst=REG_TMP1, src1=REG_TMP0, n=n_alu)
            for i in range(n_branch):
                b.instr(NCat.BRANCH, src1=REG_TMP1, taken=(i % 2 == 0),
                        target=b.rel(-2))
            b.instr(NCat.RET, target=PATCH)
            self.native_bodies[cost] = b.build(region=region)

        # -- bulk copy loop (arraycopy, string ops) ------------------------
        b = TemplateBuilder("copy_chunk")
        for _ in range(COPY_CHUNK_ELEMS):
            b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)
            b.store(src1=REG_TMP0, src2=REG_ARG1, ea=PATCH)
        b.ialu(dst=REG_ARG0, src1=REG_ARG0, n=2)
        b.instr(NCat.BRANCH, src1=REG_ARG0, taken=PATCH, target=b.rel(-18))
        self.copy_chunk = b.build(region=region)

        # -- lazy constant-pool resolution ----------------------------------
        b = TemplateBuilder("resolve", base_flags=FLAG_CLASSLOAD)
        b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)          # pool entry
        b.ialu(dst=REG_TMP1, src1=REG_TMP0, n=4)               # name lookup
        b.load(dst=REG_TMP2, src1=REG_TMP1, ea=PATCH)          # class struct
        b.ialu(dst=REG_TMP2, src1=REG_TMP2, n=4)
        b.load(dst=REG_TMP2, src1=REG_TMP2, ea=PATCH)          # member walk
        b.instr(NCat.BRANCH, src1=REG_TMP2, taken=True, target=b.rel(-3))
        b.store(src1=REG_TMP2, src2=REG_ARG0, ea=PATCH)        # quicken entry
        self.resolve = b.build(region=region)

        # -- class-loading loops --------------------------------------------
        # Parse loop: read class-file words, build VM metadata.
        b = TemplateBuilder("classload:parse", base_flags=FLAG_CLASSLOAD)
        b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)          # class-file word
        b.ialu(dst=REG_TMP1, src1=REG_TMP0, n=4)
        b.store(src1=REG_TMP1, src2=REG_ARG1, ea=PATCH)        # metadata word
        b.ialu(dst=REG_ARG0, src1=REG_ARG0)
        b.instr(NCat.BRANCH, src1=REG_ARG0, taken=PATCH, target=b.rel(-7))
        self.classload_parse = b.build(region=region)

        # Bytecode-copy loop: install method bytecode into the bytecode area.
        b = TemplateBuilder("classload:bccopy", base_flags=FLAG_CLASSLOAD)
        b.load(dst=REG_TMP0, src1=REG_ARG0, ea=PATCH)
        b.store(src1=REG_TMP0, src2=REG_ARG1, ea=PATCH)
        b.ialu(dst=REG_ARG0, src1=REG_ARG0)
        b.instr(NCat.BRANCH, src1=REG_ARG0, taken=PATCH, target=b.rel(-3))
        self.classload_bccopy = b.build(region=region)

        # Per-class fixed overhead (superclass link, vtable build).
        b = TemplateBuilder("classload:fixup", base_flags=FLAG_CLASSLOAD)
        b.ialu(dst=REG_TMP0, src1=REG_TMP1, n=12)
        b.load(dst=REG_TMP1, src1=REG_TMP0, ea=PATCH)
        b.store(src1=REG_TMP1, src2=REG_TMP0, ea=PATCH)
        b.store(src1=REG_TMP1, src2=REG_TMP0, ea=PATCH)
        b.instr(NCat.CALL, target=PATCH)
        b.instr(NCat.RET, target=PATCH)
        self.classload_fixup = b.build(region=region)

        # -- tier transitions (OSR entry / deoptimization) -------------------
        # On-stack replacement maps a live interpreter frame into
        # compiled code at a loop header: the runtime walks the frame
        # (header vpc+method, locals, live operand-stack slots, monitor
        # slot) loading each word into the compiled code's register
        # state, then jumps to the loop-header chunk.
        b = TemplateBuilder("osr:map_in")
        b.ialu(dst=REG_TMP0, src1=REG_ARG0, n=2)     # slot address calc
        for _ in range(OSR_CHUNK_SLOTS):
            b.load(dst=REG_TMP1, src1=REG_ARG0, ea=PATCH)
        b.ialu(dst=REG_TMP0, src1=REG_TMP0)
        b.instr(NCat.BRANCH, src1=REG_TMP0, taken=PATCH,
                target=b.rel(-(OSR_CHUNK_SLOTS + 2)))
        self.osr_map_in = b.build(region=region)

        b = TemplateBuilder("osr:enter")
        b.instr(NCat.JUMP, target=PATCH)             # to the loop header
        self.osr_enter = b.build(region=region)

        # Deoptimization is the inverse map: write the compiled frame's
        # register state back into the interpreter frame's slots
        # (reconstructing an equivalent interpreter activation), then
        # jump to the interpreter dispatch loop.
        b = TemplateBuilder("deopt:map_out")
        b.ialu(dst=REG_TMP0, src1=REG_ARG0, n=2)
        for _ in range(OSR_CHUNK_SLOTS):
            b.store(src1=REG_TMP1, src2=REG_ARG0, ea=PATCH)
        b.ialu(dst=REG_TMP0, src1=REG_TMP0)
        b.instr(NCat.BRANCH, src1=REG_TMP0, taken=PATCH,
                target=b.rel(-(OSR_CHUNK_SLOTS + 2)))
        self.deopt_map_out = b.build(region=region)

        b = TemplateBuilder("deopt:exit")
        b.instr(NCat.JUMP, target=PATCH)             # to interp dispatch
        self.deopt_exit = b.build(region=region)

        # -- interpreter method entry (target of invoke ICALLs) --------------
        b = TemplateBuilder("interp_entry")
        b.ialu(dst=REG_TMP0, src1=REG_ARG0, n=3)
        b.instr(NCat.JUMP, target=PATCH)                       # to dispatch loop
        self.interp_entry = b.build(region=region)
        self.interp_entry_pc = self.interp_entry.base_pc

        self.text_bytes = region.used_bytes
        self.region = region

    def native_body(self, cost: int) -> Template:
        """Best-matching native-method body template for a cost estimate
        (memoized by cost: the bucket is a pure function of it)."""
        tpl = self._native_body_for.get(cost)
        if tpl is None:
            best = min(NATIVE_COST_BUCKETS, key=lambda c: abs(c - cost))
            tpl = self._native_body_for[cost] = self.native_bodies[best]
        return tpl

    # ------------------------------------------------------------------
    # emission helpers (encapsulate each stub's patch-slot ordering)
    # ------------------------------------------------------------------
    #: Address of the allocator's heap-top variable.
    HEAPTOP_EA = 0x0400_0800

    def emit_alloc(self, sink, obj_addr: int, size_bytes: int) -> None:
        """Allocator call: bump, write header, zero the body."""
        sink.emit(
            self.alloc_entry,
            (self.HEAPTOP_EA, self.HEAPTOP_EA, obj_addr, obj_addr + 4),
        )
        words = max(0, (size_bytes - 8 + WORD_BYTES - 1) // WORD_BYTES)
        addr = obj_addr + 8
        remaining = words
        while remaining > 0:
            chunk_eas = []
            for i in range(ALLOC_CHUNK_WORDS):
                chunk_eas.append(addr + 4 * (i % max(remaining, 1)))
            addr += 4 * min(remaining, ALLOC_CHUNK_WORDS)
            remaining -= ALLOC_CHUNK_WORDS
            sink.emit(self.alloc_zero, chunk_eas, (remaining > 0,))
        sink.emit(self.alloc_exit, (), (), (0,))

    def emit_native(self, sink, cost: int, data_addr: int, ret_pc: int = 0) -> None:
        """A native-method body touching memory near ``data_addr``."""
        tpl = self.native_body(cost)
        n_load = len(tpl.patch_ea)
        eas = [data_addr + 8 * i for i in range(n_load)]
        sink.emit(tpl, eas, (), (ret_pc,))

    def emit_copy(self, sink, src_addr: int, dst_addr: int, n_elems: int,
                  elem_bytes: int = 4) -> None:
        """Bulk element copy (System.arraycopy, string building)."""
        done = 0
        while done < n_elems:
            eas = []
            for i in range(COPY_CHUNK_ELEMS):
                k = done + min(i, n_elems - done - 1)
                eas.append(src_addr + elem_bytes * k)
                eas.append(dst_addr + elem_bytes * k)
            done += COPY_CHUNK_ELEMS
            sink.emit(self.copy_chunk, eas, (done < n_elems,))

    def emit_resolve(self, sink, pool_ea: int, class_ea: int) -> None:
        """Lazy constant-pool resolution of one entry."""
        sink.emit(self.resolve, (pool_ea, class_ea, class_ea + 16, pool_ea))

    def _frame_slot_eas(self, frame) -> list[int]:
        """Frame words an OSR/deopt state map transfers: the two header
        words (saved vpc, method pointer), every local, and the live
        operand-stack slots."""
        eas = [frame.frame_base, frame.frame_base + 4]
        eas.extend(frame.local_addr(i) for i in range(len(frame.locals)))
        eas.extend(frame.slot_addr(d) for d in range(len(frame.stack)))
        return eas

    def _emit_state_map(self, sink, tpl, eas: list[int]) -> None:
        done, total = 0, len(eas)
        while done < total:
            chunk = [eas[min(done + i, total - 1)]
                     for i in range(OSR_CHUNK_SLOTS)]
            done += OSR_CHUNK_SLOTS
            sink.emit(tpl, chunk, (done < total,))

    def emit_osr_entry(self, sink, frame, entry_pc: int) -> None:
        """On-stack replacement: load the interpreter frame's state into
        compiled-code registers, then jump to the loop-header chunk."""
        self._emit_state_map(sink, self.osr_map_in,
                             self._frame_slot_eas(frame))
        sink.emit(self.osr_enter, (), (), (entry_pc,))

    def emit_deopt(self, sink, frame, dispatch_pc: int) -> None:
        """Deoptimization: write compiled register state back into the
        interpreter frame's slots, then jump to the dispatch loop."""
        self._emit_state_map(sink, self.deopt_map_out,
                             self._frame_slot_eas(frame))
        sink.emit(self.deopt_exit, (), (), (dispatch_pc,))


_SHARED: RuntimeStubs | None = None


def shared_stubs() -> RuntimeStubs:
    """Process-wide runtime stub set."""
    global _SHARED
    if _SHARED is None:
        _SHARED = RuntimeStubs()
    return _SHARED
