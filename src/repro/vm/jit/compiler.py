"""The JIT compiler: bytecode -> native chunks.

A template-style compiler in the spirit of Kaffe's JIT: operand-stack
slots and locals are mapped onto fixed machine registers (spilling to
the frame when the windows overflow), each bytecode becomes a short
native chunk, conditional branches resolve to chunk pcs, and
monomorphic tiny calls are inlined after class-hierarchy analysis.

Compilation also *charges itself to the trace*: the translator's driver
/ generator / install-store templates are emitted for every bytecode
translated, producing the translate-portion footprint (including the
code-cache write misses) that Section 4.3 of the paper studies.  A
counting sink, which keeps no events, is charged the same templates as
one histogram per body.
"""

from __future__ import annotations

import numpy as np

from ...isa.method import Method, Program
from ...isa.opcodes import Op, OPINFO
from ...native.costs import CYCLES_BY_CAT
from ...native.layout import CODE_CACHE_BASE, CODE_CACHE_SIZE, TextRegion
from ...native.nisa import (
    N_CATEGORIES,
    NCat,
    NO_REG,
    REG_ARG0,
    REG_RETVAL,
    REG_TMP0,
    REG_TMP1,
)
from ...native.template import PATCH, Template, TemplateBuilder
from ...native.trace import CountingSink
from ...obs import TRACER
from ..objects import ARRAY_HEADER_BYTES, OBJECT_HEADER_BYTES
from ..threads import FRAME_HEADER_BYTES
from .chunks import Chunk, CompiledMethod, InlineSite, rebased
from .inline import inline_field_offsets, is_inlinable
from .translate_stubs import shared_translate_stubs

#: Registers available for operand-stack slots.
STACK_REG_BASE, N_STACK_REGS = 12, 12
#: Registers available for locals.
LOCAL_REG_BASE, N_LOCAL_REGS = 24, 8

#: Float-flavoured opcodes (generated as FPU categories).
_FCATS = {
    Op.FADD: NCat.FALU, Op.FSUB: NCat.FALU, Op.FMUL: NCat.FMUL,
    Op.FDIV: NCat.FDIV, Op.FNEG: NCat.FALU, Op.I2F: NCat.FALU,
    Op.F2I: NCat.FALU, Op.FCMPL: NCat.FALU, Op.FCMPG: NCat.FALU,
}
_ICATS = {Op.IMUL: NCat.IMUL, Op.IDIV: NCat.IDIV, Op.IREM: NCat.IDIV}


class _Proto:
    """One not-yet-materialized native instruction."""

    __slots__ = ("cat", "dst", "src1", "src2", "ea", "taken", "target")

    def __init__(self, cat, dst=NO_REG, src1=NO_REG, src2=NO_REG,
                 ea=None, taken=None, target=None) -> None:
        self.cat = cat
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.ea = ea          # None | ("abs", a) | ("frame", off) | "dyn"
        self.taken = taken    # None | bool | "dyn"
        self.target = target  # None | ("abs", pc) | ("chunk", i) | "dyn"


#: Cycles per category as Python ints, for the compile-time summary.
_CYCLES = tuple(CYCLES_BY_CAT.tolist())

#: The four codegen-overhead sequences, by ``idx % 4``.  Chunks share
#: these protos; only switch-table protos are ever mutated in place.
_OVERHEAD = tuple(
    [
        _Proto(NCat.LOAD, dst=REG_TMP1,
               ea=("frame", FRAME_HEADER_BYTES + 4 * r)),
        _Proto(NCat.IALU, dst=REG_TMP0, src1=REG_TMP1),
        _Proto(NCat.IALU, dst=REG_TMP1, src1=REG_TMP0),
        _Proto(NCat.IALU, dst=REG_TMP0, src1=REG_TMP1),
    ]
    for r in range(4)
)


#: The compiler's counters a translation adds to; a memo hit adds the
#: same amounts (:class:`_Body`).
_COUNTERS = ("methods_compiled", "bytecodes_compiled",
             "native_instructions_emitted", "inlined_sites",
             "dead_stores_eliminated", "spill_stores_eliminated")
#: The counter holding the native instructions a body installs.
_INSTALLED = _COUNTERS.index("native_instructions_emitted")


def lower(name, protos, base_pc, chunk_pcs) -> tuple[Template, list | None]:
    """Lower protos to a pc-resolved Template and the chunk's ea plan."""
    b = TemplateBuilder(name)
    ea_plan: list[tuple[bool, int]] = []
    any_frame_rel = False
    for proto in protos:
        ea = proto.ea
        taken = proto.taken
        target = proto.target
        if ea == "dyn":
            ea_arg = PATCH
            ea_plan.append((False, 0))
        elif isinstance(ea, tuple) and ea[0] == "frame":
            ea_arg = PATCH
            ea_plan.append((True, ea[1]))
            any_frame_rel = True
        elif isinstance(ea, tuple) and ea[0] == "abs":
            ea_arg = ea[1]
        else:
            ea_arg = None

        taken_arg = PATCH if taken == "dyn" else taken
        if target == "dyn":
            target_arg = PATCH
        elif isinstance(target, tuple) and target[0] == "chunk":
            target_arg = chunk_pcs[target[1]]
        elif isinstance(target, tuple) and target[0] == "abs":
            target_arg = target[1]
        else:
            target_arg = None

        b.instr(proto.cat, dst=proto.dst, src1=proto.src1,
                src2=proto.src2, ea=ea_arg, taken=taken_arg,
                target=target_arg)
    return b.build(base_pc=base_pc), (ea_plan if any_frame_rel else None)


class _Lowering:
    """The protos of one chunk until something needs them lowered: the
    first call (the deferred template's build) or :meth:`plan` lowers
    both the template and the ea plan at once and drops the protos."""

    __slots__ = ("name", "protos", "base_pc", "chunk_pcs", "lowered")

    def __init__(self, name, protos, base_pc, chunk_pcs) -> None:
        self.name = name
        self.protos = protos
        self.base_pc = base_pc
        self.chunk_pcs = chunk_pcs
        self.lowered = None

    def __call__(self) -> Template:
        if self.lowered is None:
            self.lowered = lower(self.name, self.protos, self.base_pc,
                                 self.chunk_pcs)
            self.protos = self.chunk_pcs = None
        return self.lowered[0]

    def plan(self) -> list | None:
        self()
        return self.lowered[1]


class Link:
    """A method's link context: what translation bakes in from the VM's
    loader and class hierarchy, resolved once per compile in code order
    by :meth:`JITCompiler.link`.

    ``statics`` maps a GETSTATIC/PUTSTATIC index to ``(class name,
    field, address)``; ``inlines`` maps each reachable invoke's index to
    ``(target, field offsets, speculative)``, or ``None`` for a call.
    The code archive digests it (``codecache_archive.link_signature``).
    """

    __slots__ = ("method", "inline_enabled", "speculate_cha",
                 "cha_blacklist", "statics", "inlines")

    def __init__(self, method, inline_enabled, speculate_cha,
                 cha_blacklist) -> None:
        self.method = method
        self.inline_enabled = inline_enabled
        self.speculate_cha = speculate_cha
        self.cha_blacklist = cha_blacklist
        self.statics: dict[int, tuple] = {}
        self.inlines: dict[int, tuple | None] = {}

    def assumptions(self) -> tuple:
        """``(class name, method name, target)`` of each speculative
        devirtualization, in code order."""
        method = self.method
        out = []
        for idx, decision in self.inlines.items():
            if decision is not None and decision[2]:
                ref = method.pool[method.code[idx].a]
                out.append((ref.class_name, ref.method_name, decision[0]))
        return tuple(out)


def _install_pcs(compiled: CompiledMethod) -> list[range]:
    """The code-cache pcs each bytecode index's chunk is installed at;
    the prologue is generated and installed with the first chunk, which
    it directly precedes."""
    pcs = [range(0) if c is None else range(c.base_pc, c.template.end_pc, 4)
           for c in compiled.chunks]
    if pcs:
        first = compiled.chunks[0] or compiled.prologue
        pcs[0] = range(compiled.entry_pc, first.template.end_pc, 4)
    return pcs


class _Body:
    """One memoized translation: the first body built for its key, what
    it added to each of :data:`_COUNTERS`, and its translate routine's
    ``(template -> times emitted, cycles)``
    (:meth:`~repro.vm.jit.translate_stubs.TranslateStubs.translation_counts`),
    which a counting sink is charged instead of the walk."""

    __slots__ = ("compiled", "counts", "charge")

    def __init__(self, compiled, counts, charge) -> None:
        self.compiled = compiled
        self.counts = counts
        self.charge = charge

    def at(self, entry_pc: int) -> CompiledMethod:
        """The body with its code at ``entry_pc``: the chunks themselves
        when the pc matches, else chunks
        :func:`~repro.vm.jit.chunks.rebased` onto it."""
        src = self.compiled
        delta = entry_pc - src.entry_pc
        if delta == 0:
            chunks, prologue = src.chunks, src.prologue
        else:
            old = (src.entry_pc, src.end_pc, delta)
            prologue = rebased(src.prologue, *old)
            chunks = [None if c is None else rebased(c, *old)
                      for c in src.chunks]
        compiled = CompiledMethod(src.method, chunks, prologue, entry_pc,
                                  src.end_pc + delta, src.inline_info)
        compiled.assumptions = src.assumptions
        return compiled


class CodeCache:
    """Per-VM code cache; tracks installed bytes for the footprint study."""

    def __init__(self) -> None:
        self.region = TextRegion(CODE_CACHE_BASE, CODE_CACHE_SIZE, "code_cache")

    @property
    def used_bytes(self) -> int:
        return self.region.used_bytes


class JITCompiler:
    """Compiles methods for one VM instance."""

    def __init__(self, loader, code_cache: CodeCache, sink,
                 program: Program, inline: bool = True,
                 optimize: bool = False) -> None:
        self.loader = loader
        self.code_cache = code_cache
        self.sink = sink
        self.program = program
        self.inline_enabled = inline
        self.optimize_enabled = optimize
        self.stubs = shared_translate_stubs()
        #: shared compiled-code archive (repro.vm.codecache_archive),
        #: attached by the VM when REPRO_CODE_ARCHIVE / code_archive is set
        self.archive = None
        self.methods_installed = 0
        self.install_cycles_total = 0
        self.methods_compiled = 0
        self.bytecodes_compiled = 0
        self.native_instructions_emitted = 0
        self.inlined_sites = 0
        self.peak_work_bytes = 0
        self.dead_stores_eliminated = 0
        self.spill_stores_eliminated = 0
        self._skip_spill = False
        self._histograms: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(self, method: Method, tier: int = 0,
                cha_blacklist: frozenset = frozenset()) -> CompiledMethod:
        """Translate one method, charge the work to the trace, install.

        The tier decides the translation (:meth:`tier_flags`); at tier 2
        ``cha_blacklist`` names call targets whose speculation already
        failed once.  The method's :meth:`link` is resolved once, before
        any code is generated: translation reads it and the code archive
        keys on it, so an archive hit and a translation make the same
        loader charges and class loads in the same order.

        With the tracer on, each translation is a ``vm.jit.translate``
        span — the wall-clock counterpart of the simulated
        translate-cycles the paper's Figure 1 accounts for.
        """
        optimize, speculate_cha = self.tier_flags(tier)
        link = self.link(method, speculate_cha, cha_blacklist)
        entry = None
        if self.archive is not None:
            entry = self.archive.entry_for(link, tier=tier, optimize=optimize)
            archived = self.archive.load(entry, method, self)
            if archived is not None:
                return self._install_archived(archived, method, tier)
        if not TRACER.enabled:
            compiled = self._translation(method, link, optimize)
        else:
            with TRACER.span("vm.jit.translate",
                             method=method.qualified_name,
                             tier=tier) as sp:
                compiled = self._translation(method, link, optimize)
                sp.attrs["translate_cycles"] = compiled.translate_cycles
                sp.attrs["bytecodes"] = len(method.code)
        compiled.tier = tier
        if entry is not None:
            self.archive.store(entry, compiled)
        return compiled

    def tier_flags(self, tier: int) -> tuple[bool, bool]:
        """``(optimize, speculate_cha)`` for a translation at ``tier``.

        Tier 2 optimizes and devirtualizes on loaded-world CHA
        (recorded as assumptions for invalidation); tier 1 is baseline
        code even in an optimizing VM; tier 0, the one-shot JIT, follows
        the VM's ``jit_opt``.
        """
        if tier == 2:
            return True, True
        if tier == 1:
            return False, False
        return self.optimize_enabled, False

    def link(self, method: Method, speculate_cha: bool = False,
             cha_blacklist: frozenset = frozenset()) -> Link:
        """Resolve everything translation bakes in from the VM's link
        state, walking the reachable code in order: each static field's
        address and each call site's inlining decision."""
        loader = self.loader
        link = Link(method, self.inline_enabled, speculate_cha, cha_blacklist)
        for idx, instr in enumerate(method.code):
            if method.depth_in[idx] < 0:      # unreachable: no code
                continue
            op = instr.op
            if op is Op.GETSTATIC or op is Op.PUTSTATIC:
                owner, fname = loader.resolve_field(
                    loader.mirrors[method.jclass], instr.a)
                link.statics[idx] = (owner.jclass.name, fname,
                                     owner.static_addr[fname])
            elif OPINFO[op].kind == "invoke":
                link.inlines[idx] = self._inline_decision(link, instr)
        return link

    def _inline_decision(self, link: Link, instr):
        """``(target, field offsets, speculative)`` when the call site
        inlines, else ``None``."""
        if not link.inline_enabled:
            return None
        method = link.method
        ref = method.pool[instr.a]
        op = instr.op
        speculative = False
        if op is Op.INVOKEVIRTUAL:
            target = self.program.unique_target(ref.class_name,
                                                ref.method_name)
            if (target is None and link.speculate_cha
                    and (ref.class_name, ref.method_name)
                    not in link.cha_blacklist):
                # Closed-world CHA sees several implementations, but only
                # one is loaded so far: devirtualize speculatively and
                # record the assumption.  Loading an overriding class
                # later triggers deoptimization of this method.
                target = self.program.unique_target(
                    ref.class_name, ref.method_name, self.loader.mirrors)
                speculative = target is not None
        else:
            try:
                target = self.loader.resolve_method(
                    self.loader.mirrors[method.jclass], instr.a)
            except Exception:
                return None
        if target is None or not is_inlinable(target):
            return None
        offsets = inline_field_offsets(target, self.loader)
        if offsets is None:
            return None
        if op is Op.INVOKESTATIC and offsets:
            return None  # field access needs a receiver
        return target, tuple(offsets), speculative

    def _install_archived(self, compiled: CompiledMethod, method: Method,
                          tier: int) -> CompiledMethod:
        """Finish an archive hit: charge the install-path cycles (the
        cheap subset of the translate portion) and install the body."""
        if not TRACER.enabled:
            cycles = self.stubs.emit_install(self.sink, compiled)
        else:
            with TRACER.span("vm.jit.install",
                             method=method.qualified_name, tier=tier) as sp:
                cycles = self.stubs.emit_install(self.sink, compiled)
                sp.attrs["install_cycles"] = cycles
                sp.attrs["bytecodes"] = len(method.code)
        compiled.tier = tier
        compiled.translate_cycles = cycles
        compiled.install_cycles = cycles
        compiled.from_archive = True
        self.methods_installed += 1
        self.install_cycles_total += cycles
        self.inlined_sites += len(compiled.inline_info)
        return compiled

    def _translation(self, method: Method, link: Link,
                     optimize: bool) -> CompiledMethod:
        """Translate ``method``, or rebuild its program's memoized
        translation of the same key at a fresh code-cache position.

        The key is exactly what :meth:`_translate` reads besides the
        method: the optimize flag, each static field's address and each
        call site's inlining decision, speculative bit included.  Either
        way the translate routine is charged and the counters move as a
        translation moves them, so a hit saves host work only.  A plain
        counting sink is charged the body's translate histogram in one
        step; any other sink gets the walk that emits it.
        """
        memo = self.program.translations
        key = (method, optimize, tuple(link.statics.values()),
               tuple(link.inlines.values()))
        body = memo.get(key)
        if body is None:
            before = [getattr(self, name) for name in _COUNTERS]
            compiled = self._translate(method, link, optimize)
            counts = tuple(getattr(self, name) - n
                           for name, n in zip(_COUNTERS, before))
            body = memo[key] = _Body(compiled, counts,
                                     self.stubs.translation_counts(
                                         method.code, counts[_INSTALLED]))
        else:
            compiled = body.at(self.code_cache.region.alloc(
                body.compiled.code_bytes // 4))
            for name, n in zip(_COUNTERS, body.counts):
                setattr(self, name, getattr(self, name) + n)
        sink = self.sink
        if type(sink) is CountingSink:
            sink.emit_counts(*body.charge)
            compiled.translate_cycles = body.charge[1]
        else:
            compiled.translate_cycles = self.stubs.emit_translation(
                sink, method, self.loader.methods[method].bc_addr,
                _install_pcs(compiled))
        self.peak_work_bytes = max(self.peak_work_bytes, 24 * len(method.code))
        return compiled

    def _translate(self, method: Method, link: Link,
                   optimize: bool) -> CompiledMethod:
        assert not method.is_native, "native methods are never JIT-compiled"
        dead, pop_only = frozenset(), frozenset()
        if optimize:
            # Liveness-driven DSE: stores whose local is never read again
            # and pushes only ever consumed by POP produce no native code.
            # Execution semantics live in the interpreter's handlers, so
            # this only shrinks the compiled-code cost model and trace.
            from ...analysis.dataflow.liveness import (
                dead_stores, pop_only_pushes)
            dead = frozenset(dead_stores(method))
            pop_only = pop_only_pushes(method)
        protos_per_index: list[list[_Proto]] = []
        inline_info: dict[int, InlineSite] = {}
        for idx, instr in enumerate(method.code):
            depth = method.depth_in[idx]
            if depth < 0:      # unreachable instruction: no code
                protos_per_index.append([])
                continue
            if idx in dead:
                # Dead store_local/iinc: a pure register-mapping change,
                # exactly like POP.
                self.dead_stores_eliminated += 1
                protos_per_index.append([])
                continue
            self._skip_spill = idx in pop_only
            protos = self._gen_instr(method, idx, instr, depth, link,
                                     inline_info)
            self._skip_spill = False
            if protos:
                protos = self._codegen_overhead(idx) + protos
            protos_per_index.append(protos)

        prologue_protos = [
            _Proto(NCat.STORE, src1=REG_ARG0, ea=("frame", 0)),
            _Proto(NCat.STORE, src1=REG_ARG0, ea=("frame", 4)),
            _Proto(NCat.IALU, dst=REG_TMP0, src1=REG_ARG0),
            _Proto(NCat.IALU, dst=REG_TMP1, src1=REG_TMP0),
        ]

        # Layout: prologue, then chunks in bytecode order, then any
        # embedded switch tables.
        counts = [len(prologue_protos)] + [len(p) for p in protos_per_index]
        total = sum(counts)
        n_table_words = sum(
            len(i.branch_targets()) for i in method.code
            if OPINFO[i.op].kind == "switch"
        )
        entry_pc = self.code_cache.region.alloc(total + n_table_words)
        # pc of each bytecode index's chunk.
        chunk_pcs: list[int] = []
        cursor = entry_pc + 4 * len(prologue_protos)
        for protos in protos_per_index:
            chunk_pcs.append(cursor)
            cursor += 4 * len(protos)
        end_pc = cursor + 4 * n_table_words

        # Fix switch-table load addresses now that the layout is known.
        table_cursor = cursor
        for idx, instr in enumerate(method.code):
            if OPINFO[instr.op].kind != "switch":
                continue
            for proto in protos_per_index[idx]:
                if proto.ea == "table":
                    proto.ea = ("abs", table_cursor)
            table_cursor += 4 * len(instr.branch_targets())

        prologue = self._materialize(
            f"{method.qualified_name}:prologue", prologue_protos,
            entry_pc, chunk_pcs,
        )
        chunks: list[Chunk | None] = []
        for idx, protos in enumerate(protos_per_index):
            if not protos:
                chunks.append(None)
                continue
            name = f"{method.qualified_name}@{idx}:{method.code[idx].info.mnemonic}"
            chunks.append(self._materialize(name, protos, chunk_pcs[idx], chunk_pcs))

        compiled = CompiledMethod(
            method, chunks, prologue, entry_pc, end_pc, inline_info
        )
        compiled.assumptions = link.assumptions()
        self.methods_compiled += 1
        self.bytecodes_compiled += len(method.code)
        self.native_instructions_emitted += total
        return compiled

    @staticmethod
    def _codegen_overhead(idx: int) -> list[_Proto]:
        """Per-bytecode overhead of Kaffe-class template code generation.

        A naive template JIT re-materializes operand state and address
        bases around every bytecode's code: a reload from the frame's
        spill area plus addressing arithmetic.  This is what makes
        1998-era compiled Java code several-fold denser than the
        interpreter rather than an order of magnitude (the paper's [27]
        measures ~25 generated SPARC instructions per bytecode for the
        whole translation unit).
        """
        return _OVERHEAD[idx % 4]

    # ------------------------------------------------------------------
    # register mapping
    # ------------------------------------------------------------------
    @staticmethod
    def _sreg(slot: int) -> int | None:
        return STACK_REG_BASE + slot if slot < N_STACK_REGS else None

    @staticmethod
    def _lreg(index: int) -> int | None:
        return LOCAL_REG_BASE + index if index < N_LOCAL_REGS else None

    @staticmethod
    def _stack_off(method: Method, slot: int) -> int:
        return FRAME_HEADER_BYTES + 4 * (method.max_locals + slot)

    @staticmethod
    def _local_off(index: int) -> int:
        return FRAME_HEADER_BYTES + 4 * index

    def _use(self, method, slot, scratch, out) -> int:
        """Register holding stack slot ``slot``; loads spills into scratch."""
        reg = self._sreg(slot)
        if reg is not None:
            return reg
        out.append(_Proto(NCat.LOAD, dst=scratch,
                          ea=("frame", self._stack_off(method, slot))))
        return scratch

    def _def(self, method, slot, value_reg, out) -> None:
        """Spill-store if the destination slot has no register."""
        if self._sreg(slot) is None:
            if self._skip_spill:
                # Stack-liveness: every consumer of this push is a POP,
                # so the spilled value would never be reloaded.
                self.spill_stores_eliminated += 1
                return
            out.append(_Proto(NCat.STORE, src1=value_reg,
                              ea=("frame", self._stack_off(method, slot))))

    def _dst(self, slot: int) -> int:
        reg = self._sreg(slot)
        return reg if reg is not None else REG_TMP0

    # ------------------------------------------------------------------
    # per-opcode generation
    # ------------------------------------------------------------------
    def _gen_instr(self, method, idx, instr, depth, link,
                   inline_info) -> list[_Proto]:
        op = instr.op
        kind = OPINFO[op].kind
        out: list[_Proto] = []
        d = depth

        if kind == "const":
            rd = self._dst(d)
            n = 2 if op is Op.LDC else 1
            cat = NCat.FALU if op is Op.FCONST else NCat.IALU
            for _ in range(n):
                out.append(_Proto(cat, dst=rd))
            self._def(method, d, rd, out)

        elif kind == "load_local":
            lr = self._lreg(instr.a)
            rd = self._dst(d)
            if lr is not None:
                out.append(_Proto(NCat.IALU, dst=rd, src1=lr))
            else:
                out.append(_Proto(NCat.LOAD, dst=rd,
                                  ea=("frame", self._local_off(instr.a))))
            self._def(method, d, rd, out)

        elif kind == "store_local":
            rs = self._use(method, d - 1, REG_TMP0, out)
            lr = self._lreg(instr.a)
            if lr is not None:
                out.append(_Proto(NCat.IALU, dst=lr, src1=rs))
            else:
                out.append(_Proto(NCat.STORE, src1=rs,
                                  ea=("frame", self._local_off(instr.a))))

        elif kind == "iinc":
            lr = self._lreg(instr.a)
            if lr is not None:
                out.append(_Proto(NCat.IALU, dst=lr, src1=lr))
            else:
                off = self._local_off(instr.a)
                out.append(_Proto(NCat.LOAD, dst=REG_TMP0, ea=("frame", off)))
                out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=REG_TMP0))
                out.append(_Proto(NCat.STORE, src1=REG_TMP0, ea=("frame", off)))

        elif kind == "stack":
            if op is Op.POP:
                pass  # purely a mapping change; no code
            elif op is Op.DUP:
                rs = self._use(method, d - 1, REG_TMP0, out)
                rd = self._dst(d)
                out.append(_Proto(NCat.IALU, dst=rd, src1=rs))
                self._def(method, d, rd, out)
            elif op is Op.DUP_X1:
                ra = self._use(method, d - 2, REG_TMP0, out)
                rb = self._use(method, d - 1, REG_TMP1, out)
                for dst_slot, src in ((d, rb), (d - 1, ra)):
                    rd = self._dst(dst_slot)
                    out.append(_Proto(NCat.IALU, dst=rd, src1=src))
                    self._def(method, dst_slot, rd, out)
                rd = self._dst(d - 2)
                out.append(_Proto(NCat.IALU, dst=rd, src1=rb))
                self._def(method, d - 2, rd, out)
            elif op is Op.SWAP:
                ra = self._use(method, d - 2, REG_TMP0, out)
                rb = self._use(method, d - 1, REG_TMP1, out)
                out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=ra))
                rd = self._dst(d - 2)
                out.append(_Proto(NCat.IALU, dst=rd, src1=rb))
                self._def(method, d - 2, rd, out)
                rd = self._dst(d - 1)
                out.append(_Proto(NCat.IALU, dst=rd, src1=REG_TMP0))
                self._def(method, d - 1, rd, out)

        elif kind == "binop":
            ra = self._use(method, d - 2, REG_TMP0, out)
            rb = self._use(method, d - 1, REG_TMP1, out)
            cat = _FCATS.get(op) or _ICATS.get(op) or NCat.IALU
            rd = self._dst(d - 2)
            out.append(_Proto(cat, dst=rd, src1=ra, src2=rb))
            if op in (Op.FCMPL, Op.FCMPG):
                out.append(_Proto(NCat.IALU, dst=rd, src1=rd))
            self._def(method, d - 2, rd, out)

        elif kind == "unop":
            ra = self._use(method, d - 1, REG_TMP0, out)
            cat = _FCATS.get(op, NCat.IALU)
            rd = self._dst(d - 1)
            out.append(_Proto(cat, dst=rd, src1=ra))
            self._def(method, d - 1, rd, out)

        elif kind == "branch":
            if op in (Op.IFEQ, Op.IFNE, Op.IFLT, Op.IFGE, Op.IFGT, Op.IFLE,
                      Op.IFNULL, Op.IFNONNULL):
                ra = self._use(method, d - 1, REG_TMP0, out)
                out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=ra))
            else:
                ra = self._use(method, d - 2, REG_TMP0, out)
                rb = self._use(method, d - 1, REG_TMP1, out)
                out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=ra, src2=rb))
            out.append(_Proto(NCat.BRANCH, src1=REG_TMP0, taken="dyn",
                              target=("chunk", instr.a)))

        elif kind == "goto":
            out.append(_Proto(NCat.JUMP, target=("chunk", instr.a)))

        elif kind == "switch":
            ra = self._use(method, d - 1, REG_TMP0, out)
            out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=ra))
            out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=REG_TMP0))
            out.append(_Proto(NCat.LOAD, dst=REG_TMP1, src1=REG_TMP0, ea="table"))
            out.append(_Proto(NCat.IJUMP, src1=REG_TMP1, target="dyn"))

        elif kind == "return":
            if op is not Op.RETURN:
                ra = self._use(method, d - 1, REG_TMP0, out)
                out.append(_Proto(NCat.IALU, dst=REG_RETVAL, src1=ra))
            out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=REG_TMP0))
            out.append(_Proto(NCat.RET, target="dyn"))

        elif kind == "field":
            if op is Op.GETFIELD:
                self._use(method, d - 1, REG_TMP0, out)
                rd = self._dst(d - 1)
                out.append(_Proto(NCat.LOAD, dst=rd, ea="dyn"))
                self._def(method, d - 1, rd, out)
            elif op is Op.PUTFIELD:
                rv = self._use(method, d - 1, REG_TMP0, out)
                self._use(method, d - 2, REG_TMP1, out)
                out.append(_Proto(NCat.STORE, src1=rv, ea="dyn"))
            else:
                addr = link.statics[idx][2]
                if op is Op.GETSTATIC:
                    rd = self._dst(d)
                    out.append(_Proto(NCat.LOAD, dst=rd, ea=("abs", addr)))
                    self._def(method, d, rd, out)
                else:
                    rv = self._use(method, d - 1, REG_TMP0, out)
                    out.append(_Proto(NCat.STORE, src1=rv, ea=("abs", addr)))

        elif kind == "invoke":
            decision = link.inlines[idx]
            if decision is not None:
                site = self._inline(method, instr, d, decision)
                inline_info[idx] = site[0]
                out.extend(site[1])
                self.inlined_sites += 1
            else:
                ref = method.pool[instr.a]
                n_args = ref.argc + (0 if op is Op.INVOKESTATIC else 1)
                for k in range(min(n_args, 6)):
                    slot = d - n_args + k
                    rs = self._use(method, slot, REG_TMP0, out)
                    out.append(_Proto(NCat.IALU, dst=REG_ARG0 + (k % 3), src1=rs))
                if op is Op.INVOKEVIRTUAL:
                    out.append(_Proto(NCat.LOAD, dst=REG_TMP0, ea="dyn"))   # class
                    out.append(_Proto(NCat.LOAD, dst=REG_TMP1, src1=REG_TMP0,
                                      ea="dyn"))                             # vtable
                    out.append(_Proto(NCat.ICALL, src1=REG_TMP1, target="dyn"))
                else:
                    out.append(_Proto(NCat.CALL, target="dyn"))

        elif kind == "new":
            out.append(_Proto(NCat.IALU, dst=REG_ARG0))
            out.append(_Proto(NCat.CALL, target="dyn"))
            rd = self._dst(d if op is Op.NEW else d - 1)
            out.append(_Proto(NCat.IALU, dst=rd, src1=REG_RETVAL))
            self._def(method, d if op is Op.NEW else d - 1, rd, out)

        elif kind == "array":
            if op is Op.ARRAYLENGTH:
                self._use(method, d - 1, REG_TMP0, out)
                rd = self._dst(d - 1)
                out.append(_Proto(NCat.LOAD, dst=rd, ea="dyn"))
                self._def(method, d - 1, rd, out)
            elif op in (Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD):
                ri = self._use(method, d - 1, REG_TMP0, out)
                ra = self._use(method, d - 2, REG_TMP1, out)
                out.append(_Proto(NCat.LOAD, dst=REG_TMP1, src1=ra, ea="dyn"))  # len
                out.append(_Proto(NCat.BRANCH, src1=REG_TMP1, taken=False,
                                  target=("abs", 0)))
                out.append(_Proto(NCat.IALU, dst=REG_TMP0, src1=ra, src2=ri))
                rd = self._dst(d - 2)
                out.append(_Proto(NCat.LOAD, dst=rd, src1=REG_TMP0, ea="dyn"))
                self._def(method, d - 2, rd, out)
            else:  # array stores
                rv = self._use(method, d - 1, REG_TMP0, out)
                ri = self._use(method, d - 2, REG_TMP1, out)
                ra = self._use(method, d - 3, REG_TMP1, out)
                out.append(_Proto(NCat.LOAD, dst=REG_TMP1, src1=ra, ea="dyn"))  # len
                out.append(_Proto(NCat.BRANCH, src1=REG_TMP1, taken=False,
                                  target=("abs", 0)))
                out.append(_Proto(NCat.IALU, dst=REG_TMP1, src1=ra, src2=ri))
                out.append(_Proto(NCat.STORE, src1=rv, src2=REG_TMP1, ea="dyn"))

        elif kind == "typecheck":
            self._use(method, d - 1, REG_TMP0, out)
            out.append(_Proto(NCat.LOAD, dst=REG_TMP1, ea="dyn"))  # class ptr
            out.append(_Proto(NCat.IALU, dst=REG_TMP1, src1=REG_TMP1))
            out.append(_Proto(NCat.BRANCH, src1=REG_TMP1, taken=False,
                              target=("abs", 0)))
            if op is Op.INSTANCEOF:
                rd = self._dst(d - 1)
                out.append(_Proto(NCat.IALU, dst=rd, src1=REG_TMP1))
                self._def(method, d - 1, rd, out)

        elif kind == "monitor":
            rs = self._use(method, d - 1, REG_TMP0, out)
            out.append(_Proto(NCat.IALU, dst=REG_ARG0, src1=rs))
            out.append(_Proto(NCat.CALL, target="dyn"))

        elif op is Op.NOP:
            pass

        else:  # pragma: no cover - exhaustiveness guard
            raise NotImplementedError(f"JIT cannot translate {op!r}")

        return out

    # ------------------------------------------------------------------
    # inlining
    # ------------------------------------------------------------------
    def _inline(self, method, instr, depth, decision):
        """Splice the linked target's body into the call site; returns
        (InlineSite, protos)."""
        # caller-side stack liveness does not describe the callee's slots
        self._skip_spill = False
        target, offsets, _ = decision
        ref = method.pool[instr.a]
        has_receiver = instr.op is not Op.INVOKESTATIC
        n_args = ref.argc + (1 if has_receiver else 0)
        args_base = depth - n_args       # caller slot of first callee local
        protos: list[_Proto] = []
        # ``is_inlinable`` bodies end at their one return, so the loop
        # below reaches every field access, in ``offsets`` order.
        dyn_offsets = [OBJECT_HEADER_BYTES + off for off in offsets]

        # A tiny abstract interpreter over the callee, mapping callee
        # stack slot k -> caller slot (depth + k).
        def cslot(k: int) -> int:
            return depth + k

        sp = 0
        for c_instr in target.code:
            c_op = c_instr.op
            c_kind = OPINFO[c_op].kind
            if c_kind == "const":
                rd = self._dst(cslot(sp))
                protos.append(_Proto(
                    NCat.FALU if c_op is Op.FCONST else NCat.IALU, dst=rd))
                sp += 1
            elif c_kind == "load_local":
                src_slot = args_base + c_instr.a
                rs = self._use(method, src_slot, REG_TMP0, protos)
                rd = self._dst(cslot(sp))
                protos.append(_Proto(NCat.IALU, dst=rd, src1=rs))
                sp += 1
            elif c_kind == "store_local":
                sp -= 1  # store into an inlined temp: register rename only
            elif c_op is Op.GETFIELD:
                rd = self._dst(cslot(sp - 1))
                protos.append(_Proto(NCat.LOAD, dst=rd, ea="dyn"))
            elif c_op is Op.PUTFIELD:
                rv = self._use(method, cslot(sp - 1), REG_TMP0, protos)
                protos.append(_Proto(NCat.STORE, src1=rv, ea="dyn"))
                sp -= 2
            elif c_kind == "binop":
                ra = self._use(method, cslot(sp - 2), REG_TMP0, protos)
                rb = self._use(method, cslot(sp - 1), REG_TMP1, protos)
                cat = _FCATS.get(c_op) or _ICATS.get(c_op) or NCat.IALU
                rd = self._dst(cslot(sp - 2))
                protos.append(_Proto(cat, dst=rd, src1=ra, src2=rb))
                sp -= 1
            elif c_kind == "unop":
                ra = self._use(method, cslot(sp - 1), REG_TMP0, protos)
                rd = self._dst(cslot(sp - 1))
                protos.append(_Proto(_FCATS.get(c_op, NCat.IALU), dst=rd, src1=ra))
            elif c_op is Op.DUP:
                ra = self._use(method, cslot(sp - 1), REG_TMP0, protos)
                rd = self._dst(cslot(sp))
                protos.append(_Proto(NCat.IALU, dst=rd, src1=ra))
                sp += 1
            elif c_op is Op.POP:
                sp -= 1
            elif c_kind == "return":
                if c_op is not Op.RETURN:
                    rs = self._use(method, cslot(sp - 1), REG_TMP0, protos)
                    rd = self._dst(args_base)   # result replaces the args
                    protos.append(_Proto(NCat.IALU, dst=rd, src1=rs))
                    self._def(method, args_base, rd, protos)
                break
            elif c_op is Op.NOP:
                pass
            else:  # pragma: no cover - is_inlinable filters these out
                raise NotImplementedError(f"cannot inline {c_op!r}")

        return InlineSite(target, dyn_offsets), protos

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self, name, protos, base_pc, chunk_pcs) -> Chunk:
        """Wrap protos in a Chunk whose template is deferred.

        One Python pass sums the cycles and the category histogram (one
        read-only array per distinct histogram of this compiler); the
        columns and the ea plan are lowered only when a recording sink
        or the code archive reads them (:class:`_Lowering`).  Chunk code
        never carries ``FLAG_TRANSLATE``.
        """
        counts = [0] * N_CATEGORIES
        cycles = 0
        for proto in protos:
            cat = proto.cat
            counts[cat] += 1
            cycles += _CYCLES[cat]
        key = tuple(counts)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = np.array(counts, dtype=np.int64)
            histogram.flags.writeable = False
            self._histograms[key] = histogram
        lowering = _Lowering(name, protos, base_pc, chunk_pcs)
        template = Template.deferred(name, len(protos), cycles, histogram,
                                     False, base_pc, lowering)
        return Chunk(template, lowering=lowering)
