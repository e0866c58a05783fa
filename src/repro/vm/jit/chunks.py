"""Compiled-code chunks.

The JIT compiles each bytecode instruction into a short native *chunk*.
Executing a compiled method is driven by the semantic stepper: for every
bytecode it executes, the corresponding chunk is emitted into the trace
with the run-time values (heap addresses, branch outcomes, call targets)
patched in.  Spill slots are frame-relative and rebased per activation.
"""

from __future__ import annotations

from ...native.template import Template
from ..threads import Frame


class Chunk:
    """Native code for one bytecode instruction of a compiled method.

    ``ea_plan`` describes how to assemble the template's patched
    effective addresses: ``None`` means every patch slot is dynamic (the
    stepper passes them all); otherwise it is a sequence of
    ``(is_frame_relative, value)`` pairs where frame-relative entries
    are spill-slot offsets and the rest are filled from the dynamic
    values in order.  The plan is only assembled for a recording sink.

    A chunk built with a ``lowering`` (the compiler's deferred lowering,
    or a :func:`rebased` move) has a deferred template and sets
    ``ea_plan`` to ``lowering.plan()`` on first read; a counting sink
    never reads it.
    """

    __slots__ = ("template", "ea_plan", "_lowering")

    def __init__(self, template, ea_plan=None, lowering=None) -> None:
        self.template = template
        self._lowering = lowering
        if lowering is None:
            self.ea_plan = ea_plan

    def __getattr__(self, name: str):
        # Reached only while a deferred chunk's plan is unset.
        if name != "ea_plan" or self._lowering is None:
            raise AttributeError(name)
        self.ea_plan = self._lowering.plan()
        self._lowering = None
        return self.ea_plan

    @property
    def base_pc(self) -> int:
        return self.template.base_pc

    def emit(self, sink, frame: Frame, dyn=(), takens=(), targets=()) -> None:
        if not sink.records:
            # A counting sink ignores effective addresses: skip the plan.
            sink.emit(self.template, dyn, takens, targets)
            return
        plan = self.ea_plan
        if plan is None:
            sink.emit(self.template, dyn, takens, targets)
            return
        it = iter(dyn)
        base = frame.frame_base
        eas = [base + value if rel else next(it) for rel, value in plan]
        sink.emit(self.template, eas, takens, targets)

    def __repr__(self) -> str:
        return f"Chunk({self.template.name}, n={self.template.n})"


class _Moved:
    """The template and plan of a chunk moved ``delta`` bytes along with
    its method body ``[old_entry, old_end)`` (see :func:`rebased`)."""

    __slots__ = ("chunk", "old_entry", "old_end", "delta")

    def __init__(self, chunk, old_entry, old_end, delta) -> None:
        self.chunk = chunk
        self.old_entry = old_entry
        self.old_end = old_end
        self.delta = delta

    def __call__(self) -> Template:
        src = self.chunk.template
        ea, target = src.ea.copy(), src.target.copy()
        for arr in (ea, target):
            arr[(arr >= self.old_entry) & (arr < self.old_end)] += self.delta
        return Template(src.name, src.pc + self.delta, src.cat, ea,
                        src.flags, target, src.dst, src.src1, src.src2,
                        src.patch_ea, src.patch_taken, src.patch_target)

    def plan(self):
        # Spill-slot offsets and dynamic slots do not depend on the pc.
        return self.chunk.ea_plan


def rebased(chunk: Chunk, old_entry: int, old_end: int, delta: int) -> Chunk:
    """``chunk`` of a method body placed at ``[old_entry, old_end)``,
    moved ``delta`` bytes along with its body.

    The new template is deferred: the columns are shifted (and the
    source's lowered) only when a recording sink or the code archive
    reads them.  Method-internal addresses (chunk pcs in branch
    targets, embedded switch tables in effective addresses) move with
    the body.  Baked static-field addresses live in the disjoint VM
    data region, and the 0 placeholders of patch slots and bounds-check
    targets sit below the code cache, so the window test leaves both
    alone.
    """
    src = chunk.template
    moved = _Moved(chunk, old_entry, old_end, delta)
    template = Template.deferred(src.name, src.n, src.cycles,
                                 src.cat_counts, src.translate,
                                 src.base_pc + delta, moved)
    return Chunk(template, lowering=moved)


class CompiledMethod:
    """The installed native code of one method."""

    __slots__ = (
        "method",
        "chunks",
        "prologue",
        "entry_pc",
        "end_pc",
        "code_bytes",
        "inline_info",
        "translate_cycles",
        "install_cycles",
        "from_archive",
        "tier",
        "assumptions",
        "_landing",
    )

    def __init__(self, method, chunks, prologue, entry_pc, end_pc,
                 inline_info=None) -> None:
        self.method = method
        self.chunks = chunks            # per-bytecode-index Chunk or None
        self.prologue = prologue        # Chunk emitted on entry
        self.entry_pc = entry_pc
        self.end_pc = end_pc
        self.code_bytes = end_pc - entry_pc
        #: instruction index -> InlineSite for inlined call sites
        self.inline_info = inline_info or {}
        self.translate_cycles = 0       # filled by the compiler
        #: install-path subset of translate_cycles (archive hits only)
        self.install_cycles = 0
        #: True when this body was installed from the shared code
        #: archive instead of translated here
        self.from_archive = False
        #: compilation tier (0 = the single-tier legacy JIT)
        self.tier = 0
        #: speculative CHA facts this code depends on:
        #: (class_name, method_name, assumed_target) triples
        self.assumptions: tuple = ()
        self._landing = None

    @property
    def landing(self) -> list[int]:
        """Per ip, the pc a compiled switch landing on that ip resumes
        at: the first chunk's at or after it (0 past the last chunk)."""
        if self._landing is None:
            chunks = self.chunks
            pcs, pc = [0] * (len(chunks) + 1), 0
            for ip in range(len(chunks) - 1, -1, -1):
                if chunks[ip] is not None:
                    pc = chunks[ip].base_pc
                pcs[ip] = pc
            self._landing = pcs
        return self._landing

    @property
    def n_native_instructions(self) -> int:
        return self.code_bytes // 4

    def __repr__(self) -> str:
        return (
            f"CompiledMethod({self.method.qualified_name}, "
            f"{self.n_native_instructions} instrs @{self.entry_pc:#x})"
        )


class InlineSite:
    """Metadata for an inlined (devirtualized) call site.

    ``target`` is the unique callee proven by class-hierarchy analysis;
    ``field_offsets`` are the instance-field offsets the inlined body
    reads/writes, in emission order, so the stepper can compute the
    dynamic heap addresses from the receiver.
    """

    __slots__ = ("target", "field_offsets")

    def __init__(self, target, field_offsets) -> None:
        self.target = target
        self.field_offsets = tuple(field_offsets)
