"""Compiled-code chunks.

The JIT compiles each bytecode instruction into a short native *chunk*.
Executing a compiled method is driven by the semantic stepper: for every
bytecode it executes, the corresponding chunk is emitted into the trace
with the run-time values (heap addresses, branch outcomes, call targets)
patched in.  Spill slots are frame-relative and rebased per activation.
"""

from __future__ import annotations

from ..threads import Frame


class Chunk:
    """Native code for one bytecode instruction of a compiled method.

    ``ea_plan`` describes how to assemble the template's patched
    effective addresses: ``None`` means every patch slot is dynamic (the
    stepper passes them all); otherwise it is a sequence of
    ``(is_frame_relative, value)`` pairs where frame-relative entries
    are spill-slot offsets and the rest are filled from the dynamic
    values in order.  The plan is only assembled for a recording sink.
    """

    __slots__ = ("template", "ea_plan")

    def __init__(self, template, ea_plan=None) -> None:
        self.template = template
        self.ea_plan = ea_plan

    @property
    def base_pc(self) -> int:
        return self.template.base_pc

    def emit(self, sink, frame: Frame, dyn=(), takens=(), targets=()) -> None:
        plan = self.ea_plan
        if plan is None or not sink.records:
            # A counting sink ignores effective addresses: skip the plan.
            sink.emit(self.template, dyn, takens, targets)
            return
        it = iter(dyn)
        base = frame.frame_base
        eas = [base + value if rel else next(it) for rel, value in plan]
        sink.emit(self.template, eas, takens, targets)

    def __repr__(self) -> str:
        return f"Chunk({self.template.name}, n={self.template.n})"


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
