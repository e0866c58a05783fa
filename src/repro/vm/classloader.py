"""Class loading, layout and lazy constant-pool resolution.

Loading a class (lazily, on first reference — as the JVM spec requires)
assigns all its simulated addresses: the metadata block in the VM data
segment, static-field slots, and the method bytecode images in the
bytecode area.  The work is charged to the trace through the loader-loop
stub templates (flag ``FLAG_CLASSLOAD``), producing the class-loading
miss spikes at program start that the paper's Figure 6 shows.

Simplification: there is no ``<clinit>``; workloads initialize their
static state from ``main`` (documented in DESIGN.md).
"""

from __future__ import annotations

from ..isa.method import JClass, Method, Program
from ..isa.pool import ClassRef, FieldRef, MethodRef
from ..native.layout import (
    BYTECODE_BASE,
    BYTECODE_SIZE,
    CLASSFILE_BASE,
    STATICS_BASE,
    STATICS_SIZE,
    VM_DATA_BASE,
    VM_DATA_SIZE,
)
from .stubs import RuntimeStubs

#: VM-data bytes reserved before class metadata (jump table, allocator state).
_METADATA_START = 0x2000

#: Fixed metadata bytes per class (class struct, vtable header).
CLASS_STRUCT_BYTES = 64
#: Metadata bytes per method block.
METHOD_BLOCK_BYTES = 32
#: Metadata bytes per constant-pool entry.
POOL_ENTRY_BYTES = 8


def _loop_takens(n: int) -> list[bool]:
    """Back-branch outcomes of an ``n``-iteration loop (``n >= 1``)."""
    return [True] * (n - 1) + [False]


class ClassLoadError(Exception):
    """Raised for unknown classes or loader address-space exhaustion."""


class ClassLoader:
    """Loads classes out of a :class:`Program` into a running VM."""

    def __init__(self, program: Program, stubs: RuntimeStubs, sink) -> None:
        self.program = program
        self.stubs = stubs
        self.sink = sink
        self._meta_cursor = VM_DATA_BASE + _METADATA_START
        self._static_cursor = STATICS_BASE
        self._bytecode_cursor = BYTECODE_BASE
        self._classfile_cursor = CLASSFILE_BASE
        self._next_class_id = 0
        self._next_method_id = 0
        self.classes_loaded = 0
        self.metadata_bytes = 0
        self.bytecode_bytes = 0
        self.resolution_count = 0
        self.overhead_cycles = 0   # loader/resolver cycles charged to trace
        self.methods_by_id: list[Method] = []
        #: Optional callback invoked after each class finishes loading
        #: (the tiered controller hooks this to invalidate loaded-world
        #: CHA speculation before the new class can be dispatched on).
        self.on_load = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def ensure_loaded(self, name: str) -> JClass:
        """Load (and link) a class and its superclasses if needed."""
        try:
            cls = self.program.get_class(name)
        except KeyError as exc:
            raise ClassLoadError(str(exc)) from None
        if cls.loaded:
            return cls
        # Mark early to tolerate (ignore) self-referential pools.
        cls.loaded = True
        if cls.super_name:
            cls.super_class = self.ensure_loaded(cls.super_name)
        self._layout(cls)
        before = self.sink.cycles
        self._emit_load_trace(cls)
        self.overhead_cycles += self.sink.cycles - before
        self.classes_loaded += 1
        if self.on_load is not None:
            self.on_load(cls)
        return cls

    def _alloc_meta(self, nbytes: int) -> int:
        addr = self._meta_cursor
        self._meta_cursor += nbytes
        if self._meta_cursor > VM_DATA_BASE + VM_DATA_SIZE:
            raise ClassLoadError("VM metadata region exhausted")
        self.metadata_bytes += nbytes
        return addr

    def _layout(self, cls: JClass) -> None:
        """Assign addresses and compute the field layout."""
        cls.class_id = self._next_class_id
        self._next_class_id += 1

        # Field layout: superclass fields first, then own, naturally aligned.
        offsets: dict[str, int] = {}
        types: dict[str, str] = {}
        size = 0
        if cls.super_class is not None:
            offsets.update(cls.super_class.field_offsets)
            types.update(cls.super_class.field_types)
            size = cls.super_class.instance_bytes
        for field in cls.fields:
            if field.is_static:
                continue
            width = field.byte_size
            size = (size + width - 1) & ~(width - 1)
            offsets[field.name] = size
            types[field.name] = field.ftype
            size += width
        cls.field_offsets = offsets
        cls.field_types = types
        cls.instance_bytes = (size + 3) & ~3

        # Static fields.
        for field in cls.fields:
            if not field.is_static:
                continue
            if self._static_cursor + 4 > STATICS_BASE + STATICS_SIZE:
                raise ClassLoadError("statics region exhausted")
            cls.static_addr[field.name] = self._static_cursor
            cls.statics[field.name] = 0.0 if field.ftype == "float" else (
                None if field.ftype == "ref" else 0
            )
            self._static_cursor += 4

        # Metadata block: class struct + method blocks + pool entries.
        n_methods = len(cls.methods)
        meta_size = (
            CLASS_STRUCT_BYTES
            + METHOD_BLOCK_BYTES * n_methods
            + POOL_ENTRY_BYTES * len(cls.pool)
        )
        cls.meta_addr = self._alloc_meta(meta_size)
        cls.pool_addr = cls.meta_addr + CLASS_STRUCT_BYTES + METHOD_BLOCK_BYTES * n_methods
        cls.lock = None
        cls.lockword_addr = cls.meta_addr + 4
        cls.gc_mark = False

        # Method blocks and bytecode images.
        for index, method in enumerate(cls.methods.values()):
            method.method_id = self._next_method_id
            self._next_method_id += 1
            self.methods_by_id.append(method)
            method.meta_addr = cls.meta_addr + CLASS_STRUCT_BYTES + METHOD_BLOCK_BYTES * index
            if not method.is_native:
                if not method.bc_offsets:
                    method.compute_layout()
                method.bc_addr = self._bytecode_cursor
                self._bytecode_cursor += (method.bc_length + 3) & ~3
                if self._bytecode_cursor > BYTECODE_BASE + BYTECODE_SIZE:
                    raise ClassLoadError("bytecode region exhausted")
                self.bytecode_bytes += method.bc_length

        # The class-file image this was "read" from.
        cls.classfile_addr = self._classfile_cursor
        cls.classfile_bytes = meta_size + sum(
            m.bc_length for m in cls.methods.values() if not m.is_native
        ) + 40
        self._classfile_cursor += (cls.classfile_bytes + 7) & ~7

    def _emit_load_trace(self, cls: JClass) -> None:
        """Charge the parse / copy / fixup work to the native trace."""
        stubs, sink = self.stubs, self.sink
        # Parse loop: one iteration per 4 image bytes.
        iters = max(1, cls.classfile_bytes // 4)
        src, dst = cls.classfile_addr, cls.meta_addr
        meta_words = max(1, (cls.pool_addr + POOL_ENTRY_BYTES * len(cls.pool)
                             - cls.meta_addr) // 8)
        eas, takens = [], []
        if sink.records:
            for i in range(iters):
                eas += (src + 8 * i, dst + 8 * (i % meta_words))
            takens = _loop_takens(iters)
        sink.emit_run(stubs.classload_parse, iters, eas, takens)
        # Bytecode copy loops.
        for method in cls.methods.values():
            if method.is_native:
                continue
            n = max(1, method.bc_length // 4)
            if sink.records:
                eas = []
                for i in range(n):
                    eas += (cls.classfile_addr + 40 + 4 * i,
                            method.bc_addr + 4 * i)
                takens = _loop_takens(n)
            sink.emit_run(stubs.classload_bccopy, n, eas, takens)
        # Fixed per-class fixup.
        sink.emit(
            stubs.classload_fixup,
            (cls.meta_addr, cls.meta_addr + 8, cls.meta_addr + 12),
            (),
            (stubs.classload_fixup.base_pc, 0),
        )

    # ------------------------------------------------------------------
    # lazy resolution
    # ------------------------------------------------------------------
    def pool_ea(self, cls: JClass, index: int) -> int:
        """Simulated address of a constant-pool entry."""
        return cls.pool_addr + POOL_ENTRY_BYTES * index

    def resolve_class(self, cls: JClass, index: int) -> JClass:
        entry = cls.pool[index]
        if entry.resolved is None:
            assert isinstance(entry, ClassRef)
            target = self.ensure_loaded(entry.class_name)
            entry.resolved = target
            self.resolution_count += 1
            self.stubs.emit_resolve(
                self.sink, self.pool_ea(cls, index), target.meta_addr
            )
            self.overhead_cycles += self.stubs.resolve.cycles
        return entry.resolved

    def resolve_field(self, cls: JClass, index: int):
        """Resolve a field ref to ``(owner_class, field_name)``."""
        entry = cls.pool[index]
        if entry.resolved is None:
            assert isinstance(entry, FieldRef)
            owner = self.ensure_loaded(entry.class_name)
            # Walk up for the declaring class of a static field.
            declarer = owner
            while (declarer is not None
                   and entry.field_name not in declarer.static_addr
                   and entry.field_name not in declarer.field_offsets):
                declarer = declarer.super_class
            if declarer is None:
                raise ClassLoadError(
                    f"field {entry.class_name}.{entry.field_name} not found"
                )
            entry.resolved = (declarer, entry.field_name)
            self.resolution_count += 1
            self.stubs.emit_resolve(
                self.sink, self.pool_ea(cls, index), declarer.meta_addr
            )
            self.overhead_cycles += self.stubs.resolve.cycles
        return entry.resolved

    def resolve_method(self, cls: JClass, index: int) -> Method:
        """Resolve a method ref to its statically-known target."""
        entry = cls.pool[index]
        if entry.resolved is None:
            assert isinstance(entry, MethodRef)
            owner = self.ensure_loaded(entry.class_name)
            method = owner.find_method(entry.method_name)
            if method is None:
                raise ClassLoadError(
                    f"method {entry.class_name}.{entry.method_name} not found"
                )
            entry.resolved = method
            self.resolution_count += 1
            self.stubs.emit_resolve(
                self.sink, self.pool_ea(cls, index), owner.meta_addr
            )
            self.overhead_cycles += self.stubs.resolve.cycles
        return entry.resolved
