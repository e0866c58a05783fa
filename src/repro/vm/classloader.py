"""Class loading, address assignment and lazy constant-pool resolution.

Loading a class (lazily, on first reference — as the JVM spec requires)
assigns all its simulated addresses: the metadata block in the VM data
segment, static-field slots, and the method bytecode images in the
bytecode area.  The work is charged to the trace through the loader-loop
stub templates (flag ``FLAG_CLASSLOAD``), producing the class-loading
miss spikes at program start that the paper's Figure 6 shows.

Everything loading produces is this VM's: a :class:`ClassMirror` per
loaded class (addresses, static values, the class monitor, resolved
constant-pool slots) and a :class:`MethodMirror` per method (id and
addresses).  The :class:`~repro.isa.method.Program` — declarations and
link-time layout — is only read, so any number of VMs can run it.

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


class ClassMirror:
    """One VM's run-time image of a loaded class (``java.lang.Class``).

    It is the monitor of the class's static synchronized methods, so it
    carries the lock-object protocol (``lock``, ``lockword_addr``).
    ``resolved[i]`` caches the target of constant-pool entry ``i``.
    """

    __slots__ = ("jclass", "meta_addr", "pool_addr", "lockword_addr",
                 "static_addr", "statics", "lock", "resolved")

    def __init__(self, jclass: JClass, meta_addr: int) -> None:
        self.jclass = jclass
        self.meta_addr = meta_addr
        self.pool_addr = (meta_addr + CLASS_STRUCT_BYTES
                          + METHOD_BLOCK_BYTES * len(jclass.methods))
        self.lockword_addr = meta_addr + 4
        self.static_addr: dict[str, int] = {}
        self.statics: dict[str, object] = {}
        self.lock = None
        self.resolved: list = [None] * len(jclass.pool)

    def __repr__(self) -> str:
        return f"ClassMirror({self.jclass.name})"


class MethodMirror:
    """One VM's run-time facts about a method of a loaded class."""

    __slots__ = ("method", "owner", "method_id", "meta_addr", "bc_addr")

    def __init__(self, method: Method, owner: ClassMirror, method_id: int,
                 meta_addr: int, bc_addr: int) -> None:
        self.method = method
        self.owner = owner
        self.method_id = method_id
        self.meta_addr = meta_addr
        self.bc_addr = bc_addr


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
        self.classes_loaded = 0
        self.metadata_bytes = 0
        self.bytecode_bytes = 0
        self.resolution_count = 0
        self.overhead_cycles = 0   # loader/resolver cycles charged to trace
        #: loaded classes, in load order (membership is the loaded mark)
        self.mirrors: dict[JClass, ClassMirror] = {}
        #: methods of loaded classes; ``method_id`` is the load order
        self.methods: dict[Method, MethodMirror] = {}
        #: Optional callback invoked after each class finishes loading
        #: (the tiered controller hooks this to invalidate loaded-world
        #: CHA speculation before the new class can be dispatched on).
        self.on_load = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def ensure_loaded(self, name: str) -> ClassMirror:
        """Load a class and its superclasses if needed."""
        try:
            cls = self.program.get_class(name)
        except KeyError as exc:
            raise ClassLoadError(str(exc)) from None
        mirror = self.mirrors.get(cls)
        if mirror is not None:
            return mirror
        if cls.super_name:
            self.ensure_loaded(cls.super_name)
        mirror = self._layout(cls)
        before = self.sink.cycles
        self._emit_load_trace(mirror)
        self.overhead_cycles += self.sink.cycles - before
        self.classes_loaded += 1
        if self.on_load is not None:
            self.on_load(cls)
        return mirror

    def _alloc_meta(self, nbytes: int) -> int:
        addr = self._meta_cursor
        self._meta_cursor += nbytes
        if self._meta_cursor > VM_DATA_BASE + VM_DATA_SIZE:
            raise ClassLoadError("VM metadata region exhausted")
        self.metadata_bytes += nbytes
        return addr

    def _layout(self, cls: JClass) -> ClassMirror:
        """Assign the class's addresses and create its mirror."""
        statics = [f for f in cls.fields if f.is_static]
        if self._static_cursor + 4 * len(statics) > STATICS_BASE + STATICS_SIZE:
            raise ClassLoadError("statics region exhausted")
        # Metadata block: class struct + method blocks + pool entries.
        n_methods = len(cls.methods)
        meta_size = (
            CLASS_STRUCT_BYTES
            + METHOD_BLOCK_BYTES * n_methods
            + POOL_ENTRY_BYTES * len(cls.pool)
        )
        mirror = ClassMirror(cls, self._alloc_meta(meta_size))
        self.mirrors[cls] = mirror
        for field in statics:
            mirror.static_addr[field.name] = self._static_cursor
            mirror.statics[field.name] = 0.0 if field.ftype == "float" else (
                None if field.ftype == "ref" else 0
            )
            self._static_cursor += 4

        # Method blocks and bytecode images.
        for index, method in enumerate(cls.methods.values()):
            bc_addr = 0
            if not method.is_native:
                bc_addr = self._bytecode_cursor
                self._bytecode_cursor += (method.bc_length + 3) & ~3
                if self._bytecode_cursor > BYTECODE_BASE + BYTECODE_SIZE:
                    raise ClassLoadError("bytecode region exhausted")
                self.bytecode_bytes += method.bc_length
            self.methods[method] = MethodMirror(
                method, mirror, len(self.methods),
                mirror.meta_addr + CLASS_STRUCT_BYTES
                + METHOD_BLOCK_BYTES * index,
                bc_addr)
        return mirror

    def _emit_load_trace(self, mirror: ClassMirror) -> None:
        """Charge the parse / copy / fixup work to the native trace."""
        stubs, sink = self.stubs, self.sink
        cls = mirror.jclass
        methods = [self.methods[m] for m in cls.methods.values()
                   if not m.is_native]
        # The class-file image this was "read" from.
        pool_end = mirror.pool_addr + POOL_ENTRY_BYTES * len(cls.pool)
        classfile_addr = self._classfile_cursor
        classfile_bytes = (pool_end - mirror.meta_addr + 40
                           + sum(mm.method.bc_length for mm in methods))
        self._classfile_cursor += (classfile_bytes + 7) & ~7
        # Parse loop: one iteration per 4 image bytes.
        iters = max(1, classfile_bytes // 4)
        src, dst = classfile_addr, mirror.meta_addr
        meta_words = max(1, (pool_end - mirror.meta_addr) // 8)
        eas, takens = [], []
        if sink.records:
            for i in range(iters):
                eas += (src + 8 * i, dst + 8 * (i % meta_words))
            takens = _loop_takens(iters)
        sink.emit_run(stubs.classload_parse, iters, eas, takens)
        # Bytecode copy loops.
        for mm in methods:
            n = max(1, mm.method.bc_length // 4)
            if sink.records:
                eas = []
                for i in range(n):
                    eas += (classfile_addr + 40 + 4 * i, mm.bc_addr + 4 * i)
                takens = _loop_takens(n)
            sink.emit_run(stubs.classload_bccopy, n, eas, takens)
        # Fixed per-class fixup.
        meta = mirror.meta_addr
        sink.emit(
            stubs.classload_fixup,
            (meta, meta + 8, meta + 12),
            (),
            (stubs.classload_fixup.base_pc, 0),
        )

    # ------------------------------------------------------------------
    # lazy resolution
    # ------------------------------------------------------------------
    @staticmethod
    def pool_ea(mirror: ClassMirror, index: int) -> int:
        """Simulated address of a constant-pool entry."""
        return mirror.pool_addr + POOL_ENTRY_BYTES * index

    def _charge_resolve(self, mirror: ClassMirror, index: int,
                        target: ClassMirror) -> None:
        self.resolution_count += 1
        self.stubs.emit_resolve(
            self.sink, self.pool_ea(mirror, index), target.meta_addr
        )
        self.overhead_cycles += self.stubs.resolve.cycles

    def resolve_class(self, mirror: ClassMirror, index: int) -> ClassMirror:
        target = mirror.resolved[index]
        if target is None:
            entry = mirror.jclass.pool[index]
            assert isinstance(entry, ClassRef)
            target = mirror.resolved[index] = self.ensure_loaded(
                entry.class_name)
            self._charge_resolve(mirror, index, target)
        return target

    def resolve_field(self, mirror: ClassMirror, index: int):
        """Resolve a field ref to ``(declaring class mirror, field_name)``."""
        resolved = mirror.resolved[index]
        if resolved is None:
            entry = mirror.jclass.pool[index]
            assert isinstance(entry, FieldRef)
            name = entry.field_name
            declarer = self.ensure_loaded(entry.class_name)
            # Walk up for the declaring class of a static field.
            while (name not in declarer.static_addr
                   and name not in declarer.jclass.field_offsets):
                sup = declarer.jclass.super_class
                if sup is None:
                    raise ClassLoadError(
                        f"field {entry.class_name}.{name} not found"
                    )
                declarer = self.mirrors[sup]
            resolved = mirror.resolved[index] = (declarer, name)
            self._charge_resolve(mirror, index, declarer)
        return resolved

    def resolve_method(self, mirror: ClassMirror, index: int) -> Method:
        """Resolve a method ref to its statically-known target."""
        method = mirror.resolved[index]
        if method is None:
            entry = mirror.jclass.pool[index]
            assert isinstance(entry, MethodRef)
            owner = self.ensure_loaded(entry.class_name)
            method = owner.jclass.find_method(entry.method_name)
            if method is None:
                raise ClassLoadError(
                    f"method {entry.class_name}.{entry.method_name} not found"
                )
            mirror.resolved[index] = method
            self._charge_resolve(mirror, index, owner)
        return method
