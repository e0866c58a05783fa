"""Method, field, class and program structures.

These model the *loaded* form of a class file: bytecode plus symbolic
constant pool, and the layout linking derives from them (superclass,
field offsets, per-instruction bytecode offsets).  Nothing here changes
once a program is built and linked: addresses, static values, monitors,
resolved pool slots and compiled code belong to the VM that runs the
program (``repro.vm.classloader``), so one ``Program`` can be run by any
number of VMs, one after another or side by side.

Simplification relative to real class files: methods are keyed by name
only (no overload resolution by descriptor); the workloads are written
accordingly.
"""

from __future__ import annotations

from typing import Callable, Optional

from .instruction import Instr
from .opcodes import Op
from .pool import ConstantPool


class Field:
    """An instance or static field declaration."""

    __slots__ = ("name", "ftype", "is_static")

    #: Field byte widths (drives object layout and access addresses).
    TYPE_BYTES = {"int": 4, "float": 4, "ref": 4, "byte": 1, "char": 2}

    def __init__(self, name: str, ftype: str = "int", is_static: bool = False) -> None:
        if ftype not in self.TYPE_BYTES:
            raise ValueError(f"unknown field type {ftype!r}")
        self.name = name
        self.ftype = ftype
        self.is_static = is_static

    @property
    def byte_size(self) -> int:
        return self.TYPE_BYTES[self.ftype]

    def __repr__(self) -> str:
        static = "static " if self.is_static else ""
        return f"Field({static}{self.ftype} {self.name})"


class Method:
    """A bytecode (or native) method."""

    def __init__(
        self,
        name: str,
        argc: int = 0,
        has_result: bool = False,
        is_static: bool = False,
        is_synchronized: bool = False,
        max_locals: int | None = None,
        code: list[Instr] | None = None,
        native_impl: Optional[Callable] = None,
        native_cost: int = 20,
        max_stack: int | None = None,
        native_escape: tuple[str, ...] | None = None,
    ) -> None:
        self.name = name
        self.argc = argc
        self.has_result = has_result
        self.is_static = is_static
        self.is_synchronized = is_synchronized
        self.code: list[Instr] = code or []
        self.native_impl = native_impl
        self.native_cost = native_cost  # native instrs charged per call
        #: declared operand-stack limit; None => verifier computes a bound
        self.declared_max_stack = max_stack
        #: escape-analysis annotation for natives: per-param-slot levels
        #: drawn from {"none", "returned", "global"}; None => all "global"
        self.native_escape = native_escape
        n_params = argc + (0 if is_static else 1)
        self.max_locals = max_locals if max_locals is not None else n_params

        # Filled in when the owning class is registered / linked:
        self.jclass: "JClass | None" = None
        self.pool: ConstantPool | None = None
        self.bc_offsets: list[int] = []    # per-instruction byte offset
        self.bc_length: int = 0
        self.depth_in: list[int] = []      # verifier: stack depth at entry
        self.max_stack: int = 8            # verifier: max operand-stack depth

    @property
    def is_native(self) -> bool:
        return self.native_impl is not None

    @property
    def n_param_slots(self) -> int:
        """Locals consumed by arguments (receiver included if virtual)."""
        return self.argc + (0 if self.is_static else 1)

    @property
    def qualified_name(self) -> str:
        cls = self.jclass.name if self.jclass else "?"
        return f"{cls}.{self.name}"

    def compute_layout(self) -> None:
        """Assign per-instruction byte offsets within the method."""
        self.bc_offsets = []
        off = 0
        for instr in self.code:
            self.bc_offsets.append(off)
            off += instr.encoded_length()
        self.bc_length = off

    def __repr__(self) -> str:
        return f"Method({self.qualified_name}/{self.argc}, {len(self.code)} instrs)"


class JClass:
    """A class declaration (the loaded image of one class file)."""

    def __init__(self, name: str, super_name: str | None = "java/lang/Object") -> None:
        self.name = name
        self.super_name = super_name if name != "java/lang/Object" else None
        self.fields: list[Field] = []
        self.methods: dict[str, Method] = {}
        self.pool = ConstantPool()

        # Layout, filled in by :meth:`link`:
        self.linked = False
        self.super_class: "JClass | None" = None
        self.field_offsets: dict[str, int] = {}
        self.field_types: dict[str, str] = {}
        self.instance_bytes: int = 0

    def add_field(self, field: Field) -> None:
        self.fields.append(field)

    def add_method(self, method: Method) -> None:
        if method.name in self.methods:
            raise ValueError(
                f"duplicate method {method.name!r} in class {self.name!r}"
            )
        method.jclass = self
        method.pool = self.pool
        self.methods[method.name] = method

    def link(self, super_class: "JClass | None") -> None:
        """Lay the class out: superclass fields first, then its own
        instance fields, each naturally aligned; bytecode offsets for
        every method not laid out yet."""
        offsets: dict[str, int] = {}
        types: dict[str, str] = {}
        size = 0
        if super_class is not None:
            offsets.update(super_class.field_offsets)
            types.update(super_class.field_types)
            size = super_class.instance_bytes
        for field in self.fields:
            if field.is_static:
                continue
            width = field.byte_size
            size = (size + width - 1) & ~(width - 1)
            offsets[field.name] = size
            types[field.name] = field.ftype
            size += width
        self.super_class = super_class
        self.field_offsets = offsets
        self.field_types = types
        self.instance_bytes = (size + 3) & ~3
        for method in self.methods.values():
            if not method.is_native and not method.bc_offsets:
                method.compute_layout()
        self.linked = True

    def find_method(self, name: str) -> Method | None:
        """Resolve a method by walking up the superclass chain."""
        cls: JClass | None = self
        while cls is not None:
            m = cls.methods.get(name)
            if m is not None:
                return m
            cls = cls.super_class
        return None

    def is_subclass_of(self, other: "JClass") -> bool:
        cls: JClass | None = self
        while cls is not None:
            if cls is other:
                return True
            cls = cls.super_class
        return False

    def __repr__(self) -> str:
        return f"JClass({self.name}, {len(self.methods)} methods)"


class Program:
    """A closed set of classes plus an entry point.

    It also answers the class-hierarchy queries of the JIT's CHA and of
    every static analysis.  They read the classes as declared: each walk
    goes up ``super_name`` by name, needs no linking, and stops at a
    superclass missing from the program or at a class seen before.  For
    a linked class this finds what ``JClass.find_method`` finds; the
    run-time resolution the interpreter charges cycles for stays in
    ``repro.vm.classloader``.
    """

    def __init__(self, name: str, main_class: str = "Main") -> None:
        self.name = name
        self.main_class = main_class
        self.classes: dict[str, JClass] = {}
        #: The JIT's translation memo (``repro.vm.jit.compiler``): derived
        #: from the classes and the VMs' link state, never read as
        #: program state, freed with the program.
        self.translations: dict = {}
        #: class name -> the classes at or below it; built on first use
        self._subclasses: dict[str, tuple[JClass, ...]] | None = None

    def add_class(self, jclass: JClass) -> JClass:
        if jclass.name in self.classes:
            raise ValueError(f"duplicate class {jclass.name!r}")
        self.classes[jclass.name] = jclass
        self._subclasses = None
        return jclass

    def get_class(self, name: str) -> JClass:
        try:
            return self.classes[name]
        except KeyError:
            raise KeyError(f"class {name!r} not in program {self.name!r}") from None

    def merge(self, other: "Program") -> None:
        """Add all of ``other``'s classes."""
        for cls in other.classes.values():
            self.add_class(cls)

    def link(self) -> None:
        """Lay out every class whose superclass chain is present,
        superclasses first.  Idempotent; a class with a missing
        superclass stays unlinked, and loading it fails."""
        for cls in self.classes.values():
            self._link(cls)

    def _link(self, cls: JClass) -> bool:
        if cls.linked:
            return True
        sup = None
        if cls.super_name is not None:
            sup = self.classes.get(cls.super_name)
            if sup is None or not self._link(sup):
                return False
        cls.link(sup)
        return True

    # -- class hierarchy -------------------------------------------------

    def _ancestors(self, class_name: str):
        """The named class, then its superclasses, nearest first."""
        seen = set()
        cls = self.classes.get(class_name)
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            yield cls
            cls = self.classes.get(cls.super_name) if cls.super_name else None

    def subclasses(self, class_name: str) -> tuple[JClass, ...]:
        """The named class and every class below it, in program order
        (empty when the class is not in the program)."""
        index = self._subclasses
        if index is None:
            below: dict[str, list[JClass]] = {}
            for cls in self.classes.values():
                for sup in self._ancestors(cls.name):
                    below.setdefault(sup.name, []).append(cls)
            index = self._subclasses = {k: tuple(v) for k, v in below.items()}
        return index.get(class_name, ())

    def is_subclass(self, class_name: str, ancestor: str) -> bool:
        """True when ``ancestor`` is the named class or above it."""
        return any(cls.name == ancestor for cls in self._ancestors(class_name))

    def resolve_method(self, class_name: str, method_name: str) -> Method | None:
        """The method a by-name call on ``class_name`` finds."""
        for cls in self._ancestors(class_name):
            m = cls.methods.get(method_name)
            if m is not None:
                return m
        return None

    def field_owner(self, class_name: str, field_name: str) -> JClass | None:
        """The nearest class at or above ``class_name`` that declares a
        field (static or instance) named ``field_name``."""
        for cls in self._ancestors(class_name):
            if any(f.name == field_name for f in cls.fields):
                return cls
        return None

    def call_targets(self, op: Op, ref) -> list[Method] | None:
        """The methods an invoke of the ``MethodRef`` ``ref`` may reach,
        or None when unresolvable: ``invokestatic``/``invokespecial``
        reach the resolved method, a virtual call also every override
        declared below the referenced class."""
        if ref.class_name not in self.classes:
            return None
        m = self.resolve_method(ref.class_name, ref.method_name)
        if op in (Op.INVOKESTATIC, Op.INVOKESPECIAL):
            return [m] if m is not None else None
        out = [m] if m is not None else []
        for cls in self.subclasses(ref.class_name):
            m = cls.methods.get(ref.method_name)
            if m is not None and m not in out:
                out.append(m)
        return out or None

    def unique_target(self, class_name: str, method_name: str,
                      loaded=None) -> Method | None:
        """Class-hierarchy analysis: the one implementation a virtual
        call can reach on any class at or below ``class_name``, else
        None.  Closed-world by default; with ``loaded`` (a VM's
        ``loader.mirrors``) only loaded classes count, a speculation
        that loading an overriding class later breaks, so callers must
        register it for deoptimization."""
        targets = {self.resolve_method(cls.name, method_name)
                   for cls in self.subclasses(class_name)
                   if loaded is None or cls in loaded}
        targets.discard(None)
        return targets.pop() if len(targets) == 1 else None

    @property
    def entry_method(self) -> Method:
        main = self.get_class(self.main_class).methods.get("main")
        if main is None:
            raise KeyError(f"{self.main_class} has no 'main' method")
        return main

    def all_methods(self):
        for cls in self.classes.values():
            yield from cls.methods.values()

    def __repr__(self) -> str:
        return f"Program({self.name}, {len(self.classes)} classes)"
