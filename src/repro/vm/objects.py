"""Runtime object model: objects, arrays, strings.

Every runtime entity has a concrete simulated heap address so that the
trace layer can generate realistic data-reference streams.  The object
header is 8 bytes (class pointer + lock word), matching the layout the
paper's thin-lock discussion assumes.
"""

from __future__ import annotations

from ..isa.method import JClass
from ..isa.opcodes import ARRAY_ELEM_BYTES, ArrayType

#: Object header: 4-byte class pointer + 4-byte lock/hash word.
OBJECT_HEADER_BYTES = 8
#: Array header: object header + 4-byte length.
ARRAY_HEADER_BYTES = 12


class JObject:
    """An instance of a :class:`JClass`."""

    __slots__ = ("jclass", "fields", "addr", "lock", "gc_mark",
                 "tl_thread", "elide_depth", "tl_spec", "alloc_site")

    def __init__(self, jclass: JClass, addr: int) -> None:
        self.jclass = jclass
        self.addr = addr
        # Field storage keyed by name; offsets come from jclass.field_offsets.
        self.fields: dict[str, object] = {}
        for name, ftype in jclass.field_types.items():
            self.fields[name] = 0 if ftype != "ref" else None
        self.lock = None   # lazily attached LockState
        self.gc_mark = False
        # Lock elision: owning thread id when escape analysis proved the
        # allocation thread-local, plus a shadow recursion depth so the
        # elided region can still be classified and safely unwound.
        self.tl_thread = None
        self.elide_depth = 0
        # Tiered tier-2 speculation: (method, alloc site) when the
        # elision was speculative rather than proven, so a foreign touch
        # can repair and deoptimize instead of counting a violation.
        self.tl_spec = None
        # (method qualified name, site, allocating thread id) when the
        # confinement tracker is on; None otherwise.
        self.alloc_site = None

    @property
    def byte_size(self) -> int:
        return OBJECT_HEADER_BYTES + self.jclass.instance_bytes

    def field_addr(self, name: str) -> int:
        return self.addr + OBJECT_HEADER_BYTES + self.jclass.field_offsets[name]

    @property
    def lockword_addr(self) -> int:
        return self.addr + 4

    def __repr__(self) -> str:
        return f"<{self.jclass.name}@{self.addr:#x}>"


class JArray:
    """A Java array.  ``atype`` is an :class:`ArrayType` code for
    primitive arrays, or the string ``"ref"`` for reference arrays."""

    __slots__ = ("atype", "elem_bytes", "data", "addr", "lock", "gc_mark",
                 "ref_class", "tl_thread", "elide_depth", "tl_spec",
                 "alloc_site")

    def __init__(self, atype, length: int, addr: int, ref_class: JClass | None = None) -> None:
        if length < 0:
            raise ValueError("negative array size")
        self.atype = atype
        if atype == "ref":
            self.elem_bytes = 4
            default = None
        else:
            self.elem_bytes = ARRAY_ELEM_BYTES[ArrayType(atype)]
            default = 0 if ArrayType(atype) != ArrayType.FLOAT else 0.0
        self.data = [default] * length
        self.addr = addr
        self.ref_class = ref_class
        self.lock = None
        self.gc_mark = False
        self.tl_thread = None
        self.elide_depth = 0
        self.tl_spec = None
        self.alloc_site = None

    @property
    def length(self) -> int:
        return len(self.data)

    @property
    def byte_size(self) -> int:
        return ARRAY_HEADER_BYTES + self.elem_bytes * len(self.data)

    def elem_addr(self, index: int) -> int:
        return self.addr + ARRAY_HEADER_BYTES + self.elem_bytes * index

    @property
    def lockword_addr(self) -> int:
        return self.addr + 4

    def check(self, index: int) -> None:
        if not (0 <= index < len(self.data)):
            raise IndexError(
                f"array index {index} out of bounds for length {len(self.data)}"
            )

    def __repr__(self) -> str:
        return f"<array {self.atype}[{len(self.data)}]@{self.addr:#x}>"


class JString:
    """An immutable string object (interned per VM)."""

    __slots__ = ("value", "addr", "lock", "gc_mark")

    def __init__(self, value: str, addr: int) -> None:
        self.value = value
        self.addr = addr
        self.lock = None
        self.gc_mark = False

    @property
    def byte_size(self) -> int:
        return OBJECT_HEADER_BYTES + 4 + 2 * len(self.value)

    @property
    def lockword_addr(self) -> int:
        return self.addr + 4

    def data_addr(self, index: int = 0) -> int:
        return self.addr + OBJECT_HEADER_BYTES + 4 + 2 * index

    def __repr__(self) -> str:
        return f"<String {self.value!r}@{self.addr:#x}>"


#: Anything that can live on the heap / be synchronized on.
HeapRef = (JObject, JArray, JString)
