"""Per-class constant pools of symbolic entries.

Field and method references are *symbolic* — (class name, member name)
— exactly as in real class files, and are resolved on first use by the
class loader (which charges the resolution work to the trace).  The
resolved target is cached in the loader's per-VM slot for the entry, so
later executions take the fast path, mirroring constant-pool quickening
in real JVMs; the entries themselves never change.
"""

from __future__ import annotations


class PoolEntry:
    """Base class for constant-pool entries."""

    __slots__ = ()


class StringConst(PoolEntry):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"StringConst({self.value!r})"


class FloatConst(PoolEntry):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"FloatConst({self.value})"


class ClassRef(PoolEntry):
    __slots__ = ("class_name",)

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name

    def __repr__(self) -> str:
        return f"ClassRef({self.class_name})"


class FieldRef(PoolEntry):
    __slots__ = ("class_name", "field_name")

    def __init__(self, class_name: str, field_name: str) -> None:
        self.class_name = class_name
        self.field_name = field_name

    def __repr__(self) -> str:
        return f"FieldRef({self.class_name}.{self.field_name})"


class MethodRef(PoolEntry):
    """A symbolic method reference.

    ``argc`` is the number of declared argument slots (excluding the
    receiver); ``has_result`` says whether the callee pushes a value.
    Both are needed statically by the verifier and the JIT.
    """

    __slots__ = ("class_name", "method_name", "argc", "has_result")

    def __init__(self, class_name: str, method_name: str, argc: int,
                 has_result: bool) -> None:
        self.class_name = class_name
        self.method_name = method_name
        self.argc = argc
        self.has_result = has_result

    def __repr__(self) -> str:
        return f"MethodRef({self.class_name}.{self.method_name}/{self.argc})"


class ConstantPool:
    """An append-only, deduplicating constant pool."""

    def __init__(self) -> None:
        self.entries: list[PoolEntry] = []
        self._index: dict[tuple, int] = {}

    def _add(self, key: tuple, make) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.entries)
            self.entries.append(make())
            self._index[key] = idx
        return idx

    def string(self, value: str) -> int:
        return self._add(("s", value), lambda: StringConst(value))

    def float_const(self, value: float) -> int:
        return self._add(("f", float(value)), lambda: FloatConst(value))

    def class_ref(self, class_name: str) -> int:
        return self._add(("c", class_name), lambda: ClassRef(class_name))

    def field_ref(self, class_name: str, field_name: str) -> int:
        return self._add(
            ("fr", class_name, field_name),
            lambda: FieldRef(class_name, field_name),
        )

    def method_ref(self, class_name: str, method_name: str, argc: int,
                   has_result: bool) -> int:
        return self._add(
            ("mr", class_name, method_name, argc, has_result),
            lambda: MethodRef(class_name, method_name, argc, has_result),
        )

    def __getitem__(self, idx: int) -> PoolEntry:
        return self.entries[idx]

    def __len__(self) -> int:
        return len(self.entries)
