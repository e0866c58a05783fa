"""Fluent builders for bytecode programs.

The workloads (our SpecJVM98 stand-ins) and the runtime library are
authored against this API.  A :class:`MethodBuilder` exposes one method
per opcode plus labels for control flow; :class:`ClassBuilder` and
:class:`ProgramBuilder` assemble classes and whole programs, running the
verifier at build time so malformed workloads fail fast.
"""

from __future__ import annotations

from typing import Callable

from .instruction import Instr
from .method import Field, JClass, Method, Program
from .opcodes import ArrayType, Op
from .verifier import verify_program


class Label:
    """A forward-referencable branch target."""

    __slots__ = ("index", "name")

    def __init__(self, name: str = "") -> None:
        self.index: int | None = None
        self.name = name

    def __repr__(self) -> str:
        return f"Label({self.name or id(self)}@{self.index})"


class MethodBuilder:
    """Builds the bytecode body of one method."""

    def __init__(
        self,
        class_builder: "ClassBuilder",
        name: str,
        argc: int = 0,
        returns: bool = False,
        static: bool = False,
        synchronized: bool = False,
        max_stack: int | None = None,
    ) -> None:
        self._cb = class_builder
        self._pool = class_builder.jclass.pool
        self.name = name
        self.argc = argc
        self.returns = returns
        self.static = static
        self.synchronized = synchronized
        self.max_stack = max_stack
        self._code: list[Instr] = []
        self._fixups: list[tuple[int, Label]] = []
        self._switch_fixups: list[int] = []
        self._max_local = argc + (0 if static else 1) - 1

    # -- labels ---------------------------------------------------------
    def new_label(self, name: str = "") -> Label:
        return Label(name)

    def bind(self, label: Label) -> "MethodBuilder":
        if label.index is not None:
            raise ValueError(f"label {label!r} bound twice")
        label.index = len(self._code)
        return self

    # -- low-level emission ----------------------------------------------
    def emit(self, op: Op, a=0, b=0, extra=None) -> "MethodBuilder":
        self._code.append(Instr(op, a, b, extra))
        return self

    def _emit_branch(self, op: Op, label: Label) -> "MethodBuilder":
        self._fixups.append((len(self._code), label))
        return self.emit(op, -1)

    def _local(self, op: Op, index: int) -> "MethodBuilder":
        self._max_local = max(self._max_local, index)
        return self.emit(op, index)

    # -- constants --------------------------------------------------------
    def nop(self):
        return self.emit(Op.NOP)

    def iconst(self, value: int):
        return self.emit(Op.ICONST, int(value))

    def fconst(self, value: float):
        return self.emit(Op.FCONST, float(value))

    def aconst_null(self):
        return self.emit(Op.ACONST_NULL)

    def ldc_str(self, value: str):
        return self.emit(Op.LDC, self._pool.string(value))

    def ldc_float(self, value: float):
        return self.emit(Op.LDC, self._pool.float_const(value))

    # -- locals -----------------------------------------------------------
    def iload(self, i: int):
        return self._local(Op.ILOAD, i)

    def fload(self, i: int):
        return self._local(Op.FLOAD, i)

    def aload(self, i: int):
        return self._local(Op.ALOAD, i)

    def istore(self, i: int):
        return self._local(Op.ISTORE, i)

    def fstore(self, i: int):
        return self._local(Op.FSTORE, i)

    def astore(self, i: int):
        return self._local(Op.ASTORE, i)

    def iinc(self, i: int, delta: int = 1):
        self._max_local = max(self._max_local, i)
        return self.emit(Op.IINC, i, delta)

    # -- stack --------------------------------------------------------------
    def pop(self):
        return self.emit(Op.POP)

    def dup(self):
        return self.emit(Op.DUP)

    def dup_x1(self):
        return self.emit(Op.DUP_X1)

    def swap(self):
        return self.emit(Op.SWAP)

    # -- arithmetic ----------------------------------------------------------
    def iadd(self):
        return self.emit(Op.IADD)

    def isub(self):
        return self.emit(Op.ISUB)

    def imul(self):
        return self.emit(Op.IMUL)

    def idiv(self):
        return self.emit(Op.IDIV)

    def irem(self):
        return self.emit(Op.IREM)

    def ineg(self):
        return self.emit(Op.INEG)

    def ishl(self):
        return self.emit(Op.ISHL)

    def ishr(self):
        return self.emit(Op.ISHR)

    def iushr(self):
        return self.emit(Op.IUSHR)

    def iand(self):
        return self.emit(Op.IAND)

    def ior(self):
        return self.emit(Op.IOR)

    def ixor(self):
        return self.emit(Op.IXOR)

    def fadd(self):
        return self.emit(Op.FADD)

    def fsub(self):
        return self.emit(Op.FSUB)

    def fmul(self):
        return self.emit(Op.FMUL)

    def fdiv(self):
        return self.emit(Op.FDIV)

    def fneg(self):
        return self.emit(Op.FNEG)

    def i2f(self):
        return self.emit(Op.I2F)

    def f2i(self):
        return self.emit(Op.F2I)

    def i2b(self):
        return self.emit(Op.I2B)

    def i2c(self):
        return self.emit(Op.I2C)

    def i2s(self):
        return self.emit(Op.I2S)

    def fcmpl(self):
        return self.emit(Op.FCMPL)

    def fcmpg(self):
        return self.emit(Op.FCMPG)

    # -- branches --------------------------------------------------------------
    def ifeq(self, label: Label):
        return self._emit_branch(Op.IFEQ, label)

    def ifne(self, label: Label):
        return self._emit_branch(Op.IFNE, label)

    def iflt(self, label: Label):
        return self._emit_branch(Op.IFLT, label)

    def ifge(self, label: Label):
        return self._emit_branch(Op.IFGE, label)

    def ifgt(self, label: Label):
        return self._emit_branch(Op.IFGT, label)

    def ifle(self, label: Label):
        return self._emit_branch(Op.IFLE, label)

    def if_icmpeq(self, label: Label):
        return self._emit_branch(Op.IF_ICMPEQ, label)

    def if_icmpne(self, label: Label):
        return self._emit_branch(Op.IF_ICMPNE, label)

    def if_icmplt(self, label: Label):
        return self._emit_branch(Op.IF_ICMPLT, label)

    def if_icmpge(self, label: Label):
        return self._emit_branch(Op.IF_ICMPGE, label)

    def if_icmpgt(self, label: Label):
        return self._emit_branch(Op.IF_ICMPGT, label)

    def if_icmple(self, label: Label):
        return self._emit_branch(Op.IF_ICMPLE, label)

    def if_acmpeq(self, label: Label):
        return self._emit_branch(Op.IF_ACMPEQ, label)

    def if_acmpne(self, label: Label):
        return self._emit_branch(Op.IF_ACMPNE, label)

    def ifnull(self, label: Label):
        return self._emit_branch(Op.IFNULL, label)

    def ifnonnull(self, label: Label):
        return self._emit_branch(Op.IFNONNULL, label)

    def goto(self, label: Label):
        return self._emit_branch(Op.GOTO, label)

    def tableswitch(self, low: int, targets: list[Label], default: Label):
        self._switch_fixups.append(len(self._code))
        return self.emit(Op.TABLESWITCH, extra=(low, list(targets), default))

    def lookupswitch(self, table: dict[int, Label], default: Label):
        self._switch_fixups.append(len(self._code))
        return self.emit(Op.LOOKUPSWITCH, extra=(dict(table), default))

    # -- returns ----------------------------------------------------------------
    def ireturn(self):
        return self.emit(Op.IRETURN)

    def freturn(self):
        return self.emit(Op.FRETURN)

    def areturn(self):
        return self.emit(Op.ARETURN)

    def return_(self):
        return self.emit(Op.RETURN)

    # -- fields -----------------------------------------------------------------
    def getstatic(self, class_name: str, field_name: str):
        return self.emit(Op.GETSTATIC, self._pool.field_ref(class_name, field_name))

    def putstatic(self, class_name: str, field_name: str):
        return self.emit(Op.PUTSTATIC, self._pool.field_ref(class_name, field_name))

    def getfield(self, class_name: str, field_name: str):
        return self.emit(Op.GETFIELD, self._pool.field_ref(class_name, field_name))

    def putfield(self, class_name: str, field_name: str):
        return self.emit(Op.PUTFIELD, self._pool.field_ref(class_name, field_name))

    # -- invocation ----------------------------------------------------------------
    def invokevirtual(self, class_name: str, method_name: str, argc: int,
                      returns: bool):
        return self.emit(
            Op.INVOKEVIRTUAL,
            self._pool.method_ref(class_name, method_name, argc, returns),
        )

    def invokespecial(self, class_name: str, method_name: str, argc: int,
                      returns: bool = False):
        return self.emit(
            Op.INVOKESPECIAL,
            self._pool.method_ref(class_name, method_name, argc, returns),
        )

    def invokestatic(self, class_name: str, method_name: str, argc: int,
                     returns: bool):
        return self.emit(
            Op.INVOKESTATIC,
            self._pool.method_ref(class_name, method_name, argc, returns),
        )

    # -- allocation -------------------------------------------------------------------
    def new(self, class_name: str):
        return self.emit(Op.NEW, self._pool.class_ref(class_name))

    def newarray(self, elem: ArrayType):
        return self.emit(Op.NEWARRAY, int(elem))

    def anewarray(self, class_name: str):
        return self.emit(Op.ANEWARRAY, self._pool.class_ref(class_name))

    # -- arrays ---------------------------------------------------------------------------
    def arraylength(self):
        return self.emit(Op.ARRAYLENGTH)

    def iaload(self):
        return self.emit(Op.IALOAD)

    def iastore(self):
        return self.emit(Op.IASTORE)

    def faload(self):
        return self.emit(Op.FALOAD)

    def fastore(self):
        return self.emit(Op.FASTORE)

    def aaload(self):
        return self.emit(Op.AALOAD)

    def aastore(self):
        return self.emit(Op.AASTORE)

    def baload(self):
        return self.emit(Op.BALOAD)

    def bastore(self):
        return self.emit(Op.BASTORE)

    def caload(self):
        return self.emit(Op.CALOAD)

    def castore(self):
        return self.emit(Op.CASTORE)

    # -- type checks / monitors -------------------------------------------------------------
    def checkcast(self, class_name: str):
        return self.emit(Op.CHECKCAST, self._pool.class_ref(class_name))

    def instanceof(self, class_name: str):
        return self.emit(Op.INSTANCEOF, self._pool.class_ref(class_name))

    def monitorenter(self):
        return self.emit(Op.MONITORENTER)

    def monitorexit(self):
        return self.emit(Op.MONITOREXIT)

    # -- finalize ----------------------------------------------------------------------------
    def build(self) -> Method:
        for at, label in self._fixups:
            if label.index is None:
                raise ValueError(
                    f"{self._cb.jclass.name}.{self.name}: unbound label {label!r}"
                )
            self._code[at].a = label.index
        def _resolve(label: Label) -> int:
            if label.index is None:
                raise ValueError(
                    f"{self._cb.jclass.name}.{self.name}: unbound switch "
                    f"label {label!r}"
                )
            return label.index

        for at in self._switch_fixups:
            instr = self._code[at]
            if instr.op is Op.TABLESWITCH:
                low, targets, default = instr.extra
                instr.extra = (low, [_resolve(t) for t in targets], _resolve(default))
            else:
                table, default = instr.extra
                instr.extra = (
                    {k: _resolve(t) for k, t in table.items()},
                    _resolve(default),
                )
        method = Method(
            name=self.name,
            argc=self.argc,
            has_result=self.returns,
            is_static=self.static,
            is_synchronized=self.synchronized,
            max_locals=self._max_local + 1,
            code=self._code,
            max_stack=self.max_stack,
        )
        return method


class ClassBuilder:
    """Builds one :class:`JClass`."""

    def __init__(self, name: str, super_name: str | None = "java/lang/Object") -> None:
        self.jclass = JClass(name, super_name)
        self._pending: list[MethodBuilder] = []

    def field(self, name: str, ftype: str = "int") -> "ClassBuilder":
        self.jclass.add_field(Field(name, ftype))
        return self

    def static_field(self, name: str, ftype: str = "int") -> "ClassBuilder":
        self.jclass.add_field(Field(name, ftype, is_static=True))
        return self

    def method(self, name: str, argc: int = 0, returns: bool = False,
               static: bool = False, synchronized: bool = False,
               max_stack: int | None = None) -> MethodBuilder:
        mb = MethodBuilder(self, name, argc, returns, static, synchronized,
                           max_stack=max_stack)
        self._pending.append(mb)
        return mb

    def native_method(self, name: str, argc: int, returns: bool,
                      impl: Callable, static: bool = False,
                      synchronized: bool = False, cost: int = 20,
                      escape: tuple[str, ...] | None = None) -> "ClassBuilder":
        m = Method(
            name=name,
            argc=argc,
            has_result=returns,
            is_static=static,
            is_synchronized=synchronized,
            native_impl=impl,
            native_cost=cost,
            native_escape=escape,
        )
        self.jclass.add_method(m)
        return self

    def build(self) -> JClass:
        for mb in self._pending:
            self.jclass.add_method(mb.build())
        self._pending = []
        return self.jclass


class ProgramBuilder:
    """Builds a whole :class:`Program` and verifies it."""

    def __init__(self, name: str, main_class: str = "Main") -> None:
        self.program = Program(name, main_class)
        self._class_builders: list[ClassBuilder] = []

    def cls(self, name: str, super_name: str | None = "java/lang/Object") -> ClassBuilder:
        cb = ClassBuilder(name, super_name)
        self._class_builders.append(cb)
        return cb

    def build(self, verify: bool = True, typed: bool = False) -> Program:
        for cb in self._class_builders:
            self.program.add_class(cb.build())
        self._class_builders = []
        if verify:
            verify_program(self.program, typed=typed)
        return self.program
