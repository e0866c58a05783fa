"""The pure bytecodes, each described once.

Constants and ``ldc``, locals and ``iinc``, stack shuffles, arithmetic
and conversions, branches and switches, and array loads, stores and
``arraylength`` are *pure*: they run in the stepper's frame-local loop
with no handler (``interpreter.py``).  :data:`ROWS` describes each such
op, or each family of ops that differ only in what they compute, once:

- ``ops``: each op and the Python expression it computes, ``{e}`` in
  the fields below (empty when the op computes nothing of its own);
- ``pops``: the names of the operands it pops, bottom first, and
  ``push``: the expressions it pushes, bottom first;
- ``imm``: the values it reads from its instruction, each an
  expression over ``instr``;
- ``let``: the values it computes after the pops, in order;
- ``local``: what it stores in local ``instr.a``; ``{local}`` reads
  that local;
- ``array``: the ``VMError`` text (a format string over ``arr``) it
  raises when ``{arr}`` is not an array.  An op that also pops an
  ``{i}`` raises ``IndexError`` when ``{i}`` is out of bounds, and
  names the array's elements ``{data}``; ``element`` is what it stores
  at ``{data}[{i}]``;
- ``branch``: ``"goto"``, ``"if"`` (taken when ``{e}`` holds) or
  ``"switch"`` (to ``{target}``, one of its lets);
- ``raises``: whether ``{e}`` can raise on well-typed operands (a zero
  divisor, ``f2i`` of a NaN or an infinity);
- ``eas``: the addresses its interpreter template reads and writes, in
  order, as ``(base, offset)`` pairs.  ``"b"`` is the op's bytecode,
  ``"s"`` the stack slot at the pre-op depth (:func:`S` gives a slot's
  offset), ``"l"`` the local ``instr.a`` and ``"p"`` the constant-pool
  entry ``instr.a``; any other base is an expression over the row's
  names and ``{bc}``, the op's bytecode address;
- ``dyn``: its compiled chunk's dynamic addresses, in the same
  notation; the chunk's ``ea_plan`` places them among its frame
  addresses;
- ``vm``: its semantics needs the VM (``ldc`` reads the VM's string
  table), so the interpreter supplies it and no hot line holds it.

Names in braces are placeholders, which each consumer writes as its own
Python names.  Every op pops its operands before it computes, so an op
that raises leaves them popped.  At import one ``compile`` turns the
rows into the stepper's per-opcode tables (:data:`SEMS`, :data:`EAS`,
:data:`DYN`), the constant folder's (:data:`EVAL`) and the immediates'
getters ``lines.build`` binds (:data:`IMMS`); ``lines.build`` writes
each op of a hot line from its row through :func:`statements`.  Every
expression is inlined, so ``iadd`` runs no call; ``idiv``, ``irem``,
``fdiv`` and ``fcmp`` call :mod:`repro.vm.values`, which
``tests/test_pureops.py`` also holds the inlined expressions to.
"""

from __future__ import annotations

import builtins
import itertools
import re
from typing import NamedTuple

from ..isa.opcodes import N_OPCODES, Op
from ..native.layout import WORD_BYTES
from . import values
from .classloader import POOL_ENTRY_BYTES
from .objects import ARRAY_HEADER_BYTES, JArray


class VMError(Exception):
    """A runtime error the simulated program caused (bad cast, bounds...)."""


class Row(NamedTuple):
    """One op, or one family of ops (module docs)."""

    ops: dict
    pops: tuple = ()
    push: tuple = ()
    imm: dict = {}
    let: tuple = ()
    local: str | None = None
    array: str | None = None
    element: str | None = None
    branch: str | None = None
    raises: bool = False
    eas: tuple = ()
    dyn: tuple = ()
    vm: bool = False

    @property
    def raising(self) -> bool:
        """Whether an op of the row can raise on well-typed operands."""
        return self.raises or self.array is not None

    def reads_local(self, op) -> bool:
        """Whether ``op`` reads its local ``instr.a``."""
        return "{local}" in " ".join((self.ops[op], self.local or "",
                                      *self.push))


def _i32(expr: str) -> str:
    return f"(({expr}) + 2147483648 & 4294967295) - 2147483648"


_I8 = "(({v}) + 128 & 255) - 128"
_U16 = "({v}) & 65535"
_I16 = "(({v}) + 32768 & 65535) - 32768"


def S(k: int) -> tuple:
    """The stack slot ``k`` words above the op's pre-op depth."""
    return ("s", WORD_BYTES * k)


B, L, P = ("b", 0), ("l", 0), ("p", 0)
#: An array's length word and the element ``{i}``.
LENGTH = ("{arr}.addr", 8)
ELEMENT = ("{arr}.addr + {arr}.elem_bytes * {i}", ARRAY_HEADER_BYTES)


def _binary(ops: dict, **kw) -> Row:
    return Row(ops, pops=("x", "y"), push=("{e}",),
               eas=(B, S(-2), S(-1), S(-2)), **kw)


def _unary(ops: dict, **kw) -> Row:
    return Row(ops, pops=("v",), push=("{e}",), eas=(B, S(-1), S(-1)), **kw)


def _switch(op: Op, imm: dict, target: str, key: str, let=()) -> Row:
    # An interpreted switch reads the key's jump-table entry (a
    # lookupswitch's key stands for its index).
    return Row({op: ""}, pops=("v",), imm=imm, let=(*let, ("target", target)),
               branch="switch",
               eas=(B, S(-1), (f"{{bc}} + 4 * ({key} % 64)", 12)))


ROWS = (
    Row({Op.NOP: ""}, eas=(B,)),
    Row({Op.ICONST: ""}, imm={"k": "instr.a"}, push=("{k}",),
        eas=(B, S(0))),
    Row({Op.FCONST: ""}, imm={"k": "float(instr.a)"}, push=("{k}",),
        eas=(B, S(0))),
    Row({Op.ACONST_NULL: ""}, push=("None",), eas=(B, S(0))),
    Row({Op.LDC: ""}, eas=(B, P, S(0)), vm=True),
    Row(dict.fromkeys((Op.ILOAD, Op.FLOAD, Op.ALOAD), ""),
        push=("{local}",), eas=(B, L, S(0))),
    Row(dict.fromkeys((Op.ISTORE, Op.FSTORE, Op.ASTORE), ""), pops=("v",),
        local="{v}", eas=(B, S(-1), L)),
    Row({Op.IINC: _i32("{local} + {d}")}, imm={"d": "instr.b"},
        local="{e}", eas=(B, L, L)),
    Row({Op.POP: ""}, pops=("v",), eas=(B,)),
    Row({Op.DUP: ""}, pops=("v",), push=("{v}", "{v}"),
        eas=(B, S(-1), S(0))),
    Row({Op.DUP_X1: ""}, pops=("x", "y"), push=("{y}", "{x}", "{y}"),
        eas=(B, S(-1), S(-2), S(-2), S(-1), S(0))),
    Row({Op.SWAP: ""}, pops=("x", "y"), push=("{y}", "{x}"),
        eas=(B, S(-1), S(-2), S(-1), S(-2))),
    _binary({
        Op.IADD: _i32("{x} + {y}"),
        Op.ISUB: _i32("{x} - {y}"),
        Op.IMUL: _i32("{x} * {y}"),
        Op.ISHL: _i32("{x} << ({y} & 31)"),
        Op.ISHR: _i32("{x} >> ({y} & 31)"),
        Op.IUSHR: _i32("({x} & 4294967295) >> ({y} & 31)"),
        Op.IAND: _i32("{x} & {y}"),
        Op.IOR: _i32("{x} | {y}"),
        Op.IXOR: _i32("{x} ^ {y}"),
        Op.FADD: "{x} + {y}",
        Op.FSUB: "{x} - {y}",
        Op.FMUL: "{x} * {y}",
        Op.FDIV: "fdiv({x}, {y})",
        Op.FCMPL: "fcmp({x}, {y}, -1)",
        Op.FCMPG: "fcmp({x}, {y}, 1)",
    }),
    _binary({Op.IDIV: "idiv({x}, {y})", Op.IREM: "irem({x}, {y})"},
            raises=True),
    _unary({
        Op.INEG: _i32("-{v}"),
        Op.FNEG: "-{v}",
        Op.I2F: "float({v})",
        Op.I2B: _I8,
        Op.I2C: _U16,
        Op.I2S: _I16,
    }),
    _unary({Op.F2I: _i32("int({v})")}, raises=True),
    Row({
        Op.IFEQ: "{v} == 0",
        Op.IFNE: "{v} != 0",
        Op.IFLT: "{v} < 0",
        Op.IFGE: "{v} >= 0",
        Op.IFGT: "{v} > 0",
        Op.IFLE: "{v} <= 0",
        Op.IFNULL: "{v} is None",
        Op.IFNONNULL: "{v} is not None",
    }, pops=("v",), branch="if", eas=(B, S(-1))),
    Row({
        Op.IF_ICMPEQ: "{x} == {y}",
        Op.IF_ICMPNE: "{x} != {y}",
        Op.IF_ICMPLT: "{x} < {y}",
        Op.IF_ICMPGE: "{x} >= {y}",
        Op.IF_ICMPGT: "{x} > {y}",
        Op.IF_ICMPLE: "{x} <= {y}",
        Op.IF_ACMPEQ: "{x} is {y}",
        Op.IF_ACMPNE: "{x} is not {y}",
    }, pops=("x", "y"), branch="if", eas=(B, S(-2), S(-1))),
    Row({Op.GOTO: ""}, branch="goto", eas=(B,)),
    _switch(Op.TABLESWITCH,
            imm={"low": "instr.extra[0]", "targets": "instr.extra[1]",
                 "default": "instr.extra[2]"},
            let=(("index", "{v} - {low}"),),
            target="{targets}[{index}] if 0 <= {index} < len({targets}) "
                   "else {default}",
            key="{index}"),
    _switch(Op.LOOKUPSWITCH,
            imm={"table": "instr.extra[0]", "default": "instr.extra[1]"},
            target="{table}.get({v}, {default})", key="{v}"),
    Row({Op.ARRAYLENGTH: ""}, pops=("arr",), array="arraylength on non-array",
        push=("len({arr}.data)",), eas=(B, S(-1), LENGTH, S(-1)),
        dyn=(LENGTH,)),
    Row(dict.fromkeys((Op.IALOAD, Op.FALOAD, Op.AALOAD, Op.BALOAD, Op.CALOAD),
                      ""),
        pops=("arr", "i"), array="array load on {arr!r}",
        push=("{data}[{i}]",),
        eas=(B, S(-1), S(-2), LENGTH, ELEMENT, S(-2)),
        dyn=(LENGTH, ELEMENT)),
    Row({
        Op.IASTORE: _i32("{v}"),
        Op.FASTORE: "float({v})",
        Op.BASTORE: _I8,
        Op.CASTORE: _U16,
        Op.AASTORE: "{v}",
    }, pops=("arr", "i", "v"), array="array store on {arr!r}", element="{e}",
        eas=(B, S(-1), S(-2), S(-3), LENGTH, ELEMENT), dyn=(LENGTH, ELEMENT)),
)

#: Each opcode's row; None for an op with a full handler.
ROW: list = [None] * N_OPCODES
for _row in ROWS:
    for _op in _row.ops:
        assert ROW[_op] is None, _op
        ROW[_op] = _row

#: The generated functions' globals (a hot line's too).
GLOBALS = {"__builtins__": builtins, "JArray": JArray, "VMError": VMError,
           "idiv": values.idiv, "irem": values.irem, "fdiv": values.fdiv,
           "fcmp": values.fcmp}

_NAME = re.compile(r"\{(\w+)\}")
_BARE = re.compile(r"\{\w+\}|None")


def _names_in(expr: str) -> list[str]:
    """The placeholders ``expr`` reads."""
    return _NAME.findall(expr)


def ea_expr(base: str, off: int) -> str:
    """The expression of the address ``off`` bytes past ``base``."""
    return base if not off else (f"{base} + {off}" if off > 0
                                 else f"{base} - {-off}")


def statements(row: Row, e: str, names: dict, fresh) -> tuple:
    """The statements of one op of ``row``, whose expression is ``e``,
    over ``names``: the Python expression of each operand, immediate and
    (when the row reads it) ``local``.  ``fresh()`` names each value the
    statements bind; ``names`` gains the lets and ``data``.

    Returns ``(body, pushed, stored, test)``: the statements, the
    expressions the op pushes, the one it stores in its local (each a
    name, a constant or None) and a conditional branch's test."""

    def fmt(text: str) -> str:
        return text.replace("{e}", e).format_map(names)

    def bound(text: str) -> str:
        if _BARE.fullmatch(text):
            return fmt(text)
        name = fresh()
        body.append(f"{name} = {fmt(text)}")
        return name

    body = []
    if row.array is not None:
        arr = names["arr"]
        body += [f"if not isinstance({arr}, JArray):",
                 f"    raise VMError({row.array!r}.format(arr={arr}))"]
        if "i" in names:
            i = names["i"]
            data = names["data"] = fresh()
            body += [f"{data} = {arr}.data",
                     f"if not 0 <= {i} < len({data}):",
                     f"    {arr}.check({i})"]
    for name, expr in row.let:
        names[name] = bound(expr)
    pushed = [bound(expr.replace("{e}", e)) for expr in row.push]
    stored = None if row.local is None else bound(row.local.replace("{e}", e))
    if row.element is not None:
        body.append(f"{names['data']}[{names['i']}] = {fmt(row.element)}")
    return body, pushed, stored, fmt(e) if row.branch == "if" else None


def _sem(row: Row, e: str) -> list[str]:
    """The body of the stepper's ``sem(frame, instr)`` for one op: it
    updates the frame, and a goto or conditional branch returns whether
    it was taken."""
    out = ["stack = frame.stack"] if row.pops or row.push else []
    names = {name: name for name in (*row.pops, *row.imm)}
    names["local"] = "frame.locals[instr.a]"
    out += [f"{name} = {expr}" for name, expr in row.imm.items()]
    for name in reversed(row.pops):
        out.append(f"{name} = stack.pop()")
    count = itertools.count(1)
    body, pushed, stored, test = statements(row, e, names,
                                            lambda: f"_{next(count)}")
    out += body
    if stored is not None:
        out.append(f"frame.locals[instr.a] = {stored}")
    if len(pushed) == 1:
        out.append(f"stack.append({pushed[0]})")
    elif pushed:
        out.append(f"stack.extend(({', '.join(pushed)},))")
    if row.branch == "goto":
        out += ["frame.ip = instr.a", "return True"]
    elif row.branch == "if":
        out += [f"if {test}:", "    frame.ip = instr.a", "    return True",
                "return False"]
    elif row.branch == "switch":
        out.append(f"frame.ip = {names['target']}")
    return out or ["pass"]


#: How the stepper reads each fixed ea base (module docs).
_BASES = {"b": "frame.bc_addr + frame.method.bc_offsets[frame.ip - 1]",
          "s": f"frame.stack_addr + {WORD_BYTES} * len(stack)",
          "l": f"frame.locals_addr + {WORD_BYTES} * instr.a",
          "p": f"frame.mirror.pool_addr + {POOL_ENTRY_BYTES} * instr.a"}


def _addresses(row: Row, eas: tuple) -> list[str]:
    """The body of a function ``(frame, instr)`` returning ``eas``.  It
    runs after the fetch and before the op's ``sem``, so the pre-op
    stack holds the operands; an array op's returns ``()`` when its
    operand is not an array (the ``sem`` raises before anything is
    emitted)."""
    needed = {name for base, _ in eas for name in _names_in(base)}
    for name, expr in reversed(row.let):
        if name in needed:
            needed.update(_names_in(expr))
    fixed = {base for base, _ in eas if base in _BASES}
    if "bc" in needed:
        fixed.add("b")
    out = ["stack = frame.stack"] if "s" in fixed or needed else []
    n = len(row.pops)
    out += [f"{name} = stack[{k - n}]" for k, name in enumerate(row.pops)
            if name in needed]
    if row.array is not None:
        out += ["if not isinstance(arr, JArray):", "    return ()"]
    out += [f"{name} = {expr}" for name, expr in row.imm.items()
            if name in needed]
    names = {name: name for name in needed}
    names["bc"] = "b"
    out += [f"{name} = {expr.format_map(names)}" for name, expr in row.let
            if name in needed]
    out += [f"{base} = {_BASES[base]}" for base in sorted(fixed)]
    items = "".join(ea_expr(base.format_map(names), off) + ", "
                    for base, off in eas)
    return out + [f"return ({items})"]


def _evaluate(row: Row, e: str) -> tuple:
    """The parameters and body of ``e`` as a function of the names it
    reads: its operands, then its local, then its immediates."""
    reads = set(_names_in(e))
    params = [name for name in (*row.pops, "local", *row.imm) if name in reads]
    return ", ".join(params), [f"return {e.format_map({n: n for n in reads})}"]


def _compile() -> tuple:
    """The tables of generated functions, from one ``compile`` of every
    distinct function the rows make."""
    sources: dict = {}  # (params, body) -> function name

    def define(params: str, body: list) -> str:
        key = (params, tuple(body))
        if key not in sources:
            sources[key] = f"_f{len(sources)}"
        return sources[key]

    sems, eas, dyn, evals, imms = ([None] * N_OPCODES for _ in range(5))
    for row in ROWS:
        address = define("frame, instr", _addresses(row, row.eas))
        chunk = (define("frame, instr", _addresses(row, row.dyn))
                 if row.dyn else None)
        items = "".join(expr + ", " for expr in row.imm.values())
        getter = define("instr", [f"return ({items})"]) if row.imm else None
        for op, e in row.ops.items():
            eas[op], dyn[op], imms[op] = address, chunk, getter
            if not row.vm:
                sems[op] = define("frame, instr", _sem(row, e))
            if e:
                evals[op] = define(*_evaluate(row, e))
    source = "\n".join(
        f"def {name}({params}):\n" + "".join(f"    {text}\n" for text in body)
        for (params, body), name in sources.items())
    namespace = dict(GLOBALS)
    exec(compile(source, "<pureops>", "exec"), namespace)
    return tuple(
        [None if name is None else namespace[name] for name in table]
        for table in (sems, eas, dyn, evals, imms))


#: Per opcode, None for an op with a full handler (or, in :data:`SEMS`,
#: ``ldc``, or in :data:`DYN`, a chunk with no dynamic addresses):
#: ``sem(frame, instr)``; the interpreter template's eas and the
#: compiled chunk's dynamic addresses, each a function ``(frame,
#: instr)``; the op's expression as a function of the names it reads
#: (:func:`_evaluate`); and a function of ``instr`` returning the row's
#: immediates in order.
SEMS, EAS, DYN, EVAL, IMMS = _compile()
