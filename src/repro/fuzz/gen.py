"""Seeded random bytecode-program generator.

Programs are generated as a small statement/expression IR (``ProgramSpec``)
and *rendered* through :class:`repro.isa.builder.ProgramBuilder` into a
verified :class:`Program`.  A program carries no run-time state, so the
differential oracle runs one render under every execution config.

The grammar is validity-directed: statements are stack-neutral, every
local slot has one fixed type for the whole method, reference locals are
definitely initialized before use, divisors are forced non-zero
(``x | 1``), array indices are normalized into bounds
(``((i % L) + L) % L``), monitor enter/exit pairs are emitted around
nested blocks, and loops count a dedicated slot down to zero — so every
emitted program passes the structural *and* typed verifier and terminates
within a small, statically bounded fuel.  The verifier still runs on
every render (``build(verify=True, typed=True)``): it is the validity
filter of record, not an assumption.

The shapes intentionally mirror where runtime bugs live (see the lint
corpus): monitor balance across branches, dead stores before native
calls, escaping receivers under lock elision, deep-stack spills, switch
dispatch, inlinable tiny calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..isa.builder import MethodBuilder, ProgramBuilder
from ..isa.method import Program
from ..isa.opcodes import ArrayType

MAIN_CLASS = "Main"
DATA_CLASS = "FuzzData"

#: Statically bounded worst-case bytecode budget for any generated
#: program (loops are <= _MAX_TRIP iterations, nesting <= _MAX_DEPTH).
FUEL = 200_000

_MAX_TRIP = 6
_MAX_DEPTH = 2

_INT_BINOPS = ("iadd", "isub", "imul", "iand", "ior", "ixor",
               "ishl", "ishr", "iushr", "idiv", "irem")
_INT_UNOPS = ("ineg", "i2b", "i2c", "i2s")
_FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
_CMP2 = ("if_icmpeq", "if_icmpne", "if_icmplt", "if_icmpge",
         "if_icmpgt", "if_icmple")
_CMP1 = ("ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle")

_CORNER_INTS = (-(2 ** 31), 2 ** 31 - 1, -1, 0, 1, 31, 32, 255)


# ---------------------------------------------------------------------------
# expression IR (tuples: cheap, deep-copyable, deterministic)
#
#   int expr:   ("const", v) | ("local", slot) | ("bin", op, l, r)
#             | ("un", op, e) | ("arr", idx_expr) | ("getfield", name)
#             | ("getstatic", name) | ("call", helper, (args...))
#             | ("fcmp", op, fl, fr) | ("vcall", arg_expr)
#   float expr: ("fconst", v) | ("flocal", slot) | ("fbin", op, l, r)
#             | ("fneg", e) | ("i2f", int_expr) | ("fgetfield", name)
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class; subclasses are stack-neutral statements."""

    def blocks(self) -> list[list["Stmt"]]:
        """Nested statement blocks (for the minimizer)."""
        return []


@dataclass
class SetInt(Stmt):
    slot: int
    expr: tuple


@dataclass
class SetFloat(Stmt):
    slot: int
    expr: tuple


@dataclass
class SetArr(Stmt):
    index: tuple
    value: tuple


@dataclass
class PutStatic(Stmt):
    name: str
    expr: tuple


@dataclass
class PutField(Stmt):
    ref_slot: int
    name: str
    expr: tuple


@dataclass
class Print(Stmt):
    expr: tuple


@dataclass
class EscapeRef(Stmt):
    """Store a Data ref into a static field: the receiver escapes."""
    ref_slot: int


@dataclass
class NewData(Stmt):
    """Reassign a ref local to a fresh FuzzData instance."""
    ref_slot: int


@dataclass
class VirtualCall(Stmt):
    """dst = data.bump(arg) — a tiny, inlinable virtual call."""
    ref_slot: int
    dst: int
    arg: tuple


@dataclass
class If(Stmt):
    kind: str          # "cmp2" | "cmp1" | "acmp"
    op: str
    left: tuple | None
    right: tuple | None
    then: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)

    def blocks(self):
        return [self.then, self.orelse]


@dataclass
class Loop(Stmt):
    counter: int       # dedicated int slot, never touched by the body
    trip: int
    body: list[Stmt] = field(default_factory=list)

    def blocks(self):
        return [self.body]


@dataclass
class Sync(Stmt):
    ref_slot: int
    body: list[Stmt] = field(default_factory=list)

    def blocks(self):
        return [self.body]


@dataclass
class Switch(Stmt):
    expr: tuple
    cases: list[list[Stmt]] = field(default_factory=list)
    default: list[Stmt] = field(default_factory=list)

    def blocks(self):
        return list(self.cases) + [self.default]


@dataclass
class HelperSpec:
    name: str
    argc: int
    expr: tuple        # int expr over ("local", arg_slot) leaves


@dataclass
class WorkerSpec:
    """One ``java/lang/Thread`` subclass spawned ``copies`` times.

    Worker bodies touch only worker-private state (own ints, own array,
    own FuzzData) plus the shared object *as a lock*, and fold their
    result into ``Main.acc`` with a lock-guarded XOR — commutative, so
    every schedule and every execution config prints the same epilogue.
    """

    cls_name: str
    copies: int
    n_int: int
    array_len: int
    int_inits: tuple
    body: list[Stmt]


class _WorkerLayout:
    """Slot layout for a worker's ``run`` method (slot 0 = ``this``)."""

    n_counters = _MAX_DEPTH
    n_float = 0
    float_base = 0     # workers have no float locals

    def __init__(self, n_int: int, array_len: int) -> None:
        self.n_int = n_int
        self.array_len = array_len

    @property
    def ref_slot(self) -> int:          # the shared FuzzData (as a lock)
        return 1

    @property
    def ref2_slot(self) -> int:         # worker-private FuzzData
        return 2

    @property
    def arr_slot(self) -> int:
        return 3

    @property
    def int_base(self) -> int:
        return 4

    @property
    def counter_base(self) -> int:
        return self.int_base + self.n_int

    @property
    def lock_base(self) -> int:
        return self.counter_base + self.n_counters


@dataclass
class ProgramSpec:
    """Everything needed to deterministically re-render one program."""

    seed: int
    n_int: int
    n_float: int
    array_len: int
    int_inits: tuple
    float_inits: tuple
    helpers: list[HelperSpec]
    body: list[Stmt]
    n_counters: int = _MAX_DEPTH
    workers: list[WorkerSpec] = field(default_factory=list)

    # -- slot layout (main) -------------------------------------------------
    int_base = 0

    @property
    def float_base(self) -> int:
        return self.n_int

    @property
    def ref_slot(self) -> int:          # primary FuzzData local
        return self.n_int + self.n_float

    @property
    def ref2_slot(self) -> int:         # reassignable FuzzData local
        return self.ref_slot + 1

    @property
    def arr_slot(self) -> int:
        return self.ref_slot + 2

    @property
    def counter_base(self) -> int:
        return self.ref_slot + 3

    @property
    def lock_base(self) -> int:
        # One reserved slot per sync-nesting level: the locked ref is
        # snapshotted here so monitorexit always unlocks the object
        # monitorenter locked, even if the body reassigns the local.
        return self.counter_base + self.n_counters

    @property
    def worker_base(self) -> int:       # one slot per spawned worker
        return self.lock_base + self.n_counters

    def all_blocks(self) -> list[list[Stmt]]:
        """Every statement block in the spec, outermost first."""
        found: list[list[Stmt]] = []

        def walk(block: list[Stmt]) -> None:
            found.append(block)
            for stmt in block:
                for nested in stmt.blocks():
                    walk(nested)

        walk(self.body)
        for w in self.workers:
            walk(w.body)
        return found

    def size(self) -> int:
        """Total statement count (the minimizer's progress metric)."""
        return sum(len(b) for b in self.all_blocks())

    # -- rendering ----------------------------------------------------------
    def render(self, verify: bool = True) -> Program:
        """A fresh, verified :class:`Program` for this spec."""
        pb = ProgramBuilder(f"fuzz-{self.seed}", main_class=MAIN_CLASS)

        main_cb = pb.cls(MAIN_CLASS)
        main_cb.static_field("acc", "int")
        main_cb.static_field("shared", "ref")

        data_cb = pb.cls(DATA_CLASS)
        data_cb.field("f0", "int")
        data_cb.field("f1", "int")
        data_cb.field("g0", "float")
        init = data_cb.method("<init>")
        init.aload(0).iconst(7).putfield(DATA_CLASS, "f0").return_()
        bump = data_cb.method("bump", argc=1, returns=True)
        bump.aload(0).aload(0).getfield(DATA_CLASS, "f0")
        bump.iload(1).iadd().putfield(DATA_CLASS, "f0")
        bump.aload(0).getfield(DATA_CLASS, "f0").ireturn()

        for helper in self.helpers:
            hb = main_cb.method(helper.name, argc=helper.argc,
                                returns=True, static=True)
            _Emitter(self, hb).expr(helper.expr)
            hb.ireturn()

        for w in self.workers:
            self._render_worker(pb, w)

        mb = main_cb.method("main", static=True)
        em = _Emitter(self, mb)
        em.prologue()
        for stmt in self.body:
            em.stmt(stmt)
        if self.workers:
            self._spawn_and_join(mb)
        em.epilogue()
        mb.return_()

        return pb.build(verify=verify, typed=verify)

    def _render_worker(self, pb: ProgramBuilder, w: WorkerSpec) -> None:
        layout = _WorkerLayout(w.n_int, w.array_len)
        cb = pb.cls(w.cls_name, super_name="java/lang/Thread")
        cb.method("<init>").return_()
        mb = cb.method("run")
        # prologue: pick up the published shared object, build private state
        mb.getstatic(MAIN_CLASS, "shared").checkcast(DATA_CLASS) \
            .astore(layout.ref_slot)
        mb.new(DATA_CLASS).dup().invokespecial(DATA_CLASS, "<init>", 0) \
            .astore(layout.ref2_slot)
        mb.iconst(w.array_len).newarray(ArrayType.INT).astore(layout.arr_slot)
        for i, v in enumerate(w.int_inits):
            mb.iconst(v).istore(layout.int_base + i)
        for k in range(layout.n_counters):
            mb.iconst(0).istore(layout.counter_base + k)
        em = _Emitter(layout, mb)
        for stmt in w.body:
            em.stmt(stmt)
        # tail: fold private state into Main.acc under the shared lock.
        # XOR commutes, so the final acc is schedule-independent.
        lock = layout.lock_base
        mb.aload(layout.ref_slot).astore(lock)
        mb.aload(lock).monitorenter()
        mb.getstatic(MAIN_CLASS, "acc")
        for i in range(w.n_int):
            mb.iload(layout.int_base + i).ixor()
        mb.aload(layout.arr_slot).iconst(0).iaload().ixor()
        mb.putstatic(MAIN_CLASS, "acc")
        mb.aload(lock).monitorexit()
        mb.return_()

    def _spawn_and_join(self, mb: MethodBuilder) -> None:
        """Publish the shared object, start every worker, join them all."""
        mb.aload(self.ref_slot).putstatic(MAIN_CLASS, "shared")
        slot = self.worker_base
        for w in self.workers:
            for _ in range(w.copies):
                mb.new(w.cls_name).dup() \
                    .invokespecial(w.cls_name, "<init>", 0).astore(slot)
                mb.aload(slot) \
                    .invokevirtual("java/lang/Thread", "start", 0, False)
                slot += 1
        slot = self.worker_base
        for w in self.workers:
            for _ in range(w.copies):
                mb.aload(slot) \
                    .invokevirtual("java/lang/Thread", "join", 0, False)
                slot += 1


class _Emitter:
    """Renders IR expressions/statements through a MethodBuilder."""

    def __init__(self, spec: ProgramSpec, mb: MethodBuilder) -> None:
        self.spec = spec
        self.mb = mb
        self.sync_depth = 0

    # -- method skeleton ----------------------------------------------------
    def prologue(self) -> None:
        """Definitely-initialize every local the body may touch."""
        spec, m = self.spec, self.mb
        for i, v in enumerate(spec.int_inits):
            m.iconst(v).istore(i)
        for i, v in enumerate(spec.float_inits):
            m.fconst(v).fstore(spec.float_base + i)
        for slot in (spec.ref_slot, spec.ref2_slot):
            m.new(DATA_CLASS).dup()
            m.invokespecial(DATA_CLASS, "<init>", 0)
            m.astore(slot)
        m.iconst(spec.array_len).newarray(ArrayType.INT).astore(spec.arr_slot)
        for k in range(spec.n_counters):
            m.iconst(0).istore(spec.counter_base + k)

    def epilogue(self) -> None:
        """Print the final machine state so divergences become visible."""
        spec = self.spec
        for i in range(spec.n_int):
            self._println(("local", i))
        for i in range(spec.n_float):
            self._println(("fcmp", "fcmpl", ("flocal", i), ("fconst", 0.5)))
        self._println(("getstatic", "acc"))
        self._println(("getfield", "f0"))
        self._println(("arr", ("const", 0)))
        self._println(("arr", ("const", spec.array_len - 1)))

    # -- statements ---------------------------------------------------------
    def stmt(self, s: Stmt) -> None:
        spec, m = self.spec, self.mb
        if isinstance(s, SetInt):
            self.expr(s.expr)
            m.istore(spec.int_base + s.slot)
        elif isinstance(s, SetFloat):
            self.fexpr(s.expr)
            m.fstore(spec.float_base + s.slot)
        elif isinstance(s, SetArr):
            m.aload(spec.arr_slot)
            self._index(s.index)
            self.expr(s.value)
            m.iastore()
        elif isinstance(s, PutStatic):
            self.expr(s.expr)
            m.putstatic(MAIN_CLASS, s.name)
        elif isinstance(s, PutField):
            m.aload(s.ref_slot)
            self.expr(s.expr)
            m.putfield(DATA_CLASS, s.name)
        elif isinstance(s, Print):
            self._println(s.expr)
        elif isinstance(s, EscapeRef):
            m.aload(s.ref_slot)
            m.putstatic(MAIN_CLASS, "shared")
        elif isinstance(s, NewData):
            m.new(DATA_CLASS).dup()
            m.invokespecial(DATA_CLASS, "<init>", 0)
            m.astore(s.ref_slot)
        elif isinstance(s, VirtualCall):
            m.aload(s.ref_slot)
            self.expr(s.arg)
            m.invokevirtual(DATA_CLASS, "bump", 1, True)
            m.istore(spec.int_base + s.dst)
        elif isinstance(s, If):
            self._if(s)
        elif isinstance(s, Loop):
            self._loop(s)
        elif isinstance(s, Sync):
            self._sync(s)
        elif isinstance(s, Switch):
            self._switch(s)
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"unknown statement {s!r}")

    def _if(self, s: If) -> None:
        m = self.mb
        else_lbl, end_lbl = m.new_label("else"), m.new_label("endif")
        if s.kind == "cmp2":
            self.expr(s.left)
            self.expr(s.right)
            # branch *to else* on the inverse: emitted op falls through
            # into then when it does not take — generate the op directly
            getattr(m, s.op)(else_lbl)
        elif s.kind == "cmp1":
            self.expr(s.left)
            getattr(m, s.op)(else_lbl)
        else:  # "acmp": primary ref vs the (possibly null) shared static
            m.aload(self.spec.ref_slot)
            m.getstatic(MAIN_CLASS, "shared")
            getattr(m, s.op)(else_lbl)
        for inner in s.then:
            self.stmt(inner)
        m.goto(end_lbl)
        m.bind(else_lbl)
        for inner in s.orelse:
            self.stmt(inner)
        m.bind(end_lbl)

    def _loop(self, s: Loop) -> None:
        m = self.mb
        counter = self.spec.counter_base + s.counter
        top, end = m.new_label("loop"), m.new_label("endloop")
        m.iconst(s.trip).istore(counter)
        m.bind(top)
        m.iload(counter).ifle(end)
        for inner in s.body:
            self.stmt(inner)
        m.iinc(counter, -1)
        m.goto(top)
        m.bind(end)

    def _sync(self, s: Sync) -> None:
        m = self.mb
        lock = self.spec.lock_base + self.sync_depth
        m.aload(s.ref_slot).astore(lock)
        m.aload(lock).monitorenter()
        self.sync_depth += 1
        for inner in s.body:
            self.stmt(inner)
        self.sync_depth -= 1
        m.aload(lock).monitorexit()

    def _switch(self, s: Switch) -> None:
        m = self.mb
        n = len(s.cases)
        self.expr(s.expr)
        self._normalize(n)
        labels = [m.new_label(f"case{i}") for i in range(n)]
        default = m.new_label("default")
        end = m.new_label("endswitch")
        m.tableswitch(0, labels, default)
        for label, block in zip(labels, s.cases):
            m.bind(label)
            for inner in block:
                self.stmt(inner)
            m.goto(end)
        m.bind(default)
        for inner in s.default:
            self.stmt(inner)
        m.bind(end)

    # -- expressions --------------------------------------------------------
    def expr(self, e: tuple) -> None:
        """Emit code leaving exactly one int on the operand stack."""
        m = self.mb
        kind = e[0]
        if kind == "const":
            m.iconst(e[1])
        elif kind == "local":
            m.iload(self.spec.int_base + e[1])
        elif kind == "bin":
            _, op, left, right = e
            self.expr(left)
            self.expr(right)
            if op in ("idiv", "irem"):
                m.iconst(1).ior()      # force a non-zero divisor
            getattr(m, op)()
        elif kind == "un":
            self.expr(e[2])
            getattr(m, e[1])()
        elif kind == "arr":
            m.aload(self.spec.arr_slot)
            self._index(e[1])
            m.iaload()
        elif kind == "getfield":
            m.aload(self.spec.ref_slot)
            m.getfield(DATA_CLASS, e[1])
        elif kind == "getstatic":
            m.getstatic(MAIN_CLASS, e[1])
        elif kind == "call":
            _, helper, args = e
            for arg in args:
                self.expr(arg)
            m.invokestatic(MAIN_CLASS, helper, len(args), True)
        elif kind == "fcmp":
            _, op, fl, fr = e
            self.fexpr(fl)
            self.fexpr(fr)
            getattr(m, op)()
        elif kind == "vcall":
            m.aload(self.spec.ref2_slot)
            self.expr(e[1])
            m.invokevirtual(DATA_CLASS, "bump", 1, True)
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"unknown int expr {e!r}")

    def fexpr(self, e: tuple) -> None:
        """Emit code leaving exactly one float on the operand stack."""
        m = self.mb
        kind = e[0]
        if kind == "fconst":
            m.fconst(e[1])
        elif kind == "flocal":
            m.fload(self.spec.float_base + e[1])
        elif kind == "fbin":
            _, op, left, right = e
            self.fexpr(left)
            self.fexpr(right)
            getattr(m, op)()
        elif kind == "fneg":
            self.fexpr(e[1])
            m.fneg()
        elif kind == "i2f":
            self.expr(e[1])
            m.i2f()
        elif kind == "fgetfield":
            m.aload(self.spec.ref_slot)
            m.getfield(DATA_CLASS, e[1])
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"unknown float expr {e!r}")

    # -- shared fragments ---------------------------------------------------
    def _index(self, e: tuple) -> None:
        """Emit an int expr normalized into [0, array_len)."""
        self.expr(e)
        self._normalize(self.spec.array_len)

    def _normalize(self, n: int) -> None:
        """TOS <- ((TOS % n) + n) % n."""
        m = self.mb
        m.iconst(n).irem().iconst(n).iadd().iconst(n).irem()

    def _println(self, e: tuple) -> None:
        m = self.mb
        m.getstatic("java/lang/System", "out")
        self.expr(e)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

class _Gen:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.n_int = self.rng.randint(3, 5)
        self.n_float = self.rng.randint(1, 2)
        self.array_len = self.rng.randint(4, 8)
        self.helpers = self._gen_helpers()

    # -- helpers ------------------------------------------------------------
    def _gen_helpers(self) -> list[HelperSpec]:
        helpers = []
        for i in range(self.rng.randint(0, 3)):
            argc = self.rng.randint(1, 2)
            leaves = [("local", k) for k in range(argc)]
            helpers.append(HelperSpec(
                name=f"h{i}", argc=argc,
                expr=self._helper_expr(leaves, depth=2),
            ))
        return helpers

    def _helper_expr(self, leaves, depth) -> tuple:
        if depth == 0 or self.rng.random() < 0.3:
            if self.rng.random() < 0.5:
                return self.rng.choice(leaves)
            return ("const", self._int_const())
        op = self.rng.choice(_INT_BINOPS)
        return ("bin", op,
                self._helper_expr(leaves, depth - 1),
                self._helper_expr(leaves, depth - 1))

    # -- int / float constants ---------------------------------------------
    def _int_const(self) -> int:
        if self.rng.random() < 0.12:
            return self.rng.choice(_CORNER_INTS)
        return self.rng.randint(-100, 100)

    def _float_const(self) -> float:
        return round(self.rng.uniform(-100.0, 100.0), 3)

    # -- expressions --------------------------------------------------------
    def iexpr(self, depth: int = 3) -> tuple:
        rng = self.rng
        if depth == 0:
            if rng.random() < 0.5:
                return ("const", self._int_const())
            return ("local", rng.randrange(self.n_int))
        roll = rng.random()
        if roll < 0.28:
            return ("const", self._int_const()) if rng.random() < 0.5 \
                else ("local", rng.randrange(self.n_int))
        if roll < 0.62:
            return ("bin", rng.choice(_INT_BINOPS),
                    self.iexpr(depth - 1), self.iexpr(depth - 1))
        if roll < 0.70:
            return ("un", rng.choice(_INT_UNOPS), self.iexpr(depth - 1))
        if roll < 0.78:
            return ("arr", self.iexpr(depth - 1))
        if roll < 0.84:
            return ("getfield", rng.choice(("f0", "f1")))
        if roll < 0.88:
            return ("getstatic", "acc")
        if roll < 0.93 and self.helpers:
            helper = rng.choice(self.helpers)
            return ("call", helper.name,
                    tuple(self.iexpr(depth - 1) for _ in range(helper.argc)))
        if roll < 0.97 and self.n_float:
            return ("fcmp", rng.choice(("fcmpl", "fcmpg")),
                    self.fexpr(depth - 1), self.fexpr(depth - 1))
        return ("vcall", self.iexpr(depth - 1))

    def fexpr(self, depth: int = 2) -> tuple:
        rng = self.rng
        if depth == 0:
            if self.n_float and rng.random() < 0.5:
                return ("flocal", rng.randrange(self.n_float))
            return ("fconst", self._float_const())
        roll = rng.random()
        if roll < 0.30:
            return ("fconst", self._float_const())
        if roll < 0.50 and self.n_float:
            return ("flocal", rng.randrange(self.n_float))
        if roll < 0.80:
            return ("fbin", rng.choice(_FLOAT_BINOPS),
                    self.fexpr(depth - 1), self.fexpr(depth - 1))
        if roll < 0.88:
            return ("fneg", self.fexpr(depth - 1))
        if roll < 0.95:
            return ("i2f", self.iexpr(depth - 1))
        return ("fgetfield", "g0")

    # -- statements ---------------------------------------------------------
    def block(self, n: int, depth: int) -> list[Stmt]:
        return [self.stmt(depth) for _ in range(n)]

    def stmt(self, depth: int) -> Stmt:
        compound_ok = depth < _MAX_DEPTH
        weights = [
            ("set_int", 5), ("set_arr", 3), ("set_float", 2),
            ("put_field", 2), ("put_static", 2), ("print", 2),
            ("vcall", 2), ("new_data", 1), ("escape", 1),
            ("if", 4 if compound_ok else 0),
            ("loop", 3 if compound_ok else 0),
            ("sync", 2 if compound_ok else 0),
            ("switch", 1 if compound_ok else 0),
        ]
        return self._dispatch(weights, depth)

    def _dispatch(self, weights, depth: int) -> Stmt:
        total = sum(w for _, w in weights)
        pick = self.rng.randrange(total)
        for name, w in weights:
            pick -= w
            if pick < 0:
                break
        return getattr(self, f"_stmt_{name}")(depth)

    def _stmt_set_int(self, depth) -> Stmt:
        return SetInt(self.rng.randrange(self.n_int), self.iexpr())

    def _stmt_set_float(self, depth) -> Stmt:
        return SetFloat(self.rng.randrange(self.n_float), self.fexpr())

    def _stmt_set_arr(self, depth) -> Stmt:
        return SetArr(self.iexpr(2), self.iexpr(2))

    def _stmt_put_static(self, depth) -> Stmt:
        return PutStatic("acc", self.iexpr())

    def _stmt_put_field(self, depth) -> Stmt:
        slot = self._ref_slot()
        return PutField(slot, self.rng.choice(("f0", "f1")), self.iexpr(2))

    def _stmt_print(self, depth) -> Stmt:
        return Print(self.iexpr(2))

    def _stmt_vcall(self, depth) -> Stmt:
        return VirtualCall(self._ref_slot(),
                           self.rng.randrange(self.n_int), self.iexpr(2))

    def _stmt_new_data(self, depth) -> Stmt:
        return NewData(self._spec_stub().ref2_slot)

    def _stmt_escape(self, depth) -> Stmt:
        return EscapeRef(self._ref_slot())

    def _stmt_if(self, depth) -> Stmt:
        rng = self.rng
        roll = rng.random()
        if roll < 0.6:
            s = If("cmp2", rng.choice(_CMP2), self.iexpr(2), self.iexpr(2))
        elif roll < 0.9:
            s = If("cmp1", rng.choice(_CMP1), self.iexpr(2), None)
        else:
            s = If("acmp", rng.choice(("if_acmpeq", "if_acmpne")), None, None)
        s.then = self.block(rng.randint(1, 3), depth + 1)
        if rng.random() < 0.7:
            s.orelse = self.block(rng.randint(1, 2), depth + 1)
        return s

    def _stmt_loop(self, depth) -> Stmt:
        return Loop(counter=depth, trip=self.rng.randint(1, _MAX_TRIP),
                    body=self.block(self.rng.randint(1, 3), depth + 1))

    def _stmt_sync(self, depth) -> Stmt:
        return Sync(self._ref_slot(),
                    body=self.block(self.rng.randint(1, 3), depth + 1))

    def _stmt_switch(self, depth) -> Stmt:
        n = self.rng.randint(2, 3)
        return Switch(self.iexpr(2),
                      cases=[self.block(self.rng.randint(1, 2), depth + 1)
                             for _ in range(n)],
                      default=self.block(1, depth + 1))

    # -- plumbing -----------------------------------------------------------
    def _spec_stub(self) -> ProgramSpec:
        """Slot arithmetic needs the layout; sizes are already fixed."""
        return ProgramSpec(self.seed, self.n_int, self.n_float,
                           self.array_len, (), (), [], [])

    def _ref_slot(self) -> int:
        stub = self._spec_stub()
        return stub.ref_slot if self.rng.random() < 0.5 else stub.ref2_slot

    def generate(self) -> ProgramSpec:
        body = self.block(self.rng.randint(6, 14), depth=0)
        return ProgramSpec(
            seed=self.seed,
            n_int=self.n_int,
            n_float=self.n_float,
            array_len=self.array_len,
            int_inits=tuple(self._int_const() for _ in range(self.n_int)),
            float_inits=tuple(self._float_const()
                              for _ in range(self.n_float)),
            helpers=self.helpers,
            body=body,
        )


class _WorkerGen(_Gen):
    """Restricted generator for worker bodies.

    No prints (output order is schedule-dependent), no reads or writes
    of shared mutable state (``Main.acc``, the shared FuzzData's
    fields), no floats.  Workers may still *lock* the shared object
    (``Sync`` on the shared slot), so generated programs exercise real
    cross-thread lock contention with deterministic observables.
    """

    def __init__(self, seed: int, helpers, layout: _WorkerLayout) -> None:
        super().__init__(seed)
        self.helpers = list(helpers)
        self.layout = layout
        self.n_int = layout.n_int
        self.n_float = 0
        self.array_len = layout.array_len

    def iexpr(self, depth: int = 3) -> tuple:
        rng = self.rng
        if depth == 0:
            if rng.random() < 0.5:
                return ("const", self._int_const())
            return ("local", rng.randrange(self.n_int))
        roll = rng.random()
        if roll < 0.30:
            return ("const", self._int_const()) if rng.random() < 0.5 \
                else ("local", rng.randrange(self.n_int))
        if roll < 0.66:
            return ("bin", rng.choice(_INT_BINOPS),
                    self.iexpr(depth - 1), self.iexpr(depth - 1))
        if roll < 0.74:
            return ("un", rng.choice(_INT_UNOPS), self.iexpr(depth - 1))
        if roll < 0.84:
            return ("arr", self.iexpr(depth - 1))
        if roll < 0.92 and self.helpers:
            helper = rng.choice(self.helpers)
            return ("call", helper.name,
                    tuple(self.iexpr(depth - 1) for _ in range(helper.argc)))
        return ("vcall", self.iexpr(depth - 1))

    def stmt(self, depth: int) -> Stmt:
        compound_ok = depth < _MAX_DEPTH
        weights = [
            ("set_int", 5), ("set_arr", 3), ("put_field", 2),
            ("vcall", 2), ("new_data", 1),
            ("if", 4 if compound_ok else 0),
            ("loop", 3 if compound_ok else 0),
            ("sync", 2 if compound_ok else 0),
            ("switch", 1 if compound_ok else 0),
        ]
        return self._dispatch(weights, depth)

    # private-state statements target the worker's own FuzzData only
    def _stmt_put_field(self, depth) -> Stmt:
        return PutField(self.layout.ref2_slot,
                        self.rng.choice(("f0", "f1")), self.iexpr(2))

    def _stmt_vcall(self, depth) -> Stmt:
        return VirtualCall(self.layout.ref2_slot,
                           self.rng.randrange(self.n_int), self.iexpr(2))

    def _stmt_new_data(self, depth) -> Stmt:
        return NewData(self.layout.ref2_slot)

    def _stmt_if(self, depth) -> Stmt:
        rng = self.rng
        if rng.random() < 0.7:
            s = If("cmp2", rng.choice(_CMP2), self.iexpr(2), self.iexpr(2))
        else:
            s = If("cmp1", rng.choice(_CMP1), self.iexpr(2), None)
        s.then = self.block(rng.randint(1, 3), depth + 1)
        if rng.random() < 0.7:
            s.orelse = self.block(rng.randint(1, 2), depth + 1)
        return s

    def _ref_slot(self) -> int:
        # lock either the shared object or the private one
        return (self.layout.ref_slot if self.rng.random() < 0.5
                else self.layout.ref2_slot)


def gen_program(seed: int) -> ProgramSpec:
    """Deterministically generate one program spec from ``seed``."""
    return _Gen(seed).generate()


def gen_mt_program(seed: int) -> ProgramSpec:
    """A multithreaded spec: ``gen_program(seed)`` plus worker threads.

    The single-threaded part is byte-identical to ``gen_program(seed)``;
    workers are appended from an independent random stream, spawned
    after the main body, and joined before the epilogue prints.
    """
    spec = gen_program(seed)
    rng = random.Random(seed ^ 0x5DEECE66D)
    for wi in range(rng.randint(1, 2)):
        wseed = seed * 31 + wi + 1
        layout = _WorkerLayout(n_int=rng.randint(2, 4),
                               array_len=rng.randint(4, 8))
        wg = _WorkerGen(wseed, spec.helpers, layout)
        spec.workers.append(WorkerSpec(
            cls_name=f"Worker{wi}",
            copies=rng.randint(1, 2),
            n_int=layout.n_int,
            array_len=layout.array_len,
            int_inits=tuple(wg._int_const()
                            for _ in range(layout.n_int)),
            body=wg.block(rng.randint(3, 8), depth=0),
        ))
    return spec
