r"""Typed bytecode verification: per-slot/per-local type inference.

The structural verifier (`isa.verifier`) proves stack *depths*; this
pass proves stack *types*.  Method signatures in this ISA carry no
parameter or return types (name + arity only), so parameters enter as
the wildcard ``any`` — the receiver slot of instance methods gets the
precise declaring-class reference type — and precision grows from
constants, field types (fields *are* typed) and allocation sites.

Type lattice (join semilattice, ``conflict`` on top)::

              conflict
         /    |     |     \
      int  float   any     |
                  / | \    |
            (ref C) (arr t) null       uninit -- joins to conflict

``any`` is the sound wildcard for untyped parameters and invoke
results: it satisfies every operand check.  ``conflict`` is the join
of incompatible types; *consuming* it is an error (``RT001``/``RT003``),
merely carrying it across a join is not — matching the JVM's
``unusable`` treatment of dead locals.

The fixpoint is solved with the generic framework; findings are
collected in a single post-fixpoint reporting pass so iteration order
cannot duplicate or hide diagnostics.  Per-branch-target entry frames
are exposed as JVM-style stack maps on ``method.stack_maps``.
"""

from __future__ import annotations

from ...isa.method import Method, Program
from ...isa.opcodes import Op, OPINFO, ArrayType
from ...isa.pool import ClassRef, FieldRef, FloatConst, MethodRef, StringConst
from ...isa.verifier import VerifyError
from .findings import Finding
from .solver import DataflowProblem, Solution, solve

# -- the type lattice ---------------------------------------------------------

INT = "int"
FLOAT = "float"
NULL = "null"
ANY = "any"
CONFLICT = "conflict"
UNINIT = "uninit"

_ARRAY_ELEM = {
    ArrayType.BOOLEAN: "bool",
    ArrayType.CHAR: "char",
    ArrayType.FLOAT: "float",
    ArrayType.BYTE: "byte",
    ArrayType.SHORT: "short",
    ArrayType.INT: "int",
}

#: which array element kinds each typed array op accepts
_ARRAY_OP_ELEMS = {
    Op.IALOAD: ("int", "short"), Op.IASTORE: ("int", "short"),
    Op.FALOAD: ("float",), Op.FASTORE: ("float",),
    Op.AALOAD: ("ref",), Op.AASTORE: ("ref",),
    Op.BALOAD: ("byte", "bool"), Op.BASTORE: ("byte", "bool"),
    Op.CALOAD: ("char",), Op.CASTORE: ("char",),
}

_ARRAY_LOAD_RESULT = {
    Op.IALOAD: INT, Op.FALOAD: FLOAT, Op.AALOAD: ("ref", None),
    Op.BALOAD: INT, Op.CALOAD: INT,
}


def ref(name: str | None = None):
    return ("ref", name)


def arr(elem: str):
    return ("arr", elem)


def is_reflike(t) -> bool:
    return t in (NULL, ANY) or (isinstance(t, tuple) and t[0] in ("ref", "arr"))


def is_intlike(t) -> bool:
    return t in (INT, ANY)


def is_floatlike(t) -> bool:
    return t in (FLOAT, ANY)


def join_type(a, b):
    if a == b:
        return a
    if a is None:
        return b
    if b is None:
        return a
    if CONFLICT in (a, b) or UNINIT in (a, b):
        return CONFLICT
    if ANY in (a, b):
        # the wildcard absorbs anything it could legally be
        other = b if a == ANY else a
        return ANY if other in (INT, FLOAT) or is_reflike(other) else CONFLICT
    if is_reflike(a) and is_reflike(b):
        if a == NULL:
            return b
        if b == NULL:
            return a
        # distinct ref/arr types: common supertype is the plain object ref
        return ref(None)
    return CONFLICT


# -- the dataflow problem -----------------------------------------------------

def _entry_locals(method: Method):
    locals_ = [ANY] * method.max_locals
    for i in range(method.n_param_slots, method.max_locals):
        locals_[i] = UNINIT
    if not method.is_static and method.max_locals > 0 and method.jclass:
        locals_[0] = ref(method.jclass.name)
    return tuple(locals_)


#: Field declaration type -> lattice type.
_FIELD_TYPES = {"int": INT, "byte": INT, "char": INT, "float": FLOAT,
                "ref": ref(None)}


def _resolve_field(program: Program | None, fref: FieldRef):
    """Declared lattice type of a field, or ANY when unresolvable."""
    owner = (program.field_owner(fref.class_name, fref.field_name)
             if program is not None else None)
    if owner is None:
        return ANY
    return next(_FIELD_TYPES[f.ftype] for f in owner.fields
                if f.name == fref.field_name)


class TypeProblem(DataflowProblem):
    """Forward type inference.  States are ``(stack, locals)`` tuples.

    ``transfer`` optionally reports findings through ``self.report``;
    during fixpoint iteration it is ``None`` so repeated visits stay
    silent, and the post-pass re-runs transfers with reporting on.
    """

    direction = "forward"

    def __init__(self, program: Program | None = None) -> None:
        self.program = program
        self.report = None   # callable(code, idx, message) or None

    def boundary(self, method: Method):
        return ((), _entry_locals(method))

    def bottom(self, method: Method):
        return None   # "no path reaches here yet"; join treats None as identity

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        stack_a, locals_a = a
        stack_b, locals_b = b
        # depths agree (structural verifier ran first)
        stack = tuple(join_type(x, y) for x, y in zip(stack_a, stack_b))
        locs = tuple(join_type(x, y) for x, y in zip(locals_a, locals_b))
        return (stack, locs)

    # -- operand checks, silent unless reporting is enabled ------------------

    def _bad(self, idx: int, code: str, message: str) -> None:
        if self.report is not None:
            self.report(code, idx, message)

    def _want_int(self, idx, t, what):
        if t == CONFLICT:
            self._bad(idx, "RT001", f"{what} has conflicting types at merge")
        elif not is_intlike(t):
            self._bad(idx, "RT002", f"{what} must be int, found {fmt(t)}")

    def _want_float(self, idx, t, what):
        if t == CONFLICT:
            self._bad(idx, "RT001", f"{what} has conflicting types at merge")
        elif not is_floatlike(t):
            self._bad(idx, "RT002", f"{what} must be float, found {fmt(t)}")

    def _want_ref(self, idx, t, what):
        if t == CONFLICT:
            self._bad(idx, "RT001", f"{what} has conflicting types at merge")
        elif not is_reflike(t):
            self._bad(idx, "RT002", f"{what} must be a reference, found {fmt(t)}")

    def _want_array(self, idx, t, op, what):
        elems = _ARRAY_OP_ELEMS[op]
        if t == CONFLICT:
            self._bad(idx, "RT001", f"{what} has conflicting types at merge")
        elif isinstance(t, tuple) and t[0] == "arr":
            if t[1] not in elems:
                self._bad(idx, "RT002",
                          f"{OPINFO[op].mnemonic} on {fmt(t)} "
                          f"(needs {'/'.join(elems)} array)")
        elif t not in (ANY, NULL) and not (isinstance(t, tuple) and t[0] == "ref"
                                           and t[1] is None):
            # a known non-array type (int, float, a concrete class ref)
            self._bad(idx, "RT002",
                      f"{OPINFO[op].mnemonic} on non-array {fmt(t)}")

    # -- transfer ------------------------------------------------------------

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        stack, locs = state
        stack = list(stack)
        locs = list(locs)
        op = instr.op
        info = OPINFO[op]
        kind = info.kind

        def pop():
            return stack.pop() if stack else ANY

        if kind == "const":
            if op is Op.ICONST:
                stack.append(INT)
            elif op is Op.FCONST:
                stack.append(FLOAT)
            elif op is Op.ACONST_NULL:
                stack.append(NULL)
            else:  # LDC
                entry = method.pool[instr.a]
                stack.append(FLOAT if isinstance(entry, FloatConst)
                             else ref("java/lang/String"))
        elif kind == "load_local":
            t = locs[instr.a]
            if t == UNINIT:
                self._bad(idx, "RL004",
                          f"local {instr.a} read before any store "
                          f"(zero-initialized by the VM)")
                t = ANY
            elif t == CONFLICT:
                self._bad(idx, "RT003",
                          f"local {instr.a} holds conflicting types here")
                t = ANY
            if op is Op.ILOAD:
                if not is_intlike(t):
                    self._bad(idx, "RT002",
                              f"iload of {fmt(t)} local {instr.a}")
                stack.append(INT)
            elif op is Op.FLOAD:
                if not is_floatlike(t):
                    self._bad(idx, "RT002",
                              f"fload of {fmt(t)} local {instr.a}")
                stack.append(FLOAT)
            else:  # ALOAD
                if not is_reflike(t):
                    self._bad(idx, "RT002",
                              f"aload of {fmt(t)} local {instr.a}")
                    t = ANY
                stack.append(t if is_reflike(t) else ANY)
        elif kind == "store_local":
            t = pop()
            if op is Op.ISTORE:
                self._want_int(idx, t, "istore operand")
                locs[instr.a] = INT
            elif op is Op.FSTORE:
                self._want_float(idx, t, "fstore operand")
                locs[instr.a] = FLOAT
            else:  # ASTORE
                self._want_ref(idx, t, "astore operand")
                locs[instr.a] = t if is_reflike(t) else ANY
        elif kind == "iinc":
            t = locs[instr.a]
            if t == UNINIT:
                self._bad(idx, "RL004",
                          f"local {instr.a} read before any store "
                          f"(zero-initialized by the VM)")
            elif not is_intlike(t):
                self._bad(idx, "RT002", f"iinc of {fmt(t)} local {instr.a}")
            locs[instr.a] = INT
        elif kind == "stack":
            if op is Op.POP:
                pop()
            elif op is Op.DUP:
                t = pop()
                stack.extend((t, t))
            elif op is Op.DUP_X1:
                b = pop()
                a = pop()
                stack.extend((b, a, b))
            else:  # SWAP
                b = pop()
                a = pop()
                stack.extend((b, a))
        elif kind == "binop":
            b = pop()
            a = pop()
            if op in (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV,
                      Op.FCMPL, Op.FCMPG):
                self._want_float(idx, a, f"{info.mnemonic} left operand")
                self._want_float(idx, b, f"{info.mnemonic} right operand")
                stack.append(INT if op in (Op.FCMPL, Op.FCMPG) else FLOAT)
            else:
                self._want_int(idx, a, f"{info.mnemonic} left operand")
                self._want_int(idx, b, f"{info.mnemonic} right operand")
                stack.append(INT)
        elif kind == "unop":
            t = pop()
            if op is Op.FNEG:
                self._want_float(idx, t, "fneg operand")
                stack.append(FLOAT)
            elif op is Op.I2F:
                self._want_int(idx, t, "i2f operand")
                stack.append(FLOAT)
            elif op is Op.F2I:
                self._want_float(idx, t, "f2i operand")
                stack.append(INT)
            else:  # INEG, I2B, I2C, I2S
                self._want_int(idx, t, f"{info.mnemonic} operand")
                stack.append(INT)
        elif kind == "branch":
            if op in (Op.IFNULL, Op.IFNONNULL):
                self._want_ref(idx, pop(), f"{info.mnemonic} operand")
            elif op in (Op.IF_ACMPEQ, Op.IF_ACMPNE):
                self._want_ref(idx, pop(), f"{info.mnemonic} right operand")
                self._want_ref(idx, pop(), f"{info.mnemonic} left operand")
            elif info.pops == 2:
                self._want_int(idx, pop(), f"{info.mnemonic} right operand")
                self._want_int(idx, pop(), f"{info.mnemonic} left operand")
            else:
                self._want_int(idx, pop(), f"{info.mnemonic} operand")
        elif kind == "switch":
            self._want_int(idx, pop(), f"{info.mnemonic} key")
        elif kind == "return":
            if op is Op.RETURN:
                if method.has_result:
                    self._bad(idx, "RT004",
                              "void return in a method declared to "
                              "produce a result")
            else:
                if not method.has_result:
                    self._bad(idx, "RT004",
                              f"{info.mnemonic} in a void method")
                t = pop()
                if op is Op.IRETURN:
                    self._want_int(idx, t, "ireturn operand")
                elif op is Op.FRETURN:
                    self._want_float(idx, t, "freturn operand")
                else:
                    self._want_ref(idx, t, "areturn operand")
        elif kind == "field":
            fref = method.pool[instr.a]
            ftype = _resolve_field(self.program, fref)
            if op is Op.GETSTATIC:
                stack.append(ftype)
            elif op is Op.PUTSTATIC:
                self._check_field_value(idx, pop(), ftype, fref)
            elif op is Op.GETFIELD:
                self._want_ref(idx, pop(), "getfield receiver")
                stack.append(ftype)
            else:  # PUTFIELD
                v = pop()
                self._want_ref(idx, pop(), "putfield receiver")
                self._check_field_value(idx, v, ftype, fref)
        elif kind == "invoke":
            mref = method.pool[instr.a]
            argc = mref.argc if isinstance(mref, MethodRef) else 0
            for k in range(argc):
                t = pop()
                if t == CONFLICT:
                    self._bad(idx, "RT001",
                              f"argument {argc - k} of "
                              f"{mref.method_name} has conflicting types")
            if op is not Op.INVOKESTATIC:
                self._want_ref(idx, pop(),
                               f"receiver of {getattr(mref, 'method_name', '?')}")
            if isinstance(mref, MethodRef) and mref.has_result:
                stack.append(ANY)
        elif kind == "new":
            if op is Op.NEW:
                cref = method.pool[instr.a]
                stack.append(ref(cref.class_name if isinstance(cref, ClassRef)
                                 else None))
            elif op is Op.NEWARRAY:
                self._want_int(idx, pop(), "newarray length")
                try:
                    elem = _ARRAY_ELEM[ArrayType(instr.a)]
                except ValueError:
                    elem = "int"
                stack.append(arr(elem))
            else:  # ANEWARRAY
                self._want_int(idx, pop(), "anewarray length")
                stack.append(arr("ref"))
        elif kind == "array":
            if op is Op.ARRAYLENGTH:
                t = pop()
                self._want_array_or_any(idx, t)
                stack.append(INT)
            elif info.pops == 2:   # typed loads
                self._want_int(idx, pop(), f"{info.mnemonic} index")
                self._want_array(idx, pop(), op, f"{info.mnemonic} array")
                stack.append(_ARRAY_LOAD_RESULT[op])
            else:                  # typed stores, pops 3
                v = pop()
                self._want_int(idx, pop(), f"{info.mnemonic} index")
                self._want_array(idx, pop(), op, f"{info.mnemonic} array")
                if op is Op.FASTORE:
                    self._want_float(idx, v, "fastore value")
                elif op is Op.AASTORE:
                    self._want_ref(idx, v, "aastore value")
                else:
                    self._want_int(idx, v, f"{info.mnemonic} value")
        elif kind == "typecheck":
            t = pop()
            self._want_ref(idx, t, f"{info.mnemonic} operand")
            if op is Op.CHECKCAST:
                cref = method.pool[instr.a]
                stack.append(ref(cref.class_name
                                 if isinstance(cref, ClassRef) else None))
            else:
                stack.append(INT)
        elif kind == "monitor":
            self._want_ref(idx, pop(), f"{info.mnemonic} operand")
        # NOP / misc: no effect

        return (tuple(stack), tuple(locs))

    def _want_array_or_any(self, idx, t):
        if t == CONFLICT:
            self._bad(idx, "RT001",
                      "arraylength operand has conflicting types at merge")
        elif isinstance(t, tuple) and t[0] == "ref" and t[1] is not None:
            self._bad(idx, "RT002",
                      f"arraylength on non-array {fmt(t)}")
        elif t not in (ANY, NULL) and not (isinstance(t, tuple)
                                           and t[0] in ("arr", "ref")):
            self._bad(idx, "RT002", f"arraylength on non-array {fmt(t)}")

    def _check_field_value(self, idx, v, ftype, fref):
        what = f"value stored to {fref.class_name}.{fref.field_name}"
        if ftype == INT:
            self._want_int(idx, v, what)
        elif ftype == FLOAT:
            self._want_float(idx, v, what)
        elif isinstance(ftype, tuple):
            self._want_ref(idx, v, what)
        elif v == CONFLICT:
            self._bad(idx, "RT001", f"{what} has conflicting types at merge")


def fmt(t) -> str:
    if isinstance(t, tuple):
        if t[0] == "ref":
            return t[1] or "ref"
        return f"{t[1]}[]"
    return t


# -- public API ---------------------------------------------------------------

class TypedVerifyError(VerifyError):
    """A type-confused program; ``findings`` carries every diagnostic."""

    def __init__(self, message: str, code: str = "RT002",
                 findings: list[Finding] | None = None) -> None:
        super().__init__(message, code=code)
        self.findings = findings or []


class TypeCheckResult:
    __slots__ = ("method", "solution", "findings", "stack_maps")

    def __init__(self, method, solution, findings, stack_maps) -> None:
        self.method = method
        self.solution = solution
        self.findings = findings
        self.stack_maps = stack_maps

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]


def typecheck_method(method: Method, program: Program | None = None,
                     cfg=None) -> TypeCheckResult:
    """Infer types for ``method`` and collect findings.

    Requires the structural verifier to have run (consistent stack
    depths); call ``isa.verifier.verify_method`` first.  Returns a
    :class:`TypeCheckResult`; raises nothing for type errors — use
    :func:`assert_types` for reject-on-error behaviour.
    """
    problem = TypeProblem(program)
    solution = solve(method, problem, cfg=cfg)
    findings: list[Finding] = []
    seen: set[tuple] = set()
    qn = method.qualified_name

    def report(code: str, idx: int, message: str) -> None:
        key = (code, idx, message)
        if key not in seen:
            seen.add(key)
            findings.append(Finding(code, qn, idx, message))

    problem.report = report
    for i, instr in enumerate(method.code):
        if solution.in_states[i] is not None:
            problem.transfer(method, i, instr, solution.in_states[i])
    problem.report = None

    # JVM-style stack maps: the inferred frame at every block entry
    stack_maps = []
    for block in solution.cfg.blocks:
        state = solution.in_states[block.start]
        if state is not None:
            stack_maps.append((block.start, state[0], state[1]))
    method.stack_maps = stack_maps
    return TypeCheckResult(method, solution, findings, stack_maps)


def assert_types(method: Method, program: Program | None = None) -> TypeCheckResult:
    """Typecheck and raise :class:`TypedVerifyError` on any type error."""
    result = typecheck_method(method, program)
    errors = result.errors
    if errors:
        first = errors[0]
        raise TypedVerifyError(
            f"{first.method}@{first.index}: {first.message}",
            code=first.code, findings=errors)
    return result
