"""Method inlining support: tiny-body matching.

The JIT inlines monomorphic calls to tiny, straight-line methods
(getters, setters, small arithmetic helpers).  Monomorphism is proven by
class-hierarchy analysis over the closed program
(``Program.unique_target``, the hierarchy model the static analyses'
call graph uses too): if exactly one implementation can be the target
for any receiver subtype, the call is devirtualized.  This is the
optimization the paper credits for the JIT mode's much lower
indirect-branch frequency.
"""

from __future__ import annotations

from ...isa.method import Method
from ...isa.opcodes import Op, OPINFO

#: Maximum bytecode length of an inlinable body.
MAX_INLINE_CODE = 8

#: Opcodes permitted in an inlinable body (straight-line, leaf, no
#: allocation, no monitors).
_INLINABLE_OPS = frozenset({
    Op.NOP, Op.ICONST, Op.FCONST, Op.ACONST_NULL,
    Op.ILOAD, Op.FLOAD, Op.ALOAD,
    Op.IADD, Op.ISUB, Op.IMUL, Op.IAND, Op.IOR, Op.IXOR, Op.ISHL,
    Op.ISHR, Op.IUSHR, Op.INEG, Op.I2B, Op.I2C, Op.I2S,
    Op.FADD, Op.FSUB, Op.FMUL, Op.FNEG,
    Op.GETFIELD, Op.PUTFIELD,
    Op.IRETURN, Op.FRETURN, Op.ARETURN, Op.RETURN,
    Op.DUP, Op.POP,
})


def is_inlinable(method: Method) -> bool:
    """A body the template JIT can splice into a call site.

    Requirements: bytecode (not native), unsynchronized, short,
    straight-line (no branches / calls / allocation), and only
    operand-local operations plus field access on statically-known
    offsets.
    """
    if method.is_native or method.is_synchronized:
        return False
    if len(method.code) > MAX_INLINE_CODE:
        return False
    for instr in method.code:
        if instr.op not in _INLINABLE_OPS:
            return False
    # Must end at the first return (straight-line ⇒ exactly one return).
    kinds = [OPINFO[i.op].kind for i in method.code]
    if kinds.count("return") != 1 or kinds[-1] != "return":
        return False
    return True


def inline_field_offsets(method: Method, loader) -> list[int] | None:
    """Instance-field offsets touched by an inlinable body, in order.

    Returns ``None`` if a field cannot be statically resolved (in which
    case the call site is not inlined).
    """
    offsets: list[int] = []
    for instr in method.code:
        if instr.op in (Op.GETFIELD, Op.PUTFIELD):
            try:
                mirror = loader.mirrors.get(method.jclass)
                if mirror is None:
                    # Compiling a caller can reach a body whose class is
                    # not loaded yet; resolving the ref loads the ref's
                    # class, which is usually the body's own.
                    loader.ensure_loaded(method.pool[instr.a].class_name)
                    mirror = loader.mirrors[method.jclass]
                owner, field_name = loader.resolve_field(mirror, instr.a)
            except Exception:
                return None
            off = owner.jclass.field_offsets.get(field_name)
            if off is None:
                return None
            offsets.append(off)
    return offsets
