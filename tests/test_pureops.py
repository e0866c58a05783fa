"""Each pure op's row ≡ the ``vm.values`` function it stands for.

The stepper runs a pure op's ``sem``, generated from the op's row in
``repro.vm.pureops``; the hot lines write the same expression and the
constant folder calls it (``pureops.EVAL``).  Here each ``sem`` runs on
a frame holding just its operands, and it and the folder's function
must give what the independent reference in ``vm/values.py`` gives, on
int32 edge values and on floats including NaN, ±inf and −0.0: the same
value (a float down to its sign and NaN-ness), or the same exception
type.  ``tests/test_lines.py`` then holds the lines to the ``sem``.
"""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import ArrayType, Op
from repro.isa.instruction import Instr
from repro.vm import pureops, values
from repro.vm.objects import JArray

EDGE_INTS = (0, 1, -1, 2, -2, 7, -8, 31, 32, 33, 63, 64, 127, 128, -128,
             -129, 255, 256, 32767, 32768, -32768, -32769, 65535, 65536,
             2**31 - 1, -2**31, -2**31 + 1, 2**30)
INTS = st.one_of(st.sampled_from(EDGE_INTS),
                 st.integers(-2**31, 2**31 - 1))
FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -1.5,
                     0.5, -0.5, 2.0**31, -2.0**31 - 1, 1e300, -1e-300)),
    st.floats(allow_nan=True, allow_infinity=True))

BINARY = {
    Op.IADD: lambda x, y: values.i32(x + y),
    Op.ISUB: lambda x, y: values.i32(x - y),
    Op.IMUL: lambda x, y: values.i32(x * y),
    Op.IDIV: values.idiv,
    Op.IREM: values.irem,
    Op.ISHL: values.ishl,
    Op.ISHR: values.ishr,
    Op.IUSHR: values.iushr,
    Op.IAND: lambda x, y: values.i32(x & y),
    Op.IOR: lambda x, y: values.i32(x | y),
    Op.IXOR: lambda x, y: values.i32(x ^ y),
    Op.IF_ICMPEQ: operator.eq,
    Op.IF_ICMPNE: operator.ne,
    Op.IF_ICMPLT: operator.lt,
    Op.IF_ICMPGE: operator.ge,
    Op.IF_ICMPGT: operator.gt,
    Op.IF_ICMPLE: operator.le,
}
FLOAT_BINARY = {
    Op.FADD: operator.add,
    Op.FSUB: operator.sub,
    Op.FMUL: operator.mul,
    Op.FDIV: values.fdiv,
    Op.FCMPL: lambda x, y: values.fcmp(x, y, -1),
    Op.FCMPG: lambda x, y: values.fcmp(x, y, 1),
}
UNARY = {
    Op.INEG: lambda v: values.i32(-v),
    Op.I2F: float,
    Op.I2B: values.i8,
    Op.I2C: values.u16,
    Op.I2S: values.i16,
    Op.IFEQ: lambda v: v == 0,
    Op.IFNE: lambda v: v != 0,
    Op.IFLT: lambda v: v < 0,
    Op.IFGE: lambda v: v >= 0,
    Op.IFGT: lambda v: v > 0,
    Op.IFLE: lambda v: v <= 0,
}
FLOAT_UNARY = {
    Op.FNEG: operator.neg,
    Op.F2I: lambda v: values.i32(int(v)),
}
#: What each array store stores of its value.
STORES = {Op.IASTORE: values.i32, Op.BASTORE: values.i8,
          Op.CASTORE: values.u16, Op.FASTORE: float}
REFERENCE_TESTS = {
    Op.IFNULL: lambda v: v is None,
    Op.IFNONNULL: lambda v: v is not None,
    Op.IF_ACMPEQ: operator.is_,
    Op.IF_ACMPNE: operator.is_not,
}


class _Frame:
    """What a ``sem`` of these ops reads and writes."""

    def __init__(self, stack, locals_=()) -> None:
        self.stack = list(stack)
        self.locals = list(locals_)
        self.ip = 1


def _norm(value):
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


def _outcome(fn, *args):
    try:
        return _norm(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared by type
        return ("raises", type(exc))


def _stepped(op, *operands):
    """What the stepper's ``sem`` of ``op`` leaves on the stack, or, for
    a conditional branch, whether it was taken."""
    frame = _Frame(operands)
    taken = pureops.SEMS[op](frame, Instr(op, 7))
    if pureops.ROW[op].branch == "if":
        assert frame.ip == (7 if taken else 1)
        return taken
    assert len(frame.stack) == 1
    return frame.stack[0]


def _check(op, reference, *operands):
    expected = _outcome(reference, *operands)
    assert _outcome(_stepped, op, *operands) == expected, (op.name, operands)
    assert _outcome(pureops.EVAL[op], *operands) == expected, (op.name,
                                                                operands)


def test_every_computing_row_has_a_reference():
    """Each op with an expression of its own is checked below."""
    checked = {*BINARY, *FLOAT_BINARY, *UNARY, *FLOAT_UNARY, *STORES,
               *REFERENCE_TESTS, Op.IINC, Op.AASTORE}
    assert {Op(op) for op, fn in enumerate(pureops.EVAL) if fn} == checked


@settings(max_examples=300, deadline=None)
@given(x=INTS, y=INTS)
def test_int_rows_match_values(x, y):
    for op, reference in BINARY.items():
        _check(op, reference, x, y)
    for op, reference in UNARY.items():
        _check(op, reference, x)


@settings(max_examples=300, deadline=None)
@given(x=FLOATS, y=FLOATS)
def test_float_rows_match_values(x, y):
    for op, reference in FLOAT_BINARY.items():
        _check(op, reference, x, y)
    for op, reference in FLOAT_UNARY.items():
        _check(op, reference, x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_f2i_of_nan_and_infinities_raises_as_values(x):
    with pytest.raises(Exception) as expected:
        values.i32(int(x))
    with pytest.raises(expected.type):
        _stepped(Op.F2I, x)


@pytest.mark.parametrize("op", [Op.IDIV, Op.IREM])
def test_integer_division_by_zero_raises_as_values(op):
    with pytest.raises(ZeroDivisionError):
        _stepped(op, 5, 0)


@settings(max_examples=200, deadline=None)
@given(x=INTS, d=INTS)
def test_iinc_matches_values(x, d):
    frame = _Frame((), [x])
    pureops.SEMS[Op.IINC](frame, Instr(Op.IINC, 0, d))
    assert frame.locals == [values.i32(x + d)]
    assert pureops.EVAL[Op.IINC](x, d) == values.i32(x + d)


@settings(max_examples=200, deadline=None)
@given(x=INTS, f=FLOATS)
def test_array_stores_match_values(x, f):
    for op, coerce in STORES.items():
        v = f if op is Op.FASTORE else x
        atype = ArrayType.FLOAT if op is Op.FASTORE else ArrayType.INT
        arr = JArray(atype, 2, 0x1000)
        pureops.SEMS[op](_Frame((arr, 1, v)), Instr(op))
        assert _norm(arr.data[1]) == _norm(coerce(v)), op.name
        assert _norm(pureops.EVAL[op](v)) == _norm(coerce(v)), op.name
    ref = JArray("ref", 1, 0x2000)
    pureops.SEMS[Op.AASTORE](_Frame((ref, 0, arr)), Instr(Op.AASTORE))
    assert ref.data[0] is arr and pureops.EVAL[Op.AASTORE](arr) is arr


def test_reference_tests_match():
    a, b = object(), object()
    for op, reference in REFERENCE_TESTS.items():
        args = [(None,), (a,)] if pureops.ROW[op].pops == ("v",) \
            else [(a, a), (a, b), (None, None), (a, None)]
        for operands in args:
            _check(op, reference, *operands)


@pytest.mark.parametrize("op,operands,text", [
    (Op.ARRAYLENGTH, (None,), "arraylength on non-array"),
    (Op.IALOAD, (None, 0), "array load on None"),
    (Op.AALOAD, (7, 0), "array load on 7"),
    (Op.IASTORE, (None, 0, 1), "array store on None"),
])
def test_array_ops_on_a_non_array_raise_their_text(op, operands, text):
    """The text is the program's observable error (the fuzz oracle
    compares it across configurations)."""
    frame = _Frame(operands)
    with pytest.raises(pureops.VMError) as raised:
        pureops.SEMS[op](frame, Instr(op))
    assert str(raised.value) == text
    assert frame.stack == []
    assert pureops.EAS[op](_Frame(operands), Instr(op)) == ()


def test_array_index_out_of_bounds_raises_index_error():
    arr = JArray(ArrayType.INT, 2, 0x1000)
    for op, operands in ((Op.IALOAD, (arr, 2)), (Op.IASTORE, (arr, -1, 0))):
        with pytest.raises(IndexError, match="out of bounds for length 2"):
            pureops.SEMS[op](_Frame(operands), Instr(op))
