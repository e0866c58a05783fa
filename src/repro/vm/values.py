"""Java value semantics helpers.

Integer arithmetic follows Java's 32-bit two's-complement wrapping and
truncate-toward-zero division.  Floats are carried as Python doubles
(documented simplification; none of the workloads depend on float32
rounding).
"""

from __future__ import annotations

_I32_MASK = 0xFFFFFFFF
_I32_SIGN = 0x80000000


def i32(value: int) -> int:
    """Wrap to Java int range [-2^31, 2^31)."""
    value &= _I32_MASK
    return value - (1 << 32) if value & _I32_SIGN else value


def i8(value: int) -> int:
    """Truncate to Java byte (i2b)."""
    value &= 0xFF
    return value - 256 if value & 0x80 else value


def i16(value: int) -> int:
    """Truncate to Java short (i2s)."""
    value &= 0xFFFF
    return value - 65536 if value & 0x8000 else value


def u16(value: int) -> int:
    """Truncate to Java char (i2c)."""
    return value & 0xFFFF


def idiv(a: int, b: int) -> int:
    """Java idiv: truncate toward zero; raises ZeroDivisionError like athrow."""
    if b == 0:
        raise ZeroDivisionError("/ by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return i32(q)


def irem(a: int, b: int) -> int:
    """Java irem: sign follows the dividend."""
    return i32(a - idiv(a, b) * b)


def ishl(a: int, b: int) -> int:
    return i32(a << (b & 31))


def ishr(a: int, b: int) -> int:
    return i32(a >> (b & 31))


def iushr(a: int, b: int) -> int:
    return i32((a & _I32_MASK) >> (b & 31))


def fdiv(a: float, b: float) -> float:
    """fdiv: IEEE division, so a zero divisor gives an infinity or NaN."""
    if b != 0.0:
        return a / b
    return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")


def fcmp(a: float, b: float, nan_result: int) -> int:
    """fcmpl/fcmpg semantics: -1/0/1, NaN yields ``nan_result``."""
    if a != a or b != b:  # NaN
        return nan_result
    if a < b:
        return -1
    if a > b:
        return 1
    return 0
