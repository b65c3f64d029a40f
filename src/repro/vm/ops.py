"""Scalar formulas shared by the compile tier and the batch engine.

Most IR opcodes are one Python expression (``(a + b) & mask``), which the
compile tier (:mod:`repro.vm.compiler`) writes straight into its generated
block functions. The opcodes below are *irregular*: they trap, pick NaN
payloads, call libm, or reinterpret raw bits, so their CPython result has
to be spelled out with care. They live here once, and both the generated
code and the batch engine's scalar fixup tier (:mod:`repro.vm.batch`)
call them, so the two executors cannot drift apart.

The reference ``if``-chain (``Program._exec_fn``) keeps its own inline
copy on purpose: it is the independent oracle the differential tests
compare the compile tier against.
"""

from __future__ import annotations

import math
import struct

from repro.errors import ArithmeticTrap

__all__ = [
    "FMATH",
    "ashr",
    "coerce_load",
    "f32",
    "fdiv",
    "fmath",
    "int_op",
    "lshr",
    "sdiv",
    "shl",
    "srem",
    "udiv",
    "urem",
]

_pack_f = struct.Struct("<f").pack
_unpack_f = struct.Struct("<f").unpack
_pack_d = struct.Struct("<d").pack
_unpack_d = struct.Struct("<d").unpack
_pack_Q = struct.Struct("<Q").pack
_unpack_Q = struct.Struct("<Q").unpack
_pack_I = struct.Struct("<I").pack

_M64 = (1 << 64) - 1


def f32(x: float) -> float:
    """Round a Python float to binary32 precision."""
    try:
        return _unpack_f(_pack_f(x))[0]
    except OverflowError:
        return math.inf if x > 0 else -math.inf


# -- integer ops with traps or width-dependent edge cases --------------------
# Operands are the unsigned bit patterns of width ``w``; ``mask`` is
# ``2**w - 1``.


def shl(a: int, b: int, w: int, mask: int) -> int:
    return (a << b) & mask if b < w else 0


def lshr(a: int, b: int, w: int, mask: int) -> int:
    return a >> b if b < w else 0


def ashr(a: int, b: int, w: int, mask: int) -> int:
    sa = a - (1 << w) if a & (1 << (w - 1)) else a
    return (sa >> b if b < w else (sa >> (w - 1))) & mask


def sdiv(a: int, b: int, w: int, mask: int) -> int:
    sa = a - (1 << w) if a & (1 << (w - 1)) else a
    sb = b - (1 << w) if b & (1 << (w - 1)) else b
    if sb == 0:
        raise ArithmeticTrap("signed division by zero")
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) & mask


def srem(a: int, b: int, w: int, mask: int) -> int:
    sa = a - (1 << w) if a & (1 << (w - 1)) else a
    sb = b - (1 << w) if b & (1 << (w - 1)) else b
    if sb == 0:
        raise ArithmeticTrap("signed division by zero")
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) & mask


def udiv(a: int, b: int, w: int, mask: int) -> int:
    if b == 0:
        raise ArithmeticTrap("unsigned division by zero")
    return (a // b) & mask


def urem(a: int, b: int, w: int, mask: int) -> int:
    if b == 0:
        raise ArithmeticTrap("unsigned division by zero")
    return (a % b) & mask


#: Dense opcode (``repro.vm.interpreter._OP``) -> formula.
_INT_OPS = {3: sdiv, 4: udiv, 5: srem, 6: urem, 10: shl, 11: lshr, 12: ashr}


def int_op(op: int, a: int, b: int, d: list) -> int:
    """Dispatch a decoded integer binop (``d[7]`` mask, ``d[8]`` width)."""
    return _INT_OPS[op](a, b, d[8], d[7])


# -- floating point ----------------------------------------------------------


def fdiv(a: float, b: float) -> float:
    """IEEE division with the interpreter's 0-divisor NaN payloads."""
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    try:
        return a / b
    except OverflowError:  # pragma: no cover - float operands never raise
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan


def _sin(x: float) -> float:
    return math.sin(x) if -1e18 < x < 1e18 else math.nan


def _cos(x: float) -> float:
    return math.cos(x) if -1e18 < x < 1e18 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    if x == 0.0:
        return -math.inf
    return math.nan


def _floor(x: float) -> float:
    return math.floor(x) if math.isfinite(x) else x


#: ``fmath`` functions by their decoded index (sqrt, sin, cos, exp, log,
#: fabs, floor).
FMATH = (_sqrt, _sin, _cos, _exp, _log, abs, _floor)


def fmath(x: float, fn: int) -> float:
    return FMATH[fn](x)


# -- memory ------------------------------------------------------------------


def coerce_load(val, want: int, mask: int):
    """Reinterpret a loaded cell's raw bits as the load's result type.

    Loads through corrupted pointers can reach cells of the other class;
    hardware would reinterpret the bits, and so do we. ``want``: 0 = int
    (``mask`` applied), 1 = f64, 2 = f32.
    """
    if want == 0:
        if type(val) is float:
            return _unpack_Q(_pack_d(val))[0] & mask
        return val
    if type(val) is int:
        if want == 1:
            return _unpack_d(_pack_Q(val & _M64))[0]
        return _unpack_f(_pack_I(val & 0xFFFFFFFF))[0]
    return val
