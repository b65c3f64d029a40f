"""Bit-level helpers for the fault model.

Integers are carried by the VM as *unsigned* Python ints masked to their
declared width (two's-complement encoding); floats as Python floats. The fault
injector flips one bit of the IEEE-754/two's-complement encoding, exactly as
LLFI does on the return value of an instruction.
"""

from __future__ import annotations

import struct

__all__ = [
    "bit_width",
    "to_signed",
    "to_unsigned",
    "sign_extend",
    "flip_bit_int",
    "float64_to_bits",
    "float64_from_bits",
    "float32_to_bits",
    "float32_from_bits",
    "flip_bit_float64",
    "flip_bit_float32",
    "FLIP_INT",
    "FLIP_F64",
    "FLIP_F32",
    "flip_value",
]

_MASKS = {w: (1 << w) - 1 for w in (1, 8, 16, 32, 64)}


def bit_width(mask: int) -> int:
    """Return the width in bits of an all-ones mask (``0xFF`` -> 8)."""
    return mask.bit_length()


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit pattern as two's-complement."""
    sign = 1 << (width - 1)
    return (value & (sign - 1)) - (value & sign)


def to_unsigned(value: int, width: int) -> int:
    """Truncate a Python int to an unsigned ``width``-bit pattern."""
    return value & ((1 << width) - 1)


def sign_extend(value: int, from_width: int, to_width: int) -> int:
    """Sign-extend an unsigned ``from_width``-bit pattern to ``to_width`` bits."""
    return to_unsigned(to_signed(value, from_width), to_width)


def flip_bit_int(value: int, bit: int, width: int) -> int:
    """Flip bit ``bit`` (0 = LSB) of a ``width``-bit unsigned pattern."""
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} out of range for width {width}")
    return (value ^ (1 << bit)) & ((1 << width) - 1)


def float64_to_bits(x: float) -> int:
    """IEEE-754 binary64 encoding of ``x`` as an unsigned 64-bit int."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def float64_from_bits(bits: int) -> float:
    """Decode an unsigned 64-bit pattern as IEEE-754 binary64."""
    return struct.unpack("<d", struct.pack("<Q", bits & _MASKS[64]))[0]


def float32_to_bits(x: float) -> int:
    """IEEE-754 binary32 encoding of ``x`` (rounded to f32) as a 32-bit int."""
    return struct.unpack("<I", struct.pack("<f", x))[0]


def float32_from_bits(bits: int) -> float:
    """Decode an unsigned 32-bit pattern as IEEE-754 binary32."""
    return struct.unpack("<f", struct.pack("<I", bits & _MASKS[32]))[0]


def flip_bit_float64(x: float, bit: int) -> float:
    """Flip one bit of the binary64 encoding of ``x``."""
    if not 0 <= bit < 64:
        raise ValueError(f"bit {bit} out of range for f64")
    return float64_from_bits(float64_to_bits(x) ^ (1 << bit))


def flip_bit_float32(x: float, bit: int) -> float:
    """Flip one bit of the binary32 encoding of ``x``."""
    if not 0 <= bit < 32:
        raise ValueError(f"bit {bit} out of range for f32")
    return float32_from_bits(float32_to_bits(x) ^ (1 << bit))


#: Value-kind codes shared with ``Program.flip_info``: how a return value's
#: encoding is interpreted when a fault flips one of its bits.
FLIP_INT = 0
FLIP_F64 = 1
FLIP_F32 = 2


def flip_value(value, bit: int, kind: int, width: int):
    """Flip one bit of an instruction return value — the LLFI fault model.

    This is the single flip-mask construction shared by the scalar
    interpreter and the lockstep batch engine, so both apply *exactly* the
    same corruption for the same (value, bit) coordinate. ``kind`` follows
    :attr:`Program.flip_info` (:data:`FLIP_INT`/:data:`FLIP_F64`/
    :data:`FLIP_F32`); ``bit`` is reduced modulo ``width`` so any sampled
    bit position lands inside the value's encoding.
    """
    b = bit % width
    if kind == FLIP_INT:
        return (value ^ (1 << b)) & ((1 << width) - 1)
    if kind == FLIP_F64:
        return float64_from_bits(float64_to_bits(value) ^ (1 << b))
    return float32_from_bits(float32_to_bits(value) ^ (1 << b))
