"""Shared utilities: bit manipulation, seeded RNG streams, canonical
hashing, supervised parallel map and ASCII table rendering."""

from repro.util.digest import canonical_bytes, stable_digest
from repro.util.bitops import (
    bit_width,
    flip_bit_float32,
    flip_bit_float64,
    flip_bit_int,
    float32_from_bits,
    float32_to_bits,
    float64_from_bits,
    float64_to_bits,
    sign_extend,
    to_signed,
    to_unsigned,
)
from repro.util.rng import RngStream, derive_seed
from repro.util.parallel import parallel_map
from repro.util.supervisor import parse_chaos
from repro.util.tables import format_table

__all__ = [
    "bit_width",
    "flip_bit_float32",
    "flip_bit_float64",
    "flip_bit_int",
    "float32_from_bits",
    "float32_to_bits",
    "float64_from_bits",
    "float64_to_bits",
    "sign_extend",
    "to_signed",
    "to_unsigned",
    "RngStream",
    "canonical_bytes",
    "derive_seed",
    "parallel_map",
    "parse_chaos",
    "stable_digest",
    "format_table",
]
