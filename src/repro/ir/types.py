"""IR type system: fixed-width integers, IEEE floats, pointers and void.

Types are interned singletons; identity comparison (``is``) is safe and is
what the verifier and interpreter use.
"""

from __future__ import annotations

from repro.errors import IRError

__all__ = [
    "Type",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "F32",
    "F64",
    "PTR",
    "VOID",
    "INT_TYPES",
    "FLOAT_TYPES",
    "type_from_name",
]


class Type:
    """An IR type.

    Attributes
    ----------
    kind:
        One of ``"int"``, ``"float"``, ``"ptr"``, ``"void"``.
    width:
        Bit width (64 for pointers, 0 for void).
    name:
        Canonical spelling used by the printer/parser (``i32``, ``f64``...).
    """

    __slots__ = ("kind", "width", "name", "mask")

    def __init__(self, kind: str, width: int, name: str) -> None:
        self.kind = kind
        self.width = width
        self.name = name
        # All-ones mask for integer truncation; harmless 0 for non-ints.
        self.mask = (1 << width) - 1 if kind in ("int", "ptr") else 0

    # Types are interned singletons: copying must preserve identity so that
    # `is` comparisons survive any copy (Module.clone() shares them).
    def __copy__(self) -> "Type":
        return self

    def __deepcopy__(self, memo) -> "Type":
        return self

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_ptr(self) -> bool:
        return self.kind == "ptr"

    @property
    def is_void(self) -> bool:
        return self.kind == "void"

    def __repr__(self) -> str:
        return self.name


I1 = Type("int", 1, "i1")
I8 = Type("int", 8, "i8")
I16 = Type("int", 16, "i16")
I32 = Type("int", 32, "i32")
I64 = Type("int", 64, "i64")
F32 = Type("float", 32, "f32")
F64 = Type("float", 64, "f64")
PTR = Type("ptr", 64, "ptr")
VOID = Type("void", 0, "void")

INT_TYPES = (I1, I8, I16, I32, I64)
FLOAT_TYPES = (F32, F64)

_BY_NAME = {t.name: t for t in (*INT_TYPES, *FLOAT_TYPES, PTR, VOID)}


def type_from_name(name: str) -> Type:
    """Look a type up by its canonical spelling (raises :class:`IRError`)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise IRError(f"unknown type name {name!r}") from None
