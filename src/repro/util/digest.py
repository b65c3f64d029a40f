"""Canonical, bit-exact hashing of nested Python values.

The campaign cache (:mod:`repro.cache`) keys results by a digest of
everything the outcome is a pure function of: canonical IR text, input
payload, fault-model config, and trial plan. Those payloads are nested
Python scalars and containers, so the digest must be *canonical* (dict
order never matters) and *bit-exact* (``-0.0 != 0.0``, ``1 != 1.0``,
``NaN`` payloads preserved) — exactly the equality the interpreter and the
outcome classifier use. ``repr``-based hashing fails both bars; this module
encodes values into an unambiguous, type-tagged byte stream instead.

Encoding rules (stable across processes and Python versions):

* every value is tagged by a single type byte, so values of different types
  never collide (``1`` vs ``1.0`` vs ``True`` vs ``"1"``);
* floats encode as their IEEE-754 big-endian bit pattern;
* ints encode as decimal ASCII (arbitrary precision, sign included);
* strings encode as UTF-8, bytes verbatim, both length-prefixed;
* lists and tuples encode identically (element count + elements) — they are
  interchangeable payload containers; a list of exact floats or of exact
  ints (an input array, an iid set) encodes in one pass, to the bytes the
  per-element rule writes;
* dict items are sorted by the encoding of their keys, so insertion order
  is canonicalized away;
* :class:`enum.Enum` members encode as (class name, value).
"""

from __future__ import annotations

import enum
import hashlib
import struct

__all__ = ["canonical_bytes", "stable_digest"]


def _encode(value, out: bytearray) -> None:
    # NOTE: bool before int — bool is an int subclass but must not collide.
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, enum.Enum):
        out += b"E"
        _encode(type(value).__name__, out)
        _encode(value.value, out)
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out += b"i"
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(value, float):
        out += b"f"
        out += struct.pack(">d", value)  # raw bit pattern: -0.0, NaN exact
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s"
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += b"b"
        out += struct.pack(">I", len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out += b"l"
        out += struct.pack(">I", len(value))
        kinds = set(map(type, value))
        run = (
            _float_run(value) if kinds == {float}
            else _int_run(value) if kinds == {int}
            else None
        )
        if run is not None:
            out += run
        else:
            for item in value:
                _encode(item, out)
    elif isinstance(value, dict):
        items = []
        for k, v in value.items():
            kb = bytearray()
            _encode(k, kb)
            items.append((bytes(kb), v))
        items.sort(key=lambda kv: kv[0])
        out += b"d"
        out += struct.pack(">I", len(items))
        for kb, v in items:
            out += kb
            _encode(v, out)
    else:
        raise TypeError(
            f"canonical_bytes: unsupported type {type(value).__name__!r}"
        )


#: Tag and length prefix of an int whose decimal form has ``n`` < 256
#: characters, as latin-1 text (the digits are ASCII).
_INT_HEADS = ["i\x00\x00\x00" + chr(n) for n in range(256)]


def _float_run(value) -> bytearray:
    """A list of exact floats' elements, packed at once and then tagged."""
    n = len(value)
    raw = struct.pack(f">{n}d", *value)
    run = bytearray(9 * n)
    run[0::9] = b"f" * n
    for k in range(8):
        run[k + 1 :: 9] = raw[k::8]
    return run


def _int_run(value) -> bytes | None:
    """A list of exact ints' elements in one join; ``None`` if one has 256
    or more digits (the per-element rule then encodes it)."""
    digits = list(map(str, value))
    try:
        return "".join([_INT_HEADS[len(d)] + d for d in digits]).encode(
            "latin-1"
        )
    except IndexError:
        return None


def canonical_bytes(value) -> bytes:
    """Deterministic, type-tagged byte encoding of a nested payload."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def stable_digest(value) -> str:
    """Hex SHA-256 of :func:`canonical_bytes` — the cache-key primitive."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()
