"""Segmented memory model of the VM.

Addresses are 64-bit integers carrying a segment id in the high bits and an
element offset in the low :data:`SEG_SHIFT` bits. Every global array and every
executed ``alloca`` owns one segment. Memory cells are *typed values* (Python
ints/floats), not bytes: a ``gep`` adds element indices, matching LLVM's typed
getelementptr semantics.

This layout makes pointer bit flips behave realistically:

- flips in the low offset bits often stay inside the segment → silent wrong
  data (a potential SDC),
- flips in the segment bits land in unmapped memory → :class:`MemoryFault`,
  classified as a Crash, exactly the dichotomy hardware faults exhibit.
"""

from __future__ import annotations

__all__ = ["SEG_SHIFT", "SEG_MASK", "MAX_SEGMENT_ELEMS"]

#: Number of low bits addressing elements inside a segment.
SEG_SHIFT = 20
#: Mask extracting the in-segment offset.
SEG_MASK = (1 << SEG_SHIFT) - 1
#: Largest allocation expressible in one segment.
MAX_SEGMENT_ELEMS = 1 << SEG_SHIFT
