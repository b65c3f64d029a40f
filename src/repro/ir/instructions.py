"""Instruction set of the mini-IR.

One concrete :class:`Instruction` class carries all opcodes; the opcode string
plus an ``attrs`` dict (comparison predicate, callee name, phi incomings,
math-function name...) distinguishes behaviour. This keeps decoding for the
interpreter and cloning for the duplication pass uniform.

Instruction identity and provenance
-----------------------------------
``iid``
    A module-unique integer assigned by :meth:`repro.ir.module.Module.finalize`.
    All profiles (cost, benefit, SDC probability) key on iids.
``origin``
    For instructions created by the duplication pass, the iid of the original
    instruction they shadow; ``None`` for first-class program instructions.
    Coverage accounting and incubative analysis operate on origins.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.types import Type
from repro.ir.values import Value

__all__ = [
    "Instruction",
    "OPCODES",
    "TERMINATORS",
    "SYNC_OPCODES",
    "CMP_PREDICATES",
    "FMATH_FUNCS",
    "INT_BINOPS",
    "FLOAT_BINOPS",
    "CAST_OPS",
]

#: Integer binary ALU operations (both operands and result share one int type).
INT_BINOPS = (
    "add",
    "sub",
    "mul",
    "sdiv",
    "udiv",
    "srem",
    "urem",
    "and",
    "or",
    "xor",
    "shl",
    "lshr",
    "ashr",
)

#: Floating-point binary operations.
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")

#: Value casts; attrs carry nothing, the result type defines the target.
CAST_OPS = (
    "trunc",
    "zext",
    "sext",
    "fptosi",
    "fptoui",
    "sitofp",
    "uitofp",
    "fpext",
    "fptrunc",
)

#: Comparison predicates for icmp/fcmp.
CMP_PREDICATES = {
    "icmp": ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"),
    "fcmp": ("oeq", "one", "olt", "ole", "ogt", "oge"),
}

#: Unary math intrinsics available through the ``fmath`` opcode.
FMATH_FUNCS = ("sqrt", "sin", "cos", "exp", "log", "fabs", "floor")

#: Block terminators.
TERMINATORS = ("br", "condbr", "ret")

#: Synchronization points: duplication checks must be flushed before these
#: (function calls and control-flow transfers per the paper, plus stores,
#: which make a possibly-corrupted value externally visible).
SYNC_OPCODES = ("call", "br", "condbr", "ret", "store")

#: The complete opcode set.
OPCODES = (
    *INT_BINOPS,
    *FLOAT_BINOPS,
    *CAST_OPS,
    "icmp",
    "fcmp",
    "select",
    "fmath",
    "alloca",
    "load",
    "store",
    "gep",
    "phi",
    "call",
    "br",
    "condbr",
    "ret",
    "emit",
    "check",
    "checkrange",
)


class Instruction(Value):
    """A single IR instruction.

    Parameters
    ----------
    opcode:
        One of :data:`OPCODES`.
    type_:
        Result type (``VOID`` for non-value-producing instructions).
    operands:
        Operand values in positional order.
    name:
        SSA register name for value-producing instructions.
    attrs:
        Opcode-specific attributes:

        - ``icmp``/``fcmp``: ``pred``
        - ``fmath``: ``fn``
        - ``call``: ``callee`` (function name)
        - ``phi``: ``incoming`` — list of ``(block_name, Value)``
        - ``br``: ``target``; ``condbr``: ``iftrue``/``iffalse``
        - ``alloca``: ``count`` (number of elements)
        - ``check``: ``label`` (diagnostic name of the protected instruction)
        - ``checkrange``: ``label`` — operands are ``[x, lo, hi]`` with
          ``lo``/``hi`` constants; traps if ``x`` is NaN or outside
          ``[lo, hi]`` (invariant detectors mined from golden-run profiles)
    """

    __slots__ = ("opcode", "operands", "name", "attrs", "iid", "origin", "parent")

    def __init__(
        self,
        opcode: str,
        type_: Type,
        operands: list[Value] | None = None,
        name: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        if opcode not in OPCODES:
            raise IRError(f"unknown opcode {opcode!r}")
        super().__init__(type_)
        self.opcode = opcode
        self.operands = list(operands) if operands else []
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.iid: int = -1  # assigned by Module.finalize()
        self.origin: int | None = None  # set by the duplication pass on clones
        self.parent = None  # owning BasicBlock, set on insertion

    # ------------------------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def produces_value(self) -> bool:
        """True if the instruction has a return value a fault can corrupt."""
        return not self.type.is_void

    @property
    def is_sync_point(self) -> bool:
        return self.opcode in SYNC_OPCODES

    def clone(self) -> "Instruction":
        """Shallow-clone: same opcode/type/operands/attrs, fresh identity.

        The clone has no iid and no parent; the duplication pass sets
        ``origin`` on clones it inserts.
        """
        c = Instruction(
            self.opcode,
            self.type,
            list(self.operands),
            name=None,
            attrs=dict(self.attrs),
        )
        return c

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` in operands; returns count."""
        n = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                n += 1
        if self.opcode == "phi":
            incoming = self.attrs.get("incoming", [])
            for i, (blk, val) in enumerate(incoming):
                if val is old:
                    incoming[i] = (blk, new)
                    n += 1
        return n

    def __repr__(self) -> str:
        from repro.ir.printer import format_instruction

        try:
            return format_instruction(self)
        except Exception:  # pragma: no cover - printing must never crash repr
            return f"<{self.opcode} iid={self.iid}>"
