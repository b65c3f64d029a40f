"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.instructions import Instruction

__all__ = ["BasicBlock"]


class BasicBlock:
    """A named basic block owned by a function.

    Instructions are held in execution order; the last instruction must be a
    terminator once the function is finalized. Blocks know their successor
    names (derived from the terminator) which is what the static CFG uses.
    """

    __slots__ = ("name", "instructions", "parent")

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self.parent = None  # owning Function

    # ------------------------------------------------------------------
    @property
    def terminator(self) -> Instruction | None:
        """The terminator, or ``None`` if the block is still open."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> tuple[str, ...]:
        """Names of successor blocks (empty for ``ret`` or open blocks)."""
        term = self.terminator
        if term is None or term.opcode == "ret":
            return ()
        if term.opcode == "br":
            return (term.attrs["target"],)
        if term.opcode == "condbr":
            return (term.attrs["iftrue"], term.attrs["iffalse"])
        raise IRError(f"unexpected terminator {term.opcode}")  # pragma: no cover

    # ------------------------------------------------------------------
    def append(self, instr: Instruction) -> Instruction:
        """Append an instruction; rejects additions after a terminator."""
        if self.is_terminated:
            raise IRError(
                f"block {self.name!r} is already terminated; cannot append "
                f"{instr.opcode}"
            )
        instr.parent = self
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        """Insert an instruction at ``index`` (used by transformation passes)."""
        instr.parent = self
        self.instructions.insert(index, instr)
        return instr

    def phis(self) -> list[Instruction]:
        """The (leading) phi instructions of this block."""
        out = []
        for ins in self.instructions:
            if ins.opcode != "phi":
                break
            out.append(ins)
        return out

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"
