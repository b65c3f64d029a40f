"""Functions: argument lists plus an ordered collection of basic blocks."""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.types import Type
from repro.ir.values import Argument

__all__ = ["Function"]


class Function:
    """An IR function.

    The first block added is the entry block. Block order is preserved for
    printing and deterministic iid assignment; control flow is defined solely
    by terminators.
    """

    __slots__ = ("name", "args", "return_type", "blocks", "parent", "_next_reg")

    def __init__(self, name: str, arg_specs: list[tuple[str, Type]], return_type: Type) -> None:
        self.name = name
        self.args = [Argument(an, at, i) for i, (an, at) in enumerate(arg_specs)]
        self.return_type = return_type
        self.blocks: dict[str, BasicBlock] = {}
        self.parent = None  # owning Module
        self._next_reg = 0

    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function @{self.name} has no blocks")
        return next(iter(self.blocks.values()))

    def add_block(self, name: str) -> BasicBlock:
        """Create and register a new block with a unique name."""
        if name in self.blocks:
            raise IRError(f"duplicate block name {name!r} in @{self.name}")
        blk = BasicBlock(name)
        blk.parent = self
        self.blocks[name] = blk
        return blk

    def fresh_name(self, hint: str = "t") -> str:
        """Generate a fresh register name (``hint.N``)."""
        self._next_reg += 1
        return f"{hint}.{self._next_reg}"

    def instructions(self):
        """Iterate all instructions in block order."""
        for blk in self.blocks.values():
            yield from blk.instructions

    def arg(self, name: str) -> Argument:
        """Look up a formal argument by name."""
        for a in self.args:
            if a.name == name:
                return a
        raise IRError(f"no argument {name!r} in @{self.name}")

    def static_instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def __repr__(self) -> str:
        sig = ", ".join(f"%{a.name}: {a.type}" for a in self.args)
        return f"<Function @{self.name}({sig}) -> {self.return_type}>"
