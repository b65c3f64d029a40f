"""Modules: the unit of compilation, analysis, protection and execution."""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.types import Type
from repro.ir.values import GlobalArray

__all__ = ["Module"]


class Module:
    """A collection of globals and functions.

    After construction a module must be :meth:`finalize` d, which verifies it
    and assigns a stable, dense ``iid`` to every instruction (block order
    within function order). All downstream profiles key on iids, so any
    transformation that adds/removes instructions must re-finalize — original
    instructions keep their object identity but iids are recomputed, which is
    why the duplication pass records provenance in ``Instruction.origin``
    *before* re-finalizing and the pipeline maps profiles through the
    ``iid_map`` it returns.
    """

    __slots__ = ("name", "globals", "functions", "finalized", "_by_iid")

    def __init__(self, name: str) -> None:
        self.name = name
        self.globals: dict[str, GlobalArray] = {}
        self.functions: dict[str, Function] = {}
        self.finalized = False
        self._by_iid: list[Instruction] = []

    # ------------------------------------------------------------------
    def add_global(
        self,
        name: str,
        elem_type: Type,
        size: int,
        init: list[int | float] | None = None,
    ) -> GlobalArray:
        if name in self.globals:
            raise IRError(f"duplicate global @{name}")
        g = GlobalArray(name, elem_type, size, init)
        self.globals[name] = g
        return g

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRError(f"duplicate function @{fn.name}")
        fn.parent = self
        self.functions[fn.name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module {self.name!r}") from None

    def get_global(self, name: str) -> GlobalArray:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"no global @{name} in module {self.name!r}") from None

    # ------------------------------------------------------------------
    def finalize(self, verify: bool = True) -> "Module":
        """Verify the module and assign dense iids; returns self."""
        if verify:
            from repro.ir.verifier import verify_module

            verify_module(self)
        self._by_iid = []
        iid = 0
        for fn in self.functions.values():
            for instr in fn.instructions():
                instr.iid = iid
                self._by_iid.append(instr)
                iid += 1
        self.finalized = True
        return self

    def instruction(self, iid: int) -> Instruction:
        """The instruction with the given iid (module must be finalized)."""
        if not self.finalized:
            raise IRError("module not finalized")
        return self._by_iid[iid]

    def instructions(self):
        """All instructions in iid order (module must be finalized)."""
        if not self.finalized:
            raise IRError("module not finalized")
        return iter(self._by_iid)

    def instruction_count(self) -> int:
        return len(self._by_iid) if self.finalized else sum(
            fn.static_instruction_count() for fn in self.functions.values()
        )

    def value_producing_iids(self) -> list[int]:
        """iids of instructions with a return value — the fault-injectable set."""
        return [i.iid for i in self.instructions() if i.produces_value]

    def clone(self) -> "Module":
        """An independent copy, for destructive transformations.

        The copy has its own globals (``init`` lists included), functions,
        arguments, blocks and instructions, with every operand and phi
        incoming value remapped onto it; it shares only the interned
        :class:`Type` s and the immutable constants. Names, iids,
        ``origin`` s, register counters and the finalized iid order carry
        over, so the copy prints identically and its instructions stay
        addressable by the original's iids until it is re-finalized.
        """
        m = Module(self.name)
        vmap: dict = {}
        for name, g in self.globals.items():
            vmap[g] = m.globals[name] = GlobalArray(
                g.name, g.elem_type, g.size, g.init
            )
        copies: list[Instruction] = []
        for fname, fn in self.functions.items():
            nf = Function(
                fn.name, [(a.name, a.type) for a in fn.args], fn.return_type
            )
            nf.parent = m
            nf._next_reg = fn._next_reg
            m.functions[fname] = nf
            vmap.update(zip(fn.args, nf.args))
            for bname, blk in fn.blocks.items():
                nb = nf.blocks[bname] = BasicBlock(blk.name)
                nb.parent = nf
                for instr in blk.instructions:
                    c = Instruction(
                        instr.opcode, instr.type, instr.operands,
                        instr.name, instr.attrs,
                    )
                    c.iid = instr.iid
                    c.origin = instr.origin
                    c.parent = nb
                    nb.instructions.append(c)
                    vmap[instr] = c
                    copies.append(c)
        # Operands may name instructions defined later (loop-carried phis),
        # so they are remapped once every copy exists.
        for c in copies:
            c.operands = [vmap.get(v, v) for v in c.operands]
            incoming = c.attrs.get("incoming")
            if incoming is not None:
                c.attrs["incoming"] = [
                    (b, vmap.get(v, v)) for b, v in incoming
                ]
        if self.finalized:
            m._by_iid = [vmap[i] for i in self._by_iid]
            m.finalized = True
        return m

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals, {self.instruction_count()} instrs>"
        )
