"""``Module.clone`` copies a module's structure, never its mutable parts.

Every app and two SID variants of it (sync and store-only checks on every
other executed injectable instruction) must clone to a module that prints
identically, keeps iids, ``origin`` s and the finalized iid order, and
shares no mutable object with the original.
"""

from __future__ import annotations

import pytest

from repro.apps import all_app_names
from repro.detectors.transform import duplicate_instructions
from repro.fi.faultmodel import injectable_iids
from repro.ir.builder import Builder
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.types import I64, VOID
from repro.ir.values import Constant
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run
from repro.vm.threads import make_thread_driver
from tests.conftest import cached_app


def _variants(app) -> dict:
    """The app's module and its sync/store SID variants."""
    module = app.module
    args, bindings = app.encode(app.reference_input)
    prof = profile_run(app.program, args=args, bindings=bindings)
    executed = [
        iid for iid in injectable_iids(module) if prof.instr_counts[iid]
    ]
    return {
        "plain": module,
        **{
            placement: duplicate_instructions(
                module, executed[::2], check_placement=placement
            ).module
            for placement in ("sync", "store")
        },
    }


def _phi_loop_module() -> Module:
    """What no app has: an initialized global and loop-carried phis, whose
    back-edge operands are defined after the phi."""
    m = Module("philoop")
    table = m.add_global("table", I64, 4, init=[3, 1, 4, 1])
    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    loop, done = b.new_block("loop"), b.new_block("done")
    b.br(loop)
    b.position_at_end(loop)
    later = b.i64(-1)  # placeholder for the back-edge values
    i = b.phi(I64, [("entry", b.i64(0)), ("loop", later)], hint="i")
    acc = b.phi(I64, [("entry", b.i64(0)), ("loop", later)], hint="acc")
    cell = b.load(b.gep(table, b.and_(i, b.i64(3))), I64)
    acc_next = b.add(acc, cell)
    i_next = b.add(i, b.i64(1))
    i.replace_operand(later, i_next)
    acc.replace_operand(later, acc_next)
    b.condbr(b.icmp("slt", i_next, b.function.arg("n")), loop, done)
    b.position_at_end(done)
    b.emit_output(acc_next)
    b.ret()
    return m.finalize()


def _mutable_parts(module) -> list:
    """Every mutable object of a module: IR objects and their containers."""
    parts = []
    for g in module.globals.values():
        parts.append(g)
        if g.init is not None:
            parts.append(g.init)
    for fn in module.functions.values():
        parts += [fn, fn.args, fn.blocks, *fn.args]
        for blk in fn.blocks.values():
            parts += [blk, blk.instructions]
            for instr in blk.instructions:
                parts += [instr, instr.operands, instr.attrs]
                if "incoming" in instr.attrs:
                    parts.append(instr.attrs["incoming"])
    return parts


def _shape(module) -> list:
    return [(i.iid, i.origin, i.opcode, i.name) for i in module.instructions()]


@pytest.mark.parametrize("name", all_app_names())
class TestStructuralClone:
    def test_clone_prints_identically_with_same_iids(self, name):
        for label, module in _variants(cached_app(name)).items():
            clone = module.clone()
            assert print_module(clone) == print_module(module), label
            assert clone.finalized is module.finalized
            assert _shape(clone) == _shape(module), label
            assert [
                clone.instruction(i.iid) for i in module.instructions()
            ] == list(clone.instructions())

    def test_clone_shares_no_mutable_object(self, name):
        for label, module in _variants(cached_app(name)).items():
            clone = module.clone()
            ours = {id(p) for p in _mutable_parts(module)}
            shared = [
                type(p).__name__ for p in _mutable_parts(clone)
                if id(p) in ours
            ]
            assert shared == [], label
            # Every operand resolves inside the clone (or is a constant).
            inside = {id(p) for p in _mutable_parts(clone)}
            for instr in clone.instructions():
                values = list(instr.operands) + [
                    v for _, v in instr.attrs.get("incoming", [])
                ]
                for v in values:
                    assert id(v) in inside or isinstance(v, Constant)

    def test_transforming_a_clone_leaves_the_original(self, name):
        module = cached_app(name).module
        text, shape = print_module(module), _shape(module)
        clone = module.clone()
        selected = injectable_iids(clone)[::3]
        duplicate_instructions(clone, selected, check_placement="sync")
        make_thread_driver(clone, [], 1)
        # Destructive edits of the clone itself.
        for fn in clone.functions.values():
            for blk in fn.blocks.values():
                for instr in blk.instructions:
                    instr.operands.reverse()
                    instr.attrs.get("incoming", []).clear()
                    instr.iid = -1
                blk.instructions.pop()
        for g in clone.globals.values():
            if g.init:
                g.init[0] = 12345
        clone.functions.clear()
        assert print_module(module) == text
        assert _shape(module) == shape


def test_phis_and_global_inits_are_remapped():
    module = _phi_loop_module()
    clone = module.clone()
    assert print_module(clone) == print_module(module)
    ours = {id(p) for p in _mutable_parts(module)}
    assert not [p for p in _mutable_parts(clone) if id(p) in ours]
    phis = [i for i in clone.instructions() if i.opcode == "phi"]
    assert phis
    main = clone.functions["main"]
    for phi in phis:
        assert [v for _, v in phi.attrs["incoming"]] == phi.operands
        assert all(
            v.parent.parent is main
            for v in phi.operands if isinstance(v, Instruction)
        )
    assert clone.globals["table"].init == module.globals["table"].init
    want = Program(module).run(args=[9]).output
    assert want == [3 + 1 + 4 + 1 + 3 + 1 + 4 + 1 + 3]
    assert Program(clone).run(args=[9]).output == want
    clone.globals["table"].init[0] = 0
    assert module.globals["table"].init[0] == 3
