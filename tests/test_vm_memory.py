"""Tests for the segmented memory model, as both executors run it."""

import pytest

from repro.errors import MemoryFault
from repro.ir import I64, VOID, Builder, Module
from repro.vm.interpreter import Program
from tests.conftest import ReferenceProgram


def _executors(m):
    return (Program(m), ReferenceProgram(m))


class TestMemory:
    def test_allocate_and_rw(self):
        # A fresh alloca reads as zeros; a store reads back at its own offset.
        m = Module("m")
        b = Builder.new_function(m, "main", [], VOID)
        slot = b.alloca(I64, 4)
        b.store(b.i64(42), b.gep(slot, b.i64(2)))
        b.emit_output(b.load(b.gep(slot, b.i64(2)), I64))
        b.emit_output(b.load(slot, I64))
        b.emit_output(b.load(b.gep(slot, b.i64(3)), I64))
        b.ret()
        m.finalize()
        for prog in _executors(m):
            assert prog.run().output == [42, 0, 0]

    def test_out_of_bounds(self):
        # One past the last cell of a segment faults on load and store.
        for access in ("load", "store"):
            m = Module("m")
            b = Builder.new_function(m, "main", [], VOID)
            slot = b.alloca(I64, 4)
            past = b.gep(slot, b.i64(4))
            if access == "load":
                b.emit_output(b.load(past, I64))
            else:
                b.store(b.i64(1), past)
            b.ret()
            m.finalize()
            for prog in _executors(m):
                with pytest.raises(MemoryFault, match=access):
                    prog.run()
