"""Printer/parser round-trip tests."""

import pytest

from repro.detectors.transform import duplicate_instructions
from repro.errors import ParseError
from repro.ir import parse_module, print_module
from repro.ir.printer import format_instruction
from repro.vm.interpreter import Program
from tests.conftest import build_branchy_module, build_sum_squares_module


class TestRoundTrip:
    def assert_roundtrip(self, module, args, bindings=None):
        text = print_module(module)
        reparsed = parse_module(text)
        r1 = Program(module).run(args=args, bindings=bindings)
        r2 = Program(reparsed).run(args=args, bindings=bindings)
        assert r1.output == r2.output
        # And the text itself is a fixed point.
        assert print_module(reparsed) == text

    def test_sumsq(self):
        m = build_sum_squares_module()
        self.assert_roundtrip(m, [8], {"data": [1.0] * 8})

    def test_branchy(self):
        m = build_branchy_module()
        self.assert_roundtrip(
            m, [8, 0.5], {"data": [0.1 * i for i in range(8)]}
        )

    def test_all_apps_roundtrip(self, each_app):
        args, bindings = each_app.encode(each_app.reference_input)
        self.assert_roundtrip(each_app.module, args, bindings)

    def test_protected_module_roundtrip(self):
        m = build_sum_squares_module()
        selected = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        prot = duplicate_instructions(m, selected)
        text = print_module(prot.module)
        assert "dup-of" in text
        reparsed = parse_module(text)
        data = {"data": [2.0] * 8}
        r1 = Program(prot.module).run(args=[8], bindings=data)
        r2 = Program(reparsed).run(args=[8], bindings=data)
        assert r1.output == r2.output
        # Provenance comments survive the round trip.
        origins = [i.origin for i in reparsed.instructions() if i.origin is not None]
        assert origins


class TestParserErrors:
    def test_missing_module_header(self):
        with pytest.raises(ParseError):
            parse_module("func @main() -> void {\nentry:\n  ret\n}\n")

    def test_bad_global(self):
        with pytest.raises(ParseError):
            parse_module("module m\nglobal @g f64[4]\n")

    def test_undefined_register(self):
        text = (
            "module m\n"
            "func @main() -> void {\n"
            "entry:\n"
            "  %x = add i64 %ghost, i64 1\n"
            "  ret\n"
            "}\n"
        )
        with pytest.raises(ParseError, match="undefined register"):
            parse_module(text)

    def test_register_redefined(self):
        text = (
            "module m\n"
            "func @main() -> void {\n"
            "entry:\n"
            "  %x = add i64 1, i64 1\n"
            "  %x = add i64 2, i64 2\n"
            "  ret\n"
            "}\n"
        )
        with pytest.raises(ParseError, match="redefined"):
            parse_module(text)

    def test_missing_close_brace(self):
        with pytest.raises(ParseError, match="missing closing"):
            parse_module("module m\nfunc @main() -> void {\nentry:\n  ret\n")

    def test_unknown_instruction(self):
        text = "module m\nfunc @main() -> void {\nentry:\n  zorble i64 1\n}\n"
        with pytest.raises(ParseError):
            parse_module(text)


class TestPrinter:
    def test_format_instruction_shapes(self, sumsq_module):
        seen = set()
        for instr in sumsq_module.instructions():
            text = format_instruction(instr)
            assert text
            seen.add(instr.opcode)
        assert {"load", "fmul", "fadd", "store", "br", "condbr", "ret"} <= seen

    def test_phi_printing(self):
        text = (
            "module m\n"
            "func @main() -> void {\n"
            "entry:\n"
            "  br loop\n"
            "loop:\n"
            "  %p = phi i64 [entry: i64 0], [loop: i64 %p2]\n"
            "  %p2 = add i64 %p, i64 1\n"
            "  %c = icmp slt i64 %p2, i64 5\n"
            "  condbr i1 %c, loop, done\n"
            "done:\n"
            "  emit i64 %p\n"
            "  ret\n"
            "}\n"
        )
        m = parse_module(text)
        out = Program(m).run()
        assert out.output == [4]
        assert print_module(parse_module(print_module(m))) == print_module(m)
