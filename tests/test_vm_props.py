"""Property-based tests: interpreter arithmetic vs reference semantics.

Every property also runs the program on the reference ``if``-chain
interpreter and requires the compile tier to match it bit for bit.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import Trap
from repro.ir import F32, F64, I1, I8, I32, I64, Builder, Module, VOID
from repro.util.bitops import to_signed, to_unsigned
from repro.vm.interpreter import Program
from tests.conftest import ReferenceProgram, bits


def _outcome(prog, args, bindings=None):
    try:
        r = prog.run(args=args, bindings=bindings)
    except Trap as t:
        return ("trap", type(t).__name__, str(t)), None
    except Exception as e:  # host errors must match too (f32 of a huge int)
        return ("error", type(e).__name__, str(e)), None
    return ("ok", bits(r.output), r.steps), r


def run_both(m, args=(), bindings=None):
    """Run on the compile tier and the reference; require bit equality."""
    got, result = _outcome(Program(m), list(args), bindings)
    ref, _ = _outcome(ReferenceProgram(m), list(args), bindings)
    assert got == ref
    return result


def run_binop(opcode, a, b, type_=I64):
    m = Module("prop")
    bb = Builder.new_function(m, "main", [], VOID)
    bb.emit_output(bb.binop(opcode, bb.const(type_, a), bb.const(type_, b)))
    bb.ret()
    m.finalize()
    return run_both(m).output[0]


i64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestIntSemantics:
    @given(i64s, i64s)
    @settings(max_examples=40, deadline=None)
    def test_add_matches_twos_complement(self, a, b):
        assert run_binop("add", a, b) == to_signed(
            to_unsigned(a + b, 64), 64
        )

    @given(i64s, i64s)
    @settings(max_examples=40, deadline=None)
    def test_mul_matches(self, a, b):
        assert run_binop("mul", a, b) == to_signed(to_unsigned(a * b, 64), 64)

    @given(i64s, i64s.filter(lambda x: x != 0))
    @settings(max_examples=40, deadline=None)
    def test_sdiv_truncation(self, a, b):
        # C-style truncation toward zero, modulo 64-bit wrap of INT_MIN/-1.
        expect = to_signed(to_unsigned(int(math.trunc(a / b)) if abs(a) < 2**52 and abs(b) < 2**52 else abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1), 64), 64)
        assert run_binop("sdiv", a, b) == expect

    @given(i64s, i64s.filter(lambda x: x != 0))
    @settings(max_examples=40, deadline=None)
    def test_sdiv_srem_identity(self, a, b):
        """a == b * (a sdiv b) + (a srem b) in two's-complement arithmetic."""
        q = run_binop("sdiv", a, b)
        r = run_binop("srem", a, b)
        lhs = to_unsigned(a, 64)
        rhs = to_unsigned(b * q + r, 64)
        assert lhs == rhs

    @given(i64s, st.integers(min_value=0, max_value=70))
    @settings(max_examples=40, deadline=None)
    def test_shl_matches(self, a, s):
        expect = 0 if s >= 64 else to_signed(to_unsigned(a << s, 64), 64)
        assert run_binop("shl", a, s) == expect

    @given(i64s, i64s)
    @settings(max_examples=30, deadline=None)
    def test_xor_involution(self, a, b):
        x = run_binop("xor", a, b)
        assert run_binop("xor", x, b) == a


class TestFloatSemantics:
    @given(floats, floats)
    @settings(max_examples=40, deadline=None)
    def test_fadd_matches_python(self, a, b):
        got = run_binop("fadd", a, b, F64)
        expect = a + b
        assert got == expect or (math.isnan(got) and math.isnan(expect))

    @given(floats, floats.filter(lambda x: x != 0.0))
    @settings(max_examples=40, deadline=None)
    def test_fdiv_matches_python(self, a, b):
        got = run_binop("fdiv", a, b, F64)
        expect = a / b
        assert got == expect or (math.isnan(got) and math.isnan(expect))

    @given(floats)
    @settings(max_examples=30, deadline=None)
    def test_sqrt_square_nonnegative(self, x):
        m = Module("p")
        b = Builder.new_function(m, "main", [], VOID)
        sq = b.fmul(b.f64(x), b.f64(x))
        b.emit_output(b.fmath("sqrt", sq))
        b.ret()
        m.finalize()
        out = run_both(m).output[0]
        assert out >= 0.0 or math.isnan(out) is False


class TestDeterminism:
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_program_runs_bit_reproducible(self, n, seed):
        """Same module + same input -> byte-identical output, twice."""
        from repro.util.rng import RngStream

        m = Module("det")
        g = m.add_global("d", F64, 32)
        b = Builder.new_function(m, "main", [("n", I64)], VOID)
        acc = b.local(F64, b.f64(0.0))
        with b.for_loop(b.i64(0), b.function.arg("n")) as i:
            x = b.load(b.gep(g, i), F64)
            b.set(acc, b.fadd(b.get(acc, F64), b.fmath("sin", x)))
        b.emit_output(b.get(acc, F64))
        b.ret()
        m.finalize()
        rng = RngStream(seed)
        data = [rng.uniform(-10, 10) for _ in range(n)]
        p = Program(m)
        r1 = p.run(args=[n], bindings={"d": data})
        r2 = p.run(args=[n], bindings={"d": data})
        assert r1.output == r2.output and r1.steps == r2.steps
        r3 = run_both(m, args=[n], bindings={"d": data})
        assert bits(r3.output) == bits(r1.output)


# -- compile tier vs reference, operator by operator -------------------------

_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, _NAN_PAYLOAD,
                  1.0, -1.5, 5e-324, 1.7976931348623157e308, 3.5e38, -1e-40)
any_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                       st.floats(allow_nan=True, allow_infinity=True))
INT_TYPES = (I1, I8, I32, I64)
any_ints = st.one_of(st.sampled_from((0, 1, -1, 2**31, 2**63, -(2**63))),
                     st.integers(min_value=-(2**64), max_value=2**64))
INT_BINOPS = ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
              "and", "or", "xor", "shl", "lshr", "ashr")
ICMP = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP = ("oeq", "one", "olt", "ole", "ogt", "oge")
CASTS = (
    ("trunc", I64, I32), ("trunc", I64, I8), ("trunc", I32, I1),
    ("zext", I1, I32), ("zext", I8, I64), ("sext", I1, I64),
    ("sext", I8, I32), ("sext", I32, I64),
    ("fptosi", F64, I64), ("fptosi", F32, I8), ("fptoui", F64, I32),
    ("sitofp", I64, F64), ("sitofp", I8, F32), ("uitofp", I32, F32),
    ("uitofp", I64, F64), ("fpext", F32, F64), ("fptrunc", F64, F32),
)


def _coerce(value, type_):
    return float(value) if type_.is_float else int(value) & type_.mask


def run_op(build, operands, folded):
    """Emit ``build(b, *values)``; operands are ``(type, value)`` pairs,
    folded into the code as constants or passed as @main arguments."""
    m = Module("diff")
    params = [] if folded else [(f"x{i}", t) for i, (t, _) in enumerate(operands)]
    b = Builder.new_function(m, "main", params, VOID)
    if folded:
        values = [b.const(t, v) for t, v in operands]
    else:
        values = [b.function.arg(f"x{i}") for i in range(len(operands))]
    b.emit_output(build(b, *values))
    b.ret()
    m.finalize()
    args = [] if folded else [_coerce(v, t) for t, v in operands]
    run_both(m, args)


class TestCompiledMatchesReference:
    @given(st.sampled_from(INT_BINOPS), st.sampled_from(INT_TYPES),
           any_ints, any_ints, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_int_binops(self, op, t, a, b, folded):
        run_op(lambda bb, x, y: bb.binop(op, x, y), [(t, a), (t, b)], folded)

    @given(st.sampled_from(("fadd", "fsub", "fmul", "fdiv")),
           st.sampled_from((F32, F64)), any_floats, any_floats, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_float_binops(self, op, t, a, b, folded):
        run_op(lambda bb, x, y: bb.binop(op, x, y), [(t, a), (t, b)], folded)

    @given(st.sampled_from(ICMP), st.sampled_from(INT_TYPES), any_ints,
           any_ints, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_icmp(self, pred, t, a, b, folded):
        run_op(lambda bb, x, y: bb.icmp(pred, x, y), [(t, a), (t, b)], folded)

    @given(st.sampled_from(FCMP), any_floats, any_floats, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fcmp(self, pred, a, b, folded):
        run_op(lambda bb, x, y: bb.fcmp(pred, x, y), [(F64, a), (F64, b)], folded)

    @given(st.sampled_from(CASTS), any_ints, any_floats, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_casts(self, cast, i, f, folded):
        op, src, dst = cast
        run_op(lambda bb, x: bb.cast(op, x, dst),
               [(src, f if src.is_float else i)], folded)

    @given(st.sampled_from(("sqrt", "sin", "cos", "exp", "log", "fabs", "floor")),
           st.sampled_from((F32, F64)), any_floats, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fmath(self, fn, t, x, folded):
        run_op(lambda bb, v: bb.fmath(fn, v), [(t, x)], folded)

    @given(st.booleans(), any_floats, any_floats, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_select(self, c, a, b, folded):
        run_op(lambda bb, k, x, y: bb.select(k, x, y),
               [(I1, int(c)), (F64, a), (F64, b)], folded)
