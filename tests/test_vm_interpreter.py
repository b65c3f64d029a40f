"""Semantics tests for the interpreter: every opcode, trap behaviour, faults."""

import math

import pytest

from repro.errors import (
    ArithmeticTrap,
    HangTimeout,
    IRError,
    MemoryFault,
    StackOverflow,
)
from repro.ir import F32, F64, I1, I8, I32, I64, PTR, Builder, Module, VOID
from repro.vm.interpreter import FaultSpec, Program
from repro.vm.memory import SEG_SHIFT
from tests.conftest import ReferenceProgram


def run_expr(build, args=(), arg_specs=(), ret_type=I64):
    """Build a main that emits build(b)'s value and run it."""
    m = Module("expr")
    b = Builder.new_function(m, "main", list(arg_specs), VOID)
    v = build(b)
    b.emit_output(v)
    b.ret()
    m.finalize()
    return Program(m).run(args=list(args)).output[0]


class TestIntegerOps:
    def test_add_wraps(self):
        v = run_expr(lambda b: b.add(b.const(I8, 200), b.const(I8, 100)))
        assert v == 300 & 0xFF  # wraps to 44, positive in signed i8

    def test_sub(self):
        assert run_expr(lambda b: b.sub(b.i64(3), b.i64(10))) == -7

    def test_mul(self):
        assert run_expr(lambda b: b.mul(b.i64(-4), b.i64(6))) == -24

    def test_sdiv_truncates_toward_zero(self):
        assert run_expr(lambda b: b.sdiv(b.i64(-7), b.i64(2))) == -3
        assert run_expr(lambda b: b.sdiv(b.i64(7), b.i64(-2))) == -3

    def test_srem_sign_follows_dividend(self):
        assert run_expr(lambda b: b.srem(b.i64(-7), b.i64(2))) == -1
        assert run_expr(lambda b: b.srem(b.i64(7), b.i64(-2))) == 1

    def test_udiv(self):
        assert run_expr(lambda b: b.udiv(b.const(I8, 0xFF), b.const(I8, 2))) == 127

    def test_division_by_zero_traps(self):
        m = Module("m")
        b = Builder.new_function(m, "main", [("n", I64)], VOID)
        b.emit_output(b.sdiv(b.i64(1), b.function.arg("n")))
        b.ret()
        m.finalize()
        with pytest.raises(ArithmeticTrap):
            Program(m).run(args=[0])

    def test_shl_overflow_is_zero(self):
        assert run_expr(lambda b: b.shl(b.i64(1), b.i64(64))) == 0

    def test_lshr(self):
        assert run_expr(lambda b: b.lshr(b.const(I8, 0x80), b.const(I8, 7))) == 1

    def test_ashr_sign_fills(self):
        assert run_expr(lambda b: b.ashr(b.const(I8, 0x80), b.const(I8, 7))) == -1

    def test_ashr_huge_shift_saturates(self):
        assert run_expr(lambda b: b.ashr(b.const(I8, 0x80), b.const(I8, 200))) == -1
        assert run_expr(lambda b: b.ashr(b.const(I8, 0x10), b.const(I8, 200))) == 0

    def test_bitwise(self):
        assert run_expr(lambda b: b.and_(b.i64(0b1100), b.i64(0b1010))) == 0b1000
        assert run_expr(lambda b: b.or_(b.i64(0b1100), b.i64(0b1010))) == 0b1110
        assert run_expr(lambda b: b.xor(b.i64(0b1100), b.i64(0b1010))) == 0b0110


class TestComparisons:
    @pytest.mark.parametrize(
        "pred,a,b,expect",
        [
            ("eq", 1, 1, 1), ("ne", 1, 2, 1),
            ("slt", -1, 0, 1), ("slt", 0, -1, 0),
            ("sle", 5, 5, 1), ("sgt", 1, -1, 1), ("sge", -2, -2, 1),
            ("ult", 1, 2, 1),
            ("ult", -1, 0, 0),  # -1 is max unsigned
            ("ule", 3, 3, 1), ("ugt", -1, 1, 1), ("uge", 0, 0, 1),
        ],
    )
    def test_icmp(self, pred, a, b, expect):
        got = run_expr(lambda bb: bb.zext(bb.icmp(pred, bb.i64(a), bb.i64(b)), I64))
        assert got == expect

    @pytest.mark.parametrize(
        "pred,a,b,expect",
        [
            ("oeq", 1.0, 1.0, 1), ("one", 1.0, 2.0, 1),
            ("olt", 1.0, 2.0, 1), ("ole", 2.0, 2.0, 1),
            ("ogt", 3.0, 2.0, 1), ("oge", 2.0, 2.0, 1),
        ],
    )
    def test_fcmp(self, pred, a, b, expect):
        got = run_expr(
            lambda bb: bb.zext(bb.fcmp(pred, bb.f64(a), bb.f64(b)), I64)
        )
        assert got == expect

    def test_fcmp_nan_all_false(self):
        for pred in ("oeq", "one", "olt", "ole", "ogt", "oge"):
            got = run_expr(
                lambda bb: bb.zext(
                    bb.fcmp(pred, bb.f64(float("nan")), bb.f64(1.0)), I64
                )
            )
            assert got == 0, pred


class TestFloatOps:
    def test_fdiv_by_zero_gives_inf(self):
        v = run_expr(lambda b: b.fdiv(b.f64(1.0), b.f64(0.0)))
        assert v == math.inf

    def test_fdiv_zero_by_zero_gives_nan(self):
        v = run_expr(lambda b: b.fdiv(b.f64(0.0), b.f64(0.0)))
        assert math.isnan(v)

    def test_fdiv_negative_zero(self):
        v = run_expr(lambda b: b.fdiv(b.f64(1.0), b.f64(-0.0)))
        assert v == -math.inf

    def test_f32_rounding(self):
        # 0.1 is not representable; f32 arithmetic must round.
        v = run_expr(
            lambda b: b.fadd(b.const(F32, 0.1), b.const(F32, 0.2))
        )
        assert v != pytest.approx(0.3, abs=1e-12)
        assert v == pytest.approx(0.3, abs=1e-6)

    def test_sqrt_negative_is_nan(self):
        assert math.isnan(run_expr(lambda b: b.fmath("sqrt", b.f64(-1.0))))

    def test_log_zero_is_neg_inf(self):
        assert run_expr(lambda b: b.fmath("log", b.f64(0.0))) == -math.inf

    def test_log_negative_is_nan(self):
        assert math.isnan(run_expr(lambda b: b.fmath("log", b.f64(-1.0))))

    def test_exp_overflow_is_inf(self):
        assert run_expr(lambda b: b.fmath("exp", b.f64(1e9))) == math.inf

    def test_floor(self):
        assert run_expr(lambda b: b.fmath("floor", b.f64(2.7))) == 2.0
        assert run_expr(lambda b: b.fmath("floor", b.f64(-2.1))) == -3.0

    def test_fabs(self):
        assert run_expr(lambda b: b.fmath("fabs", b.f64(-3.5))) == 3.5


class TestCasts:
    def test_trunc(self):
        assert run_expr(lambda b: b.trunc(b.i64(0x1FF), I8)) == -1  # 0xFF signed

    def test_zext_sext(self):
        assert run_expr(lambda b: b.zext(b.const(I8, 0xFF), I64)) == 0xFF
        assert run_expr(lambda b: b.sext(b.const(I8, 0xFF), I64)) == -1

    def test_fptosi_truncates(self):
        assert run_expr(lambda b: b.fptosi(b.f64(2.9))) == 2
        assert run_expr(lambda b: b.fptosi(b.f64(-2.9))) == -2

    def test_fptosi_nan_is_zero(self):
        assert run_expr(lambda b: b.fptosi(b.f64(float("nan")))) == 0

    def test_sitofp(self):
        assert run_expr(lambda b: b.sitofp(b.i64(-5))) == -5.0

    def test_fptrunc_rounds(self):
        v = run_expr(lambda b: b.cast("fptrunc", b.f64(0.1), F32))
        assert v != 0.1 and v == pytest.approx(0.1, abs=1e-7)


class TestMemoryOps:
    def test_alloca_load_store(self):
        def build(b):
            slot = b.alloca(I64, 4)
            p = b.gep(slot, b.i64(2))
            b.store(b.i64(7), p)
            return b.load(p, I64)

        assert run_expr(build) == 7

    def test_negative_gep_traps(self):
        m = Module("m")
        b = Builder.new_function(m, "main", [], VOID)
        slot = b.alloca(I64, 4)
        p = b.gep(slot, b.i64(-1))
        b.emit_output(b.load(p, I64))
        b.ret()
        m.finalize()
        with pytest.raises(MemoryFault):
            Program(m).run()

    def test_oob_load_traps(self):
        m = Module("m")
        b = Builder.new_function(m, "main", [], VOID)
        slot = b.alloca(I64, 4)
        b.emit_output(b.load(b.gep(slot, b.i64(4)), I64))
        b.ret()
        m.finalize()
        with pytest.raises(MemoryFault):
            Program(m).run()

    def test_null_page_traps(self):
        # Segment 0 is never mapped: a null pointer faults on load and store.
        for access in ("load", "store"):
            m = Module("m")
            b = Builder.new_function(m, "main", [], VOID)
            null = b.const(PTR, 0)
            if access == "load":
                b.emit_output(b.load(null, I64))
            else:
                b.store(b.i64(1), null)
            b.ret()
            m.finalize()
            for prog in (Program(m), ReferenceProgram(m)):
                with pytest.raises(MemoryFault, match=f"{access} .* 0x0"):
                    prog.run()

    def test_unmapped_segment_traps(self):
        m = Module("m")
        m.add_global("g", I64, 4)
        b = Builder.new_function(m, "main", [], VOID)
        b.emit_output(b.load(b.const(PTR, 99 << SEG_SHIFT), I64))
        b.ret()
        m.finalize()
        for prog in (Program(m), ReferenceProgram(m)):
            with pytest.raises(MemoryFault, match="load from 0x6300000"):
                prog.run()

    def test_stores_stay_in_their_segment(self):
        # A store to one segment's last cell leaves the next segment as it
        # was, for allocas and for a global next to one.
        m = Module("m")
        g = m.add_global("g", I64, 2, init=[5, 6])
        b = Builder.new_function(m, "main", [], VOID)
        first = b.alloca(I64, 4)
        second = b.alloca(I64, 4)
        b.store(b.i64(1), b.gep(second, b.i64(0)))
        b.store(b.i64(9), b.gep(first, b.i64(3)))
        b.store(b.i64(7), b.gep(g, b.i64(1)))
        b.emit_output(b.load(b.gep(first, b.i64(3)), I64))
        b.emit_output(b.load(b.gep(second, b.i64(0)), I64))
        b.emit_output(b.load(b.gep(g, b.i64(0)), I64))
        b.emit_output(b.load(b.gep(g, b.i64(1)), I64))
        b.ret()
        m.finalize()
        for prog in (Program(m), ReferenceProgram(m)):
            assert prog.run().output == [9, 1, 5, 7]

    def test_global_binding(self, sumsq_program):
        out = sumsq_program.run(args=[3], bindings={"data": [1.0, 2.0, 3.0]})
        assert out.output == [14.0]

    def test_binding_unknown_global(self, sumsq_program):
        with pytest.raises(IRError):
            sumsq_program.run(args=[1], bindings={"ghost": [1.0]})

    def test_binding_too_long(self, sumsq_program):
        with pytest.raises(IRError):
            sumsq_program.run(args=[1], bindings={"data": [0.0] * 1000})

    def test_runs_are_isolated(self, sumsq_program):
        """Memory mutations must not leak between runs."""
        a = sumsq_program.run(args=[3], bindings={"data": [1.0, 1.0, 1.0]})
        b = sumsq_program.run(args=[3])  # default zeros
        assert a.output == [3.0]
        assert b.output == [0.0]


class TestTraps:
    def test_hang_detection(self):
        m = Module("m")
        b = Builder.new_function(m, "main", [], VOID)
        loop = b.new_block("loop")
        b.br(loop)
        b.position_at_end(loop)
        b.br(loop)
        m.finalize()
        with pytest.raises(HangTimeout):
            Program(m).run(step_limit=1000)

    def test_stack_overflow(self):
        m = Module("m")
        bf = Builder.new_function(m, "spin", [], VOID)
        bf.call("spin", [], VOID)
        bf.ret()
        b = Builder.new_function(m, "main", [], VOID)
        b.call("spin", [], VOID)
        b.ret()
        m.finalize()
        with pytest.raises(StackOverflow):
            Program(m).run()

    def test_wrong_arg_count(self, sumsq_program):
        with pytest.raises(IRError):
            sumsq_program.run(args=[])


class TestFaultInjection:
    def test_fault_fires_and_corrupts(self, sumsq_program, sumsq_data):
        golden = sumsq_program.run(args=[8], bindings=sumsq_data)
        fmul = [
            i.iid for i in sumsq_program.module.instructions() if i.opcode == "fmul"
        ][0]
        r = sumsq_program.resume(
            sumsq_program.entry_snapshot([8], sumsq_data),
            fault=FaultSpec(fmul, 1, 62),
        )
        assert r.fault_fired
        assert r.output != golden.output

    def test_prefix_identical_until_fault(self, sumsq_program, sumsq_data):
        """A fault at the last instance only affects the tail of the run."""
        fadd = [
            i.iid for i in sumsq_program.module.instructions() if i.opcode == "fadd"
        ][0]
        r = sumsq_program.resume(
            sumsq_program.entry_snapshot([8], sumsq_data),
            fault=FaultSpec(fadd, 8, 52),
        )
        assert r.fault_fired

    def test_fault_on_unreached_instance_does_not_fire(
        self, sumsq_program, sumsq_data
    ):
        fadd = [
            i.iid for i in sumsq_program.module.instructions() if i.opcode == "fadd"
        ][0]
        r = sumsq_program.resume(
            sumsq_program.entry_snapshot([8], sumsq_data),
            fault=FaultSpec(fadd, 9999, 3),
        )
        assert not r.fault_fired
        assert r.output == sumsq_program.run(args=[8], bindings=sumsq_data).output

    def test_fault_determinism(self, sumsq_program, sumsq_data):
        f = FaultSpec(
            [i.iid for i in sumsq_program.module.instructions() if i.opcode == "load"][0],
            3,
            50,
        )
        entry = sumsq_program.entry_snapshot([8], sumsq_data)
        r1 = sumsq_program.resume(entry, fault=f)
        r2 = sumsq_program.resume(entry, fault=f)
        assert r1.output == r2.output

    def test_i1_flip_inverts_branch(self, branchy_program):
        data = {"data": [1.0] * 8}
        golden = branchy_program.run(args=[8, 0.5], bindings=data)
        icmp = [
            i.iid for i in branchy_program.module.instructions() if i.opcode == "fcmp"
        ][0]
        r = branchy_program.resume(
            branchy_program.entry_snapshot([8, 0.5], data),
            fault=FaultSpec(icmp, 4, 0),
        )
        assert r.fault_fired
        assert r.output != golden.output  # one element mis-classified

    def test_instance_is_one_based(self):
        with pytest.raises(ValueError):
            FaultSpec(0, 0, 0)
        with pytest.raises(ValueError):
            FaultSpec(0, 1, -1)


class TestProfiling:
    def test_counts_match_loop_trips(self, sumsq_program, sumsq_data):
        r = sumsq_program.run(args=[8], bindings=sumsq_data, profile=True)
        fmul = [
            i for i in sumsq_program.module.instructions() if i.opcode == "fmul"
        ][0]
        assert r.instr_counts[fmul.iid] == 8

    def test_profiling_does_not_change_output(self, sumsq_program, sumsq_data):
        a = sumsq_program.run(args=[8], bindings=sumsq_data)
        b = sumsq_program.run(args=[8], bindings=sumsq_data, profile=True)
        assert a.output == b.output
