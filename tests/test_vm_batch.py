"""Batch lockstep engine: detach edge cases must stay bit-identical to scalar.

The batch engine's contract is that its per-row observables — output stream
and trap — are *bit-identical* to the scalar injector's, whatever the fault
does to the row: trap mid-lockstep, diverge on the very last instruction,
land exactly on a tolerance boundary, or run as a batch of one. Each test
here builds the scalar reference with ``program.resume`` from the input's
entry snapshot, where the batch starts too, and compares raw observables (binary64 encodings for floats, trap class and
message for traps), not just classified outcomes.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.errors import Trap
from repro.fi.faultmodel import FaultSite, injectable_iids, sample_fault_sites
from repro.fi.outcome import Outcome, classify_run
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import F64, I64, VOID
from repro.util.bitops import float64_to_bits
from repro.util.rng import RngStream
from repro.vm.batch import BatchStats, run_trials_lockstep
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run

from tests.conftest import build_sum_squares_module

LIMIT = 200_000


def _scalar_raw(program, spec, args=None, bindings=None):
    """The scalar injector's observables for one fault: (output, trap)."""
    try:
        r = program.resume(
            program.entry_snapshot(args, bindings), fault=spec,
            step_limit=LIMIT,
        )
        return r.output, None
    except Trap as t:
        return None, t


def _assert_rows_identical(program, sites, args=None, bindings=None,
                           golden_output=None):
    """Every row's raw observables must match the scalar run bit-for-bit."""
    results, stats = run_trials_lockstep(
        program, sites, program.entry_snapshot(args, bindings),
        golden_output=golden_output or [], step_limit=LIMIT,
    )
    assert len(results) == len(sites)
    assert isinstance(stats, BatchStats) and stats.trials == len(sites)
    traps = 0
    for site, (out, trap) in zip(sites, results):
        sout, strap = _scalar_raw(program, site, args, bindings)
        label = f"site {site}"
        if strap is not None:
            traps += 1
            assert trap is not None, f"{label}: scalar trapped, batch did not"
            assert type(trap) is type(strap), label
            assert str(trap) == str(strap), label
        else:
            assert trap is None, f"{label}: batch trapped, scalar did not"
            assert len(out) == len(sout), label
            for a, b in zip(out, sout):
                if isinstance(b, float):
                    assert isinstance(a, float), label
                    assert float64_to_bits(a) == float64_to_bits(b), label
                else:
                    assert a == b, label
    return traps, stats


def test_fault_induced_trap_during_lockstep(sumsq_program, sumsq_data):
    """High-bit flips on address math trap mid-lockstep; rows must detach
    and reproduce the scalar trap exactly (class and message)."""
    args = [28]
    sites = [
        FaultSite(iid, instance, bit)
        for iid in injectable_iids(sumsq_program.module)
        for instance in (1, 5)
        for bit in (62, 63)
    ]
    traps, _ = _assert_rows_identical(
        sumsq_program, sites, args=args, bindings=sumsq_data
    )
    assert traps > 0, "edge case not exercised: no fault trapped"


def _tail_module() -> Module:
    """A kernel whose *last* injectable instruction feeds the output."""
    m = Module("tail")
    g = m.add_global("data", F64, 8)
    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    acc = b.local(F64, b.f64(0.0), hint="acc")
    with b.for_loop(b.i64(0), b.function.arg("n")) as i:
        x = b.load(b.gep(g, i), F64)
        b.set(acc, b.fadd(b.get(acc, F64), x))
    b.emit_output(b.fadd(b.get(acc, F64), b.f64(1.0)))
    b.ret()
    return m.finalize()


def test_divergence_on_final_instruction():
    """A fault on the last executed injectable instruction diverges with no
    trace left to share — the row must still finish identically."""
    program = Program(_tail_module())
    bindings = {"data": [float(i) + 0.5 for i in range(8)]}
    args = [8]
    gold = program.run(args=args, bindings=bindings)
    final_iid = injectable_iids(program.module)[-1]
    # The closing fadd runs exactly once, as the program's final
    # value-producing step; flip every bit class (mantissa/exponent/sign).
    sites = [FaultSite(final_iid, 1, bit) for bit in (0, 23, 51, 52, 62, 63)]
    _assert_rows_identical(
        program, sites, args=args, bindings=bindings,
        golden_output=gold.output,
    )
    # Sanity: these faults really do reach the output (not masked).
    flipped, _ = _scalar_raw(program, sites[3], args, bindings)
    assert float64_to_bits(flipped[0]) != float64_to_bits(gold.output[0])


def test_tolerance_boundary_float_compares():
    """Outputs landing exactly on the tolerance boundary must classify the
    same through both engines — including -0.0 and NaN encodings."""
    program = Program(_tail_module())
    bindings = {"data": [0.0] * 8}
    args = [8]
    gold = program.run(args=args, bindings=bindings)
    assert gold.output == [1.0]
    final_iid = injectable_iids(program.module)[-1]
    cases = [
        # sign flip of the final 1.0 -> -1.0: deviation exactly 2.0
        (FaultSite(final_iid, 1, 63), 2.0),
        # lowest mantissa bit: deviation exactly one ulp of 1.0
        (FaultSite(final_iid, 1, 0), math.ulp(1.0)),
    ]
    sites = [site for site, _dev in cases]
    results, _ = run_trials_lockstep(
        program, sites, program.entry_snapshot(args, bindings),
        golden_output=gold.output, step_limit=LIMIT,
    )
    for (site, dev), (out, trap) in zip(cases, results):
        sout, strap = _scalar_raw(program, site, args, bindings)
        assert trap is None and strap is None
        assert [float64_to_bits(v) for v in out] == [
            float64_to_bits(v) for v in sout
        ]
        # At abs_tol exactly the deviation the compare sits on the
        # boundary (math.isclose is <=, so this reads benign); one ulp
        # under flips it to SDC. Both engines must agree on both sides.
        for tol, expect in ((dev, Outcome.BENIGN),
                            (dev - math.ulp(dev), Outcome.SDC)):
            batch_o = classify_run(gold.output, out, trap, 0.0, tol)
            scalar_o = classify_run(gold.output, sout, strap, 0.0, tol)
            assert batch_o == scalar_o == expect, (site, tol)


def test_negative_zero_output_is_bit_preserved():
    """-0.0 equals 0.0 under tolerance compares but differs bitwise; the
    batch engine must not lose the encoding when splicing outputs."""
    program = Program(_tail_module())
    bindings = {"data": [0.0] * 8}
    args = [8]
    gold = program.run(args=args, bindings=bindings)
    # Flip the sign bit of one loaded 0.0: the row diverges bitwise
    # (-0.0 != 0.0 in the column planes) yet the final sum is unchanged.
    load_iid = next(
        iid for iid in injectable_iids(program.module)
        if program.module.instruction(iid).opcode == "load"
        and program.module.instruction(iid).type.is_float
    )
    site = FaultSite(load_iid, 3, 63)
    results, _ = run_trials_lockstep(
        program, [site], program.entry_snapshot(args, bindings),
        golden_output=gold.output, step_limit=LIMIT,
    )
    out, trap = results[0]
    sout, strap = _scalar_raw(program, site, args, bindings)
    assert trap is None and strap is None
    assert [float64_to_bits(v) for v in out] == [
        float64_to_bits(v) for v in sout
    ]


def test_batch_of_one(sumsq_program, sumsq_data):
    """A single-row batch exercises the degenerate mask paths."""
    args = [32]
    gold = sumsq_program.run(args=args, bindings=sumsq_data)
    profile = profile_run(sumsq_program, args=args, bindings=sumsq_data)
    sites = sample_fault_sites(
        sumsq_program.module, profile, 12, RngStream(13, "batch1")
    )
    for site in sites:
        traps, stats = _assert_rows_identical(
            sumsq_program, [site], args=args, bindings=sumsq_data,
            golden_output=gold.output,
        )
        assert stats.trials == 1


def test_empty_batch():
    program = Program(_tail_module())
    results, stats = run_trials_lockstep(program, [],
                                         program.entry_snapshot([8]))
    assert results == [] and stats.trials == 0


def _two_nan_module() -> Module:
    """Every float binop, both operand orders, on two loaded NaNs."""
    m = Module("nan2")
    g = m.add_global("data", F64, 2)
    b = Builder.new_function(m, "main", [], VOID)
    x = b.load(b.gep(g, b.i64(0)), F64)
    y = b.load(b.gep(g, b.i64(1)), F64)
    for op in ("fadd", "fsub", "fmul", "fdiv"):
        b.emit_output(b.binop(op, x, y))
        b.emit_output(b.binop(op, y, x))
    b.ret()
    return m.finalize()


def test_two_nan_operands_with_different_payloads():
    """Golden values, column rows and detached tails all take the first NaN
    operand, quieted (vm.ops.fnan), exactly like the scalar engine — also
    for rows whose flip turns a NaN signalling, finite or infinite."""
    nan = [struct.unpack("<d", struct.pack("<Q", bits))[0]
           for bits in (0x7FF8_0000_0000_0123, 0x7FF8_0000_0000_0456)]
    program = Program(_two_nan_module())
    bindings = {"data": nan}
    loads = [
        iid for iid in injectable_iids(program.module)
        if program.module.instruction(iid).opcode == "load"
    ]
    sites = [FaultSite(iid, 1, bit) for iid in loads for bit in range(64)]
    gold = program.run(bindings=bindings)
    assert [float64_to_bits(v) for v in gold.output[:2]] == [
        0x7FF8_0000_0000_0123, 0x7FF8_0000_0000_0456,
    ]
    _assert_rows_identical(program, sites, bindings=bindings,
                           golden_output=gold.output)
