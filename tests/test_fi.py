"""Tests for the fault-injection layer: model, outcomes, campaigns, stats."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DetectedError, HangTimeout, MemoryFault
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.fi.faultmodel import (
    injectable_iids,
    sample_fault_sites,
    sample_per_instruction_sites,
)
from repro.fi.injector import golden_run, inject_one
from repro.fi.outcome import Outcome, OutcomeCounts, classify_run, outputs_equal
from repro.fi.stats import (
    binomial_confidence_interval,
    required_trials,
    wilson_interval,
)
from repro.util.rng import RngStream
from repro.vm.profiler import profile_run


class TestOutputsEqual:
    def test_exact_ints(self):
        assert outputs_equal([1, 2], [1, 2])
        assert not outputs_equal([1, 2], [1, 3])

    def test_length_mismatch(self):
        assert not outputs_equal([1], [1, 2])

    def test_float_tolerance(self):
        assert outputs_equal([1.0], [1.0 + 1e-12], rel_tol=1e-9)
        assert not outputs_equal([1.0], [1.001], rel_tol=1e-9)

    def test_nan_is_corruption(self):
        assert not outputs_equal([1.0], [math.nan], rel_tol=1e-3)

    def test_nan_matches_nan(self):
        assert outputs_equal([math.nan], [math.nan])

    def test_inf_exact(self):
        assert outputs_equal([math.inf], [math.inf])
        assert not outputs_equal([math.inf], [-math.inf])


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def _loop_equal(golden, actual, rel_tol, abs_tol) -> bool:
    """``outputs_equal``'s rules, pair by pair, with no fast path."""
    if len(golden) != len(actual):
        return False
    for g, a in zip(golden, actual):
        if isinstance(g, float) or isinstance(a, float):
            g_f, a_f = float(g), float(a)
            if math.isnan(g_f) and math.isnan(a_f):
                continue
            if math.isnan(g_f) or math.isnan(a_f):
                return False
            if math.isinf(g_f) or math.isinf(a_f):
                if g_f != a_f:
                    return False
                continue
            if not math.isclose(g_f, a_f, rel_tol=rel_tol, abs_tol=abs_tol):
                return False
        elif g != a:
            return False
    return True


_SHARED_NAN = _nan(1)
_value = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1.0 + 1e-12, math.inf, -math.inf,
                     _SHARED_NAN, 2**53, float(2**53)]),
    st.integers(0, 3).map(_nan),  # a fresh NaN object per draw
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestOutputsEqualFastPath:
    """List ``==`` decides first; it must never change the answer."""

    @settings(max_examples=300, deadline=None)
    @given(
        golden=st.lists(_value, max_size=6),
        edits=st.lists(st.tuples(st.integers(0, 6), _value), max_size=3),
        extra=st.lists(_value, max_size=1),
        tol=st.sampled_from([(0.0, 0.0), (1e-9, 0.0), (1e-3, 1e-6)]),
    )
    def test_fast_path_keeps_the_answer(self, golden, edits, extra, tol):
        actual = list(golden)
        for i, v in edits:
            if i < len(actual):
                actual[i] = v
        actual += extra
        for g, a in ((golden, actual), (actual, golden), (golden, list(golden))):
            assert outputs_equal(g, a, *tol) is _loop_equal(g, a, *tol)

    def test_edge_pairs(self):
        for g, a, want in (
            ([0.0], [-0.0], True), ([1], [1.0], True),
            # Unequal under ==, but the loop rounds the int to the float.
            ([2**53 + 1], [float(2**53)], True), ([3], [3.5], False),
            ([_SHARED_NAN], [_SHARED_NAN], True), ([_nan(1)], [_nan(2)], True),
            ([math.inf], [math.inf], True), ([1.0], [1.0, 2.0], False),
        ):
            for tol in ((0.0, 0.0), (1e-9, 1e-12)):
                assert outputs_equal(g, a, *tol) is want
                assert _loop_equal(g, a, *tol) is want


class TestClassify:
    def test_benign(self):
        assert classify_run([1.0], [1.0], None) is Outcome.BENIGN

    def test_sdc(self):
        assert classify_run([1.0], [2.0], None) is Outcome.SDC

    def test_crash(self):
        assert classify_run([1.0], None, MemoryFault("x")) is Outcome.CRASH

    def test_hang(self):
        assert classify_run([1.0], None, HangTimeout("x")) is Outcome.HANG

    def test_detected(self):
        assert (
            classify_run([1.0], None, DetectedError("c", 1, 2)) is Outcome.DETECTED
        )

    def test_programmer_errors_propagate(self):
        with pytest.raises(ValueError):
            classify_run([1.0], None, ValueError("bug"))


class TestOutcomeCounts:
    def test_probability(self):
        c = OutcomeCounts()
        c.record(Outcome.SDC)
        c.record(Outcome.BENIGN)
        c.record(Outcome.SDC)
        assert c.sdc_probability == pytest.approx(2 / 3)
        assert c.total == 3

    def test_empty(self):
        assert OutcomeCounts().sdc_probability == 0.0

    def test_merged(self):
        a, b = OutcomeCounts(), OutcomeCounts()
        a.record(Outcome.SDC)
        b.record(Outcome.CRASH)
        m = a.merged(b)
        assert m.total == 2 and m.counts[Outcome.SDC] == 1


class TestFaultModel:
    def test_injectable_excludes_control(self, sumsq_module):
        inj = set(injectable_iids(sumsq_module))
        for i in sumsq_module.instructions():
            if i.opcode in ("store", "br", "condbr", "ret", "emit", "alloca"):
                assert i.iid not in inj

    def test_whole_program_sampling(self, sumsq_program, sumsq_data):
        prof = profile_run(sumsq_program, args=[8], bindings=sumsq_data)
        sites = sample_fault_sites(
            sumsq_program.module, prof, 50, RngStream(1)
        )
        assert len(sites) == 50
        counts = prof.instr_counts
        for s in sites:
            assert 1 <= s.instance <= counts[s.iid]
            width = sumsq_program.module.instruction(s.iid).type.width
            assert 0 <= s.bit < width

    def test_sampling_weighted_by_execution(self, sumsq_program, sumsq_data):
        """Hot loop instructions attract more faults than one-shot code."""
        prof = profile_run(sumsq_program, args=[16], bindings=sumsq_data)
        sites = sample_fault_sites(
            sumsq_program.module, prof, 400, RngStream(2)
        )
        loop_iids = {
            s.iid for s in sites
            if prof.instr_counts[s.iid] >= 16
        }
        assert len(loop_iids) > 0
        hot_fraction = sum(
            1 for s in sites if prof.instr_counts[s.iid] >= 16
        ) / len(sites)
        assert hot_fraction > 0.5

    def test_per_instruction_sampling(self, sumsq_program, sumsq_data):
        prof = profile_run(sumsq_program, args=[8], bindings=sumsq_data)
        fmul = [
            i.iid for i in sumsq_program.module.instructions() if i.opcode == "fmul"
        ][0]
        sites = sample_per_instruction_sites(
            sumsq_program.module, prof, fmul, 20, RngStream(3)
        )
        assert len(sites) == 20
        assert all(s.iid == fmul for s in sites)

    def test_unexecuted_instruction_gives_no_sites(self, branchy_program):
        prof = profile_run(
            branchy_program, args=[4, 100.0], bindings={"data": [1.0] * 4}
        )
        module = branchy_program.module
        dead = [
            i.iid
            for i in module.instructions()
            if i.opcode == "add" and prof.instr_counts[i.iid] == 0
        ]
        assert dead
        sites = sample_per_instruction_sites(
            module, prof, dead[0], 10, RngStream(4)
        )
        assert sites == []

    def test_non_injectable_target_rejected(self, sumsq_program, sumsq_data):
        prof = profile_run(sumsq_program, args=[8], bindings=sumsq_data)
        store = [
            i.iid for i in sumsq_program.module.instructions() if i.opcode == "store"
        ][0]
        with pytest.raises(ConfigError):
            sample_per_instruction_sites(
                sumsq_program.module, prof, store, 5, RngStream(5)
            )


class TestCampaigns:
    def test_campaign_outcome_totals(self, sumsq_program, sumsq_data):
        res = run_campaign(
            sumsq_program, 50, seed=11, args=[8], bindings=sumsq_data
        )
        assert res.trials == 50
        assert res.counts.total == 50
        assert len(res.per_fault) == 50

    def test_campaign_reproducible(self, sumsq_program, sumsq_data):
        a = run_campaign(sumsq_program, 40, seed=7, args=[8], bindings=sumsq_data)
        b = run_campaign(sumsq_program, 40, seed=7, args=[8], bindings=sumsq_data)
        assert a.per_fault == b.per_fault

    def test_campaign_seed_sensitivity(self, sumsq_program, sumsq_data):
        a = run_campaign(sumsq_program, 40, seed=7, args=[8], bindings=sumsq_data)
        b = run_campaign(sumsq_program, 40, seed=8, args=[8], bindings=sumsq_data)
        assert a.per_fault != b.per_fault

    def test_sdc_iids_subset_of_injectable(self, sumsq_program, sumsq_data):
        res = run_campaign(sumsq_program, 60, seed=1, args=[8], bindings=sumsq_data)
        assert res.sdc_iids() <= set(injectable_iids(sumsq_program.module))

    def test_per_instruction_campaign(self, sumsq_program, sumsq_data):
        res = run_per_instruction_campaign(
            sumsq_program, 5, seed=3, args=[8], bindings=sumsq_data
        )
        assert res.per_iid
        for iid, counts in res.per_iid.items():
            assert counts.total == 5
            assert 0.0 <= counts.sdc_probability <= 1.0

    def test_per_instruction_only_iids(self, sumsq_program, sumsq_data):
        fmul = [
            i.iid for i in sumsq_program.module.instructions() if i.opcode == "fmul"
        ]
        res = run_per_instruction_campaign(
            sumsq_program, 4, seed=3, args=[8], bindings=sumsq_data,
            only_iids=fmul,
        )
        assert set(res.per_iid) == set(fmul)

    def test_parallel_matches_serial(self, sumsq_program, sumsq_data):
        serial = run_campaign(
            sumsq_program, 64, seed=5, args=[8], bindings=sumsq_data, workers=0
        )
        parallel = run_campaign(
            sumsq_program, 64, seed=5, args=[8], bindings=sumsq_data, workers=2
        )
        assert serial.per_fault == parallel.per_fault


class TestStats:
    def test_wald_interval(self):
        lo, hi = binomial_confidence_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - lo < 0.25

    def test_wilson_behaved_at_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert 0.85 < lo < 1.0 and hi == 1.0

    def test_zero_trials(self):
        assert binomial_confidence_interval(0, 0) == (0.0, 1.0)
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_paper_error_bar_range(self):
        """1000-fault campaigns give sub-3.1% half-widths (paper §III-A3)."""
        lo, hi = binomial_confidence_interval(500, 1000)
        assert (hi - lo) / 2 <= 0.031

    def test_required_trials(self):
        n = required_trials(0.031, 0.5)
        assert 900 <= n <= 1100

    def test_required_trials_validation(self):
        with pytest.raises(ValueError):
            required_trials(0.0)

    def test_unsupported_confidence(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=0.42)
