"""Golden facts derived once per Program: the profile memo, the printed
text, and slot liveness computed only when a convergence check needs it."""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.errors import ArithmeticTrap
from repro.fi.campaign import run_campaign
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import I64, VOID
from repro.vm.checkpoint import record_checkpoints
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run
from tests.conftest import bits, build_sum_squares_module

DATA = {"data": [float(i % 7) - 3.0 for i in range(32)]}


def _same_profile(a, b) -> bool:
    return (
        a.instr_counts == b.instr_counts
        and a.instr_cycles == b.instr_cycles
        and a.total_cycles == b.total_cycles
        and a.fn_cycles == b.fn_cycles
        and a.call_paths == b.call_paths
        and a.steps == b.steps
        and bits(a.output) == bits(b.output)
    )


@pytest.fixture
def counted_runs(monkeypatch):
    """Every ``Program.run`` call, as ``(program, profile)``."""
    calls = []
    real = Program.run

    def run(self, *args, **kwargs):
        calls.append((self, kwargs.get("profile", False)))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Program, "run", run)
    return calls


def _nan(payload: int) -> float:
    """A quiet NaN carrying ``payload`` in its low mantissa bits."""
    bits_ = struct.pack("<Q", 0x7FF8_0000_0000_0000 | payload)
    return struct.unpack("<d", bits_)[0]


class TestProfileMemo:
    def test_second_call_executes_nothing(self, counted_runs):
        program = Program(build_sum_squares_module())
        first = profile_run(program, args=[24], bindings=DATA)
        again = profile_run(program, args=[24], bindings=dict(DATA))
        assert again is first
        assert len(counted_runs) == 1
        fresh = profile_run(
            Program(build_sum_squares_module()), args=[24], bindings=DATA
        )
        assert _same_profile(first, fresh)

    @pytest.mark.parametrize(
        "variant",
        [
            ([24], {"data": [0.0] * 32}, [24], {"data": [-0.0] * 32}),
            ([24], DATA, [24.0], DATA),
            ([24], {"data": [_nan(1)] * 32}, [24], {"data": [_nan(2)] * 32}),
        ],
        ids=["signed-zero", "int-vs-float", "nan-payload"],
    )
    def test_bit_exact_inputs_key_apart(self, variant, counted_runs):
        program = Program(build_sum_squares_module())
        a_args, a_bind, b_args, b_bind = variant
        profile_run(program, args=a_args, bindings=a_bind)
        profile_run(program, args=b_args, bindings=b_bind)
        assert len(program.golden_profiles) == 2
        assert len(counted_runs) == 2

    def test_trapping_input_raises_every_time(self, counted_runs):
        m = Module("divider")
        b = Builder.new_function(m, "main", [("d", I64)], VOID)
        b.emit_output(b.sdiv(b.i64(100), b.function.arg("d")))
        b.ret()
        program = Program(m.finalize())
        for _ in range(2):
            with pytest.raises(ArithmeticTrap):
                profile_run(program, args=[0])
        assert program.golden_profiles == {}
        assert len(counted_runs) == 2
        assert profile_run(program, args=[4]).output == [25]

    def test_profiled_recording_fills_the_memo(self, counted_runs):
        program = Program(build_sum_squares_module())
        store = record_checkpoints(program, args=[24], bindings=DATA,
                                   profile=True)
        assert profile_run(program, args=[24], bindings=DATA) is store.profile
        assert counted_runs == []

    def test_memoized_profiles_survive_a_study(self, monkeypatch, tmp_path):
        """After a bfs Fig. 2 + Fig. 6 study every profile a Program
        memoized still equals a fresh Program's: no caller mutated a
        shared profile."""
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.fig6 import run_fig6_study
        from repro.runconfig import KNOBS, run_scope
        from tests.test_exp_drivers import HEADLINE_BFS

        for knob in KNOBS.values():
            if knob.env:
                monkeypatch.delenv(knob.env, raising=False)
        programs = []
        real_init = Program.__init__

        def init(self, module):
            real_init(self, module)
            programs.append(self)

        monkeypatch.setattr(Program, "__init__", init)
        with run_scope(cache=str(tmp_path)):
            run_fig2_study(HEADLINE_BFS, measure_duplication=True)
            run_fig6_study(HEADLINE_BFS, measure_duplication=True)
        monkeypatch.undo()
        memoized = [
            (program, key, prof)
            for program in programs
            for key, prof in program.golden_profiles.items()
        ]
        assert len(memoized) > 10
        for program, key, prof in memoized:
            args, bindings = pickle.loads(key)
            fresh = profile_run(Program(program.module), args, bindings)
            assert _same_profile(prof, fresh), program.module.name


class TestProgramText:
    def test_printed_once_per_program(self, monkeypatch, tmp_path):
        from repro.vm import interpreter

        printed = []
        real = interpreter.print_module

        def counting(module):
            printed.append(module)
            return real(module)

        monkeypatch.setattr(interpreter, "print_module", counting)
        program = Program(build_sum_squares_module())
        for seed in (1, 2, 1):
            run_campaign(program, 8, seed, args=[24], bindings=DATA,
                         cache=str(tmp_path))
        assert printed == [program.module]


class TestLazyLiveness:
    def test_plain_profiled_and_recording_runs_skip_it(self):
        program = Program(build_sum_squares_module())
        program.run(args=[24], bindings=DATA)
        profile_run(program, args=[24], bindings=DATA)
        record_checkpoints(program, args=[24], bindings=DATA, interval=40)
        assert not program._live
        assert all(
            blk.live_in == () for dfn in program.functions.values()
            for blk in dfn.blocks.values()
        )

    def test_first_convergence_run_computes_it(self):
        from repro.vm.interpreter import FaultSpec

        program = Program(build_sum_squares_module())
        store = record_checkpoints(program, args=[24], bindings=DATA,
                                   interval=40)
        fault = FaultSpec(program.module.value_producing_iids()[-1], 1, 3)
        program.resume(store.snapshots[0], fault=fault,
                       convergence=store.snapshots[1:])
        assert program._live
        assert any(
            blk.live_in for dfn in program.functions.values()
            for blk in dfn.blocks.values()
        )
