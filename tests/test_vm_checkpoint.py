"""Checkpoint/restore + convergence: the FI-acceleration engine's VM half.

The load-bearing property is *bit-identity*: a resumed execution must be
indistinguishable from a cold run that reached the same point — same output,
same steps, same trap behavior — for golden and faulty runs alike.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import IRError
from repro.fi.faultmodel import sample_fault_sites
from repro.fi.injector import inject_one, inject_one_resumed
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import F64, I64, VOID
from repro.util.rng import RngStream
from repro.vm.checkpoint import (
    CheckpointStore,
    auto_interval,
    record_checkpoints,
)
from repro.vm.interpreter import FaultSpec, Program
from repro.vm.profiler import profile_run


def build_callstack_module() -> Module:
    """main -> outer -> inner, with loops at every level.

    Exercises multi-frame snapshots: checkpoints land while two calls are
    suspended, so restore has to rebuild the Python call stack.
    """
    m = Module("callstack")
    g = m.add_global("data", F64, 16)

    b = Builder.new_function(m, "inner", [("j", I64)], F64)
    acc = b.local(F64, b.f64(0.0), hint="acc")
    with b.for_loop(b.i64(0), b.function.arg("j")) as k:
        x = b.load(b.gep(g, k), F64)
        b.set(acc, b.fadd(b.get(acc, F64), b.fmul(x, x)))
    b.ret(b.get(acc, F64))

    b = Builder.new_function(m, "outer", [("n", I64)], F64)
    tot = b.local(F64, b.f64(0.0), hint="tot")
    with b.for_loop(b.i64(1), b.function.arg("n")) as j:
        v = b.call("inner", [j], F64)
        b.set(tot, b.fadd(b.get(tot, F64), v))
    b.ret(b.get(tot, F64))

    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    b.emit_output(b.call("outer", [b.function.arg("n")], F64))
    b.ret()
    return m.finalize()


@pytest.fixture(scope="module")
def callstack_program() -> Program:
    return Program(build_callstack_module())


CALLSTACK_DATA = {"data": [0.5 * i - 3.0 for i in range(16)]}


class TestRecord:
    def test_snapshot_spacing_and_counts(self, sumsq_program, sumsq_data):
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=50
        )
        golden = sumsq_program.run(args=[24], bindings=sumsq_data)
        assert store.interval == 50
        assert store.golden_steps == golden.steps
        assert len(store) >= golden.steps // 50 - 1
        steps = [s.steps for s in store.snapshots]
        assert steps == sorted(steps)
        # Captures happen at the first block boundary past each threshold.
        for prev, cur in zip(steps, steps[1:]):
            assert cur - prev >= 50
        # Monotone per-instruction counts, consistent with the golden run.
        for prev, cur in zip(store.snapshots, store.snapshots[1:]):
            assert all(a <= b for a, b in zip(prev.instr_counts, cur.instr_counts))
            assert sum(cur.instr_counts) <= golden.steps

    def test_auto_interval_heuristic(self):
        # The 256-step floor, doubled until a run holds 12-23 snapshots.
        assert auto_interval(10) == 256
        assert auto_interval(480_000) == 32_768
        for steps in (6_144, 100_000, 480_000, 7_000_000):
            assert 12 <= steps // auto_interval(steps) < 24

    def test_auto_interval_from_hint(self, sumsq_program, sumsq_data):
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, steps_hint=480_000
        )
        assert store.interval == 32_768

    def test_rejects_bad_interval(self, sumsq_program, sumsq_data):
        with pytest.raises(IRError):
            record_checkpoints(
                sumsq_program, args=[8], bindings=sumsq_data, interval=0
            )

    def test_thinning_bounds_store_and_keeps_spacing(
        self, sumsq_program, sumsq_data
    ):
        golden = sumsq_program.run(args=[24], bindings=sumsq_data)
        result, snaps = sumsq_program.run_checkpointed(
            args=[24], bindings=sumsq_data, interval=8, max_snapshots=4
        )
        interval = result.checkpoint_interval
        assert interval in (16, 32, 64, 128) and 2 <= len(snaps) < 4
        steps = [s.steps for s in snaps]
        assert all(b - a >= interval for a, b in zip(steps, steps[1:]))
        for snap in snaps:
            r = sumsq_program.resume(snap)
            assert r.output == golden.output and r.steps == golden.steps
        with pytest.raises(IRError):
            sumsq_program.run_checkpointed(
                args=[24], bindings=sumsq_data, interval=8, max_snapshots=3
            )

    def test_snapshot_cycles_monotone(self, sumsq_program, sumsq_data):
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=60
        )
        cycles = [s.cycles for s in store.snapshots]
        assert cycles == sorted(cycles)
        assert cycles[0] > 0


class TestGoldenReplay:
    def test_replay_from_every_snapshot(self, sumsq_program, sumsq_data):
        golden = sumsq_program.run(args=[24], bindings=sumsq_data)
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=40
        )
        assert len(store) > 3
        for snap in store.snapshots:
            r = sumsq_program.resume(snap)
            assert r.output == golden.output
            assert r.steps == golden.steps

    def test_replay_through_call_stack(self, callstack_program):
        golden = callstack_program.run(args=[12], bindings=CALLSTACK_DATA)
        store = record_checkpoints(
            callstack_program, args=[12], bindings=CALLSTACK_DATA, interval=30
        )
        deep = [s for s in store.snapshots if len(s.frames) >= 3]
        assert deep, "no snapshot caught main->outer->inner suspended"
        for snap in store.snapshots:
            r = callstack_program.resume(snap)
            assert r.output == golden.output
            assert r.steps == golden.steps

    def test_snapshots_pickle_roundtrip(self, callstack_program):
        golden = callstack_program.run(args=[10], bindings=CALLSTACK_DATA)
        store = record_checkpoints(
            callstack_program, args=[10], bindings=CALLSTACK_DATA, interval=64
        )
        thawed: CheckpointStore = pickle.loads(pickle.dumps(store))
        assert len(thawed) == len(store)
        r = callstack_program.resume(thawed.snapshots[-1])
        assert r.output == golden.output and r.steps == golden.steps


class TestSnapshotLookup:
    def test_index_matches_linear_scan(self, sumsq_program, sumsq_data):
        prof = profile_run(sumsq_program, args=[24], bindings=sumsq_data)
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=45
        )
        sites = sample_fault_sites(
            sumsq_program.module, prof, 80, RngStream(13)
        )
        for s in sites:
            expected = -1
            for k, snap in enumerate(store.snapshots):
                if snap.instr_counts[s.iid] < s.instance:
                    expected = k
            assert store.snapshot_index_for(s.iid, s.instance) == expected

    def test_resume_rejects_past_instance(self, sumsq_program, sumsq_data):
        prof = profile_run(sumsq_program, args=[24], bindings=sumsq_data)
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=45
        )
        fmul = next(
            i.iid
            for i in sumsq_program.module.instructions()
            if i.opcode == "fmul"
        )
        assert prof.instr_counts[fmul] == 24
        last = store.snapshots[-1]
        done = last.instr_counts[fmul]
        assert done > 0
        with pytest.raises(IRError):
            sumsq_program.resume(last, fault=FaultSpec(fmul, done, 3))

    def test_convergence_tail_is_cached(self, sumsq_program, sumsq_data):
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=45
        )
        assert store.convergence_from(0) is store.convergence_from(0)
        assert store.convergence_from(-1) == store.snapshots


class TestFaultyResume:
    @pytest.mark.parametrize("n_sites", [60])
    def test_cold_and_resumed_outcomes_identical(
        self, sumsq_program, sumsq_data, n_sites
    ):
        prof = profile_run(sumsq_program, args=[24], bindings=sumsq_data)
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=40
        )
        sites = sample_fault_sites(
            sumsq_program.module, prof, n_sites, RngStream(21)
        )
        for s in sites:
            cold = inject_one(
                sumsq_program, s, prof.output, prof.steps,
                args=[24], bindings=sumsq_data,
            )
            warm = inject_one_resumed(
                sumsq_program, s, store, prof.output, prof.steps,
                args=[24], bindings=sumsq_data,
            )
            assert cold == warm, f"outcome diverged at {s}"

    def test_callstack_faults_identical(self, callstack_program):
        prof = profile_run(callstack_program, args=[12], bindings=CALLSTACK_DATA)
        store = record_checkpoints(
            callstack_program, args=[12], bindings=CALLSTACK_DATA, interval=30
        )
        sites = sample_fault_sites(
            callstack_program.module, prof, 60, RngStream(22)
        )
        for s in sites:
            cold = inject_one(
                callstack_program, s, prof.output, prof.steps,
                args=[12], bindings=CALLSTACK_DATA,
            )
            warm = inject_one_resumed(
                callstack_program, s, store, prof.output, prof.steps,
                args=[12], bindings=CALLSTACK_DATA,
            )
            assert cold == warm, f"outcome diverged at {s}"


class TestConvergence:
    def build_masked_module(self) -> Module:
        """Loop whose loaded value is logically masked (multiplied by 0)."""
        m = Module("masked")
        g = m.add_global("data", F64, 32)
        b = Builder.new_function(m, "main", [("n", I64)], VOID)
        acc = b.local(F64, b.f64(1.0), hint="acc")
        with b.for_loop(b.i64(0), b.function.arg("n")) as i:
            x = b.load(b.gep(g, i), F64)
            dead = b.fmul(x, b.f64(0.0))
            b.set(acc, b.fadd(b.get(acc, F64), dead))
        b.emit_output(b.get(acc, F64))
        b.ret()
        return m.finalize()

    def test_masked_fault_converges_early(self):
        prog = Program(self.build_masked_module())
        data = {"data": [1.0 + 0.25 * i for i in range(32)]}
        golden = prog.run(args=[32], bindings=data)
        store = record_checkpoints(
            prog, args=[32], bindings=data, interval=30
        )
        load_iid = next(
            i.iid for i in prog.module.instructions() if i.opcode == "load"
        )
        # Flip a low mantissa bit of a mid-loop load: the product with 0.0
        # is still 0.0, the corrupted slot dies, and the faulty state
        # re-joins the golden trajectory at the next snapshot boundary.
        fault = FaultSpec(load_iid, 16, 3)
        idx = store.snapshot_index_for(load_iid, 16)
        assert idx >= 0
        r = prog.resume(
            store.snapshots[idx],
            fault=fault,
            convergence=store.convergence_from(idx),
        )
        assert r.fault_fired
        assert r.converged
        assert r.steps < golden.steps
        spliced = r.output + golden.output[r.converged_output_len:]
        assert spliced == golden.output

    def test_convergence_never_changes_outcome(self, sumsq_program, sumsq_data):
        """SDC faults must not be misreported as converged-benign."""
        prof = profile_run(sumsq_program, args=[24], bindings=sumsq_data)
        store = record_checkpoints(
            sumsq_program, args=[24], bindings=sumsq_data, interval=40
        )
        fmul = next(
            i.iid
            for i in sumsq_program.module.instructions()
            if i.opcode == "fmul"
        )
        # A high-exponent-bit flip in the accumulator chain is a real SDC.
        fault_site = sample_fault_sites(
            sumsq_program.module, prof, 1, RngStream(1)
        )[0]
        cold = inject_one(
            sumsq_program,
            fault_site,
            prof.output,
            prof.steps,
            args=[24],
            bindings=sumsq_data,
        )
        warm = inject_one_resumed(
            sumsq_program,
            fault_site,
            store,
            prof.output,
            prof.steps,
            args=[24],
            bindings=sumsq_data,
        )
        assert cold == warm
        assert fmul  # exercised module stays referenced
