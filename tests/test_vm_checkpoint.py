"""Checkpoint/restore + convergence: the FI-acceleration engine's VM half.

The load-bearing property is *bit-identity*: a resumed execution must be
indistinguishable from a cold run that reached the same point — same output,
same steps, same trap behavior — for golden and faulty runs alike.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.apps import all_app_names
from repro.errors import IRError, Trap
from repro.fi.campaign import run_campaign
from repro.fi.faultmodel import FaultSite, sample_fault_sites
from repro.fi.injector import inject_one, inject_one_resumed
from repro.fi.outcome import Outcome, classify_run
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import F64, I64, VOID
from repro.util.rng import RngStream
from repro.vm.batch import run_trials_lockstep
from repro.vm.checkpoint import (
    CheckpointStore,
    auto_interval,
    record_checkpoints,
)
from repro.vm.interpreter import INJECTABLE_OPCODES, FaultSpec, Program
from repro.vm.memory import SEG_SHIFT
from repro.vm.profiler import profile_run
from tests.conftest import ReferenceProgram, bits, cached_app, snapshot_bits


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
        # Touched segment sets travel with the snapshots, as to workers.
        assert snapshot_bits(thawed.snapshots) == snapshot_bits(store.snapshots)
        assert all(s.touched is not None for s in thawed.snapshots)
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
        )
        assert cold == warm
        assert fmul  # exercised module stays referenced

    def test_signed_zero_in_memory_blocks_convergence(self):
        """A faulty run whose memory differs from golden only in the sign
        of a zero equals it under ``==``: convergence must compare the
        bits of every segment the golden tail still touches, and may stop
        only where it touches the corrupted one no more."""
        m = Module("signed_zero")
        g = m.add_global("cells", F64, 16)
        b = Builder.new_function(m, "main", [("n", I64)], VOID)
        with b.for_loop(b.i64(0), b.function.arg("n")) as i:
            zero = b.fmul(b.sitofp(i, F64), b.f64(0.0))
            b.store(zero, b.gep(g, i))
        with b.for_loop(b.i64(0), b.function.arg("n")) as i:
            b.emit_output(b.fdiv(b.f64(1.0), b.load(b.gep(g, i), F64)))
        b.ret()
        m.finalize()
        fmul = next(i.iid for i in m.instructions() if i.opcode == "fmul")
        fault = FaultSpec(fmul, 5, 63)  # cells[4] becomes -0.0
        for prog in (Program(m), ReferenceProgram(m)):
            store = record_checkpoints(prog, args=[16], interval=12)
            golden = prog.run(args=[16]).output
            seg = prog.global_addr["cells"] >> SEG_SHIFT
            k = store.snapshot_index_for(fmul, 5)
            assert k >= 0
            cold = prog.resume(prog.entry_snapshot([16]), fault=fault)
            resumed = prog.resume(store.snapshots[k], fault=fault,
                                  convergence=store.convergence_from(k))
            output = resumed.output
            if resumed.converged:
                oracle = next(s for s in store.snapshots
                              if s.steps == resumed.steps)
                assert seg not in oracle.touched
                output = output + golden[resumed.converged_output_len:]
            assert bits(output) == bits(cold.output)
            assert cold.output[4] == float("-inf")


def pointer_faults(program: Program, counts: list, rng: random.Random,
                   n: int) -> list[FaultSite]:
    """Faults on executed pointer-producing instructions. Where a store
    writes through the pointer, low bits move it to another cell of its
    segment or past its end, and high bits to another segment or to none."""
    iids = [
        i.iid for i in program.module.instructions()
        if i.opcode in INJECTABLE_OPCODES and i.type.is_ptr and counts[i.iid]
    ]
    return [
        FaultSite(iid, rng.randint(1, counts[iid]),
                  rng.choice((0, 1, 3, 12, SEG_SHIFT, SEG_SHIFT + 1, 40)))
        for iid in (rng.choice(iids) for _ in range(n))
    ]


def resumed_trial(program: Program, store: CheckpointStore, site: FaultSite,
                  limit: int):
    """One checkpoint-resumed trial, as a campaign runs it: the output, or
    the trap's class and message."""
    k = store.snapshot_index_for(site.iid, site.instance)
    try:
        r = program.resume(store.snapshots[k], fault=site,
                           step_limit=limit,
                           convergence=store.convergence_from(k))
    except Trap as t:
        return type(t).__name__, str(t)
    return bits(r.output), r.converged


class TestSharedSegments:
    """Snapshots and resumed runs share memory segments copy-on-write: a
    run copies a segment the first time it stores to it, so nothing a
    trial or a recording does may change a snapshot once captured."""

    @pytest.mark.parametrize("name", all_app_names())
    def test_campaign_leaves_snapshots_intact(self, name):
        app = cached_app(name)
        args, bindings = app.encode(app.reference_input)
        program = Program(app.module)
        store = record_checkpoints(program, args, bindings, profile=True)
        before = snapshot_bits(store.snapshots)
        # The recording left the entry snapshot it started from as it was,
        # and gave it the whole run's touched segments.
        entry = store.snapshots[0]
        assert snapshot_bits([dataclasses.replace(entry, touched=None)]) == (
            snapshot_bits([program.entry_snapshot(args, bindings)]))
        assert entry.touched >= store.snapshots[1].touched
        run_campaign(program, 200, seed=9, args=args, bindings=bindings,
                     checkpoints=store, cache=False, workers=1,
                     engine="scalar")
        profile = store.profile
        limit = profile.steps * 8 + 10_000
        rng = random.Random(f"pointers-{name}")
        sites = pointer_faults(program, profile.instr_counts, rng, 40)
        trials = [resumed_trial(program, store, s, limit) for s in sites]
        assert snapshot_bits(store.snapshots) == before
        # The reference interpreter resumes from the same snapshots alike.
        reference = ReferenceProgram(app.module)
        for site, got in list(zip(sites, trials))[:12]:
            assert resumed_trial(reference, store, site, limit) == got, site
        assert snapshot_bits(store.snapshots) == before
        assert any(t is not None and t[0] == "MemoryFault" for t in trials)

    @pytest.mark.parametrize("name", all_app_names())
    def test_runs_leave_global_templates_intact(self, name):
        """An entry snapshot maps each unbound global to its template list,
        which every run shares and copies on write."""
        app = cached_app(name)
        args, bindings = app.encode(app.reference_input)
        program = Program(app.module)
        before = [(seg, bits(cells)) for seg, cells in program.global_template]
        entry = program.entry_snapshot(args, bindings)
        bound = {program.global_addr[g] >> SEG_SHIFT for g in bindings}
        for seg, cells in program.global_template:
            assert (entry.mem[seg] is cells) is (seg not in bound)
        program.run(args, bindings)
        golden = program.run(args, bindings, profile=True)

        sites = pointer_faults(program, golden.instr_counts,
                               random.Random(name), 3)

        class Sticky:  # a defective core: pointers move by one cell
            iids = {site.iid for site in sites}

            def visit(self, iid, val):
                return val ^ 1 if type(val) is int else val

        try:
            program.run(args, bindings, sticky=Sticky())
        except Trap:
            pass
        record_checkpoints(program, args, bindings, profile=True)
        for interval in ("auto", 0):
            run_campaign(program, 60, seed=4, args=args, bindings=bindings,
                         checkpoint_interval=interval, cache=False,
                         workers=1, engine="scalar")
        assert [(seg, bits(cells))
                for seg, cells in program.global_template] == before

    def test_consecutive_snapshots_share_unwritten_segments(self):
        """kmeans keeps hundreds of segments alive; between two snapshots
        the golden run stores to few of them."""
        app = cached_app("kmeans")
        args, bindings = app.encode(app.reference_input)
        written = []

        class Tracing(ReferenceProgram):
            # The segments the recording owns at each capture: those it
            # stored to or allocated since the previous one.
            def _block_event(self, state, *where):
                if state.ckpt is not None:
                    written.append(set(state.wmem))
                Program._block_event(state, *where)

        golden = Tracing(app.module).run(args=args, bindings=bindings)
        interval = golden.steps // 12
        Tracing(app.module).run_checkpointed(args=args, bindings=bindings,
                                             interval=interval)
        program = Program(app.module)
        store = record_checkpoints(program, args, bindings, interval=interval)
        snaps = store.snapshots
        # The entry snapshot, then one per capture.
        assert len(snaps) == len(written) + 1 > 10
        thawed = pickle.loads(pickle.dumps(store)).snapshots
        shared = unwritten = 0
        for k in range(1, len(snaps)):
            prev, cur = snaps[k - 1].mem, snaps[k].mem
            expect = set(prev) - written[k - 1]
            for pair in ((prev, cur), (thawed[k - 1].mem, thawed[k].mem)):
                got = {seg for seg, cells in pair[1].items()
                       if pair[0].get(seg) is cells}
                assert got == expect, k
            shared += len(expect)
            unwritten += len(prev)
            # Resuming the golden run re-joins it at the next snapshot:
            # each snapshot is the exact state of the golden trajectory.
            r = program.resume(snaps[k - 1], convergence=[snaps[k]],
                               fault_fired=True)
            assert r.converged and r.converged_output_len == len(
                snaps[k].output), k
        assert shared > 0.9 * unwritten

    def test_store_traps_through_corrupted_pointers(self):
        """A resumed run's first store to a segment takes the barrier's slow
        path, later ones the fast path; through a corrupted pointer, both
        trap like the reference: an unknown segment and an offset past the
        segment's end are each ``store to <address>``."""
        m = Module("wild_store")
        g = m.add_global("d", F64, 8)
        b = Builder.new_function(m, "main", [("n", I64)], VOID)
        with b.for_loop(b.i64(0), b.function.arg("n")) as i:
            b.store(b.sitofp(i, F64), b.gep(g, i))
        b.emit_output(b.load(b.gep(g, b.i64(7)), F64))
        b.ret()
        m.finalize()
        gep = next(i.iid for i in m.instructions() if i.opcode == "gep")
        comp, ref = Program(m), ReferenceProgram(m)
        store = record_checkpoints(comp, args=[8], interval=25)
        before = snapshot_bits(store.snapshots)
        trapped = {}
        for instance in range(2, 9):
            for bit in (1, 10, SEG_SHIFT, SEG_SHIFT + 1, 40):
                site = FaultSite(gep, instance, bit)
                k = store.snapshot_index_for(gep, instance)
                got = resumed_trial(comp, store, site, 10_000)
                assert got == resumed_trial(ref, store, site, 10_000), site
                if got is not None and got[0] == "MemoryFault":
                    addr = int(got[1].split()[-1], 16)
                    first = store.snapshots[k].instr_counts[gep] + 1 == instance
                    known = addr >> SEG_SHIFT in store.snapshots[k].mem
                    assert got[1].startswith("store to ")
                    trapped[first, known] = site
        assert snapshot_bits(store.snapshots) == before
        # Both barrier paths trapped on both kinds of bad address.
        assert set(trapped) == {(True, True), (True, False), (False, True),
                               (False, False)}


def build_parked_module(read_back: bool) -> Module:
    """@main stores one product into ``@parked`` at its start, then runs a
    loop over ``@data`` for ``n`` iterations and emits its sum. With
    ``read_back`` it adds ``@parked[0]`` to the sum after the loop, many
    checkpoint intervals after the store; without, nothing reads it."""
    m = Module("parked")
    parked = m.add_global("parked", F64, 4)
    data = m.add_global("data", F64, 16, init=[float(i) for i in range(16)])
    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    n = b.function.arg("n")
    b.store(b.fmul(b.sitofp(n, F64), b.f64(2.0)), b.gep(parked, b.i64(0)))
    acc = b.local(F64, b.f64(0.0), hint="acc")
    with b.for_loop(b.i64(0), n) as i:
        x = b.load(b.gep(data, b.and_(i, b.i64(15))), F64)
        b.set(acc, b.fadd(b.get(acc, F64), x))
    total = b.get(acc, F64)
    if read_back:
        total = b.fadd(total, b.load(b.gep(parked, b.i64(0)), F64))
    b.emit_output(total)
    b.ret()
    return m.finalize()


class TestTouchedSegments:
    """A convergence check compares only the segments the golden run
    touches after the oracle (``Snapshot.touched``)."""

    @pytest.mark.parametrize("name", all_app_names())
    def test_sets_shrink_and_cover_every_store(self, name):
        app = cached_app(name)
        args, bindings = app.encode(app.reference_input)
        program = Program(app.module)
        for interval in (None, 300):
            snaps = record_checkpoints(program, args, bindings,
                                       interval=interval).snapshots
            assert len(snaps) > 2
            for here, after in zip(snaps, snaps[1:]):
                assert here.touched >= after.touched
                # A store copies its segment, and an alloca makes one, so
                # the next snapshot holds another list for each.
                changed = {seg for seg, cells in after.mem.items()
                           if here.mem.get(seg) is not cells}
                assert changed
                assert changed <= here.touched

    @pytest.mark.parametrize("executor", [Program, ReferenceProgram])
    def test_fault_in_an_untouched_segment_converges_at_the_next_oracle(
        self, executor
    ):
        prog = executor(build_parked_module(read_back=False))
        store = record_checkpoints(prog, args=[64], interval=32)
        golden = prog.run(args=[64])
        fmul = next(i.iid for i in prog.module.instructions()
                    if i.opcode == "fmul")
        parked = prog.global_addr["parked"] >> SEG_SHIFT
        assert all(parked not in s.touched for s in store.snapshots[1:])
        result = prog.resume(store.snapshots[0], fault=FaultSpec(fmul, 1, 52),
                             convergence=store.convergence_from(0))
        assert result.converged
        assert result.steps == store.snapshots[1].steps
        outcome = inject_one_resumed(prog, FaultSite(fmul, 1, 52), store,
                                     golden.output, golden.steps)
        assert outcome is Outcome.BENIGN

    def test_a_segment_read_oracles_later_makes_an_sdc_on_every_executor(self):
        module = build_parked_module(read_back=True)
        fault = FaultSite(
            next(i.iid for i in module.instructions() if i.opcode == "fmul"),
            1, 52,
        )
        for prog in (Program(module), ReferenceProgram(module)):
            store = record_checkpoints(prog, args=[64], interval=32)
            golden = prog.run(args=[64])
            parked = prog.global_addr["parked"] >> SEG_SHIFT
            # The store comes first and the read back many oracles later.
            holding = [s for s in store.snapshots[1:] if parked in s.touched]
            assert len(holding) >= 3
            assert [parked not in s.touched for s in store.snapshots[1:]] == (
                [False] * len(holding)
                + [True] * (len(store.snapshots) - 1 - len(holding)))
            outcome = inject_one_resumed(prog, fault, store, golden.output,
                                         golden.steps)
            assert outcome is Outcome.SDC
            results, _ = run_trials_lockstep(
                prog, [fault], store.snapshots[0], golden.output,
                store.convergence_from(0), golden.steps * 8 + 10_000)
            (output, trap), = results
            assert classify_run(golden.output, output, trap) is Outcome.SDC
