"""Differential tests: the compile tier against the reference ``if``-chain.

Every ``Program`` entry point runs generated per-block Python
(:mod:`repro.vm.compiler`); :class:`tests.conftest.ReferenceProgram` runs
the same decoded program on the original ``if``-chain interpreter. Each
test drives both through one entry point and requires bit-identical
observables: outputs (floats by their encoding), steps, counts, fault
firing, convergence, and the class and message of any trap.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.apps import all_app_names
from repro.errors import Trap
from repro.fi.hostfault import HostFaultModel
from repro.ir import F64, I64, VOID, Builder, Module
from repro.ir.parser import parse_module
from repro.vm.batch import run_trials_lockstep
from repro.vm.checkpoint import FrameSnapshot, Snapshot
from repro.vm.interpreter import INJECTABLE_OPCODES, FaultSpec, Program
from tests.conftest import ReferenceProgram, bits, cached_app

FAULTY_RUNS = 40


def observe(run) -> tuple:
    """Everything a trial's classification can see, bit-exactly."""
    try:
        r = run()
    except Trap as t:
        return ("trap", type(t).__name__, str(t))
    return ("ok", bits(r.output), r.steps, r.fault_fired, r.converged,
            r.converged_output_len)


def snapshot_bits(snaps: list[Snapshot]) -> bytes:
    """Snapshots with every float replaced by its encoding."""
    return pickle.dumps([
        (s.steps, s.next_seg, bits(s.output), s.instr_counts,
         sorted((seg, bits(cells)) for seg, cells in s.mem.items()),
         [(f.fn, f.block, f.prev_gid, f.call_index, bits(f.slots),
           f.code_index) for f in s.frames])
        for s in snaps
    ])


class Pair:
    """One app's compiled and reference programs on its reference input."""

    def __init__(self, name: str) -> None:
        app = cached_app(name)
        self.name = name
        self.args, self.bindings = app.encode(app.reference_input)
        self.compiled = Program(app.module)
        self.reference = ReferenceProgram(app.module)
        self.golden = self.reference.run(
            args=self.args, bindings=self.bindings, profile=True
        )
        self.limit = self.golden.steps * 8 + 10_000
        counts = self.golden.instr_counts
        self.sites = [
            i.iid for i in app.module.instructions()
            if i.opcode in INJECTABLE_OPCODES and counts[i.iid] > 0
        ]

    def random_fault(self, rng: random.Random, after: list | None = None):
        """A fault on an executed injectable iid, optionally after ``after``
        (a snapshot's instr_counts)."""
        counts = self.golden.instr_counts
        for _ in range(100):
            iid = rng.choice(self.sites)
            seen = after[iid] if after is not None else 0
            if seen < counts[iid]:
                width = self.compiled.flip_info[iid][1]
                return FaultSpec(iid, rng.randint(seen + 1, counts[iid]),
                                 rng.randrange(width))
        return None


@pytest.fixture(scope="module", params=all_app_names())
def pair(request) -> Pair:
    return Pair(request.param)


class TestApps:
    def test_golden_profile(self, pair):
        got = pair.compiled.run(args=pair.args, bindings=pair.bindings,
                                profile=True)
        ref = pair.golden
        assert bits(got.output) == bits(ref.output)
        assert got.steps == ref.steps
        assert got.instr_counts == ref.instr_counts
        assert got.edge_counts == ref.edge_counts
        assert got.call_paths == ref.call_paths
        assert not got.fault_fired

    def test_faulty_runs(self, pair):
        rng = random.Random(f"faulty-{pair.name}")
        outcomes = set()
        for _ in range(FAULTY_RUNS):
            fault = pair.random_fault(rng)
            got, ref = (
                observe(lambda p=p: p.run(args=pair.args, bindings=pair.bindings,
                                          fault=fault, step_limit=pair.limit))
                for p in (pair.compiled, pair.reference)
            )
            assert got == ref, fault
            outcomes.add(got[0] if got[0] == "trap" else got[3])
        assert True in outcomes  # faults actually fired

    def test_hooks_only_on_value_producing_instructions(self, pair):
        # Stores, calls, emits, checks, phis and terminators carry no
        # fault hook: a fault naming them never fires, in either executor.
        others = [
            i.iid for i in pair.compiled.module.instructions()
            if i.opcode not in INJECTABLE_OPCODES and i.opcode != "alloca"
            and pair.golden.instr_counts[i.iid]
        ]
        for iid in random.Random(pair.name).sample(others, min(6, len(others))):
            fault = FaultSpec(iid, 1, 0)
            got, ref = (
                observe(lambda p=p: p.run(args=pair.args, bindings=pair.bindings,
                                          fault=fault))
                for p in (pair.compiled, pair.reference)
            )
            assert got == ref
            assert got[3] is False

    def test_checkpoints_and_resume(self, pair):
        interval = max(1, pair.golden.steps // 6)
        got, got_snaps = pair.compiled.run_checkpointed(
            args=pair.args, bindings=pair.bindings, interval=interval
        )
        ref, ref_snaps = pair.reference.run_checkpointed(
            args=pair.args, bindings=pair.bindings, interval=interval
        )
        assert (bits(got.output), got.steps, got.instr_counts) == (
            bits(ref.output), ref.steps, ref.instr_counts)
        assert snapshot_bits(got_snaps) == snapshot_bits(ref_snaps)

        rng = random.Random(f"resume-{pair.name}")
        for i, snap in enumerate(got_snaps):
            conv = got_snaps[i + 1:]
            faults = [None] + [
                f for f in (pair.random_fault(rng, after=snap.instr_counts)
                            for _ in range(3))
                if f is not None
            ]
            for fault in faults:
                results = [
                    observe(lambda p=p: p.resume(snap, fault=fault,
                                                 step_limit=pair.limit,
                                                 convergence=conv))
                    for p in (pair.compiled, pair.reference)
                ]
                assert results[0] == results[1], (i, fault)

    def test_convergence_oracles(self):
        pair = Pair("needle")
        _, snaps = pair.reference.run_checkpointed(
            args=pair.args, bindings=pair.bindings, interval=500
        )
        rng = random.Random("converge")
        converged = 0
        for _ in range(40):
            i = rng.randrange(len(snaps) - 1)
            fault = pair.random_fault(rng, after=snaps[i].instr_counts)
            got, ref = (
                observe(lambda p=p: p.resume(snaps[i], fault=fault,
                                             step_limit=pair.limit,
                                             convergence=snaps[i + 1:]))
                for p in (pair.compiled, pair.reference)
            )
            assert got == ref, fault
            converged += got[0] == "ok" and got[4]
        assert converged >= 5

    def test_sticky_host_fault(self, pair):
        opcodes = {i.opcode for i in pair.compiled.module.instructions()}
        model = HostFaultModel(opcode="fadd" if "fadd" in opcodes else "add",
                               bit=3, mode="intermittent", seed=11,
                               fire_rate=0.3, pattern_bits=3)
        runs = []
        for prog in (pair.compiled, pair.reference):
            sticky = model.bind(prog).start_run(salt=5)
            runs.append((
                observe(lambda prog=prog, sticky=sticky: prog.run(
                    args=pair.args, bindings=pair.bindings, sticky=sticky,
                    step_limit=pair.limit)),
                sticky.visits, sticky.corrupted, sticky.detected,
            ))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0


class TestPhis:
    def test_parallel_phi_swap(self):
        # Each phi reads the other's destination: all incomings must be
        # read before any slot is written.
        m = parse_module(
            "module swap\n"
            "func @main(%n: i64) -> void {\n"
            "entry:\n"
            "  br loop\n"
            "loop:\n"
            "  %a = phi i64 [entry: i64 1], [loop: i64 %b]\n"
            "  %b = phi i64 [entry: i64 2], [loop: i64 %a]\n"
            "  %i = phi i64 [entry: i64 0], [loop: i64 %j]\n"
            "  %j = add i64 %i, i64 1\n"
            "  %c = icmp slt i64 %j, i64 %n\n"
            "  condbr i1 %c, loop, done\n"
            "done:\n"
            "  emit i64 %a\n"
            "  emit i64 %b\n"
            "  ret\n"
            "}\n"
        )
        for n in (1, 2, 5):
            got, ref = (Program(m).run(args=[n]), ReferenceProgram(m).run(args=[n]))
            assert got.output == ref.output == ([1, 2] if n % 2 else [2, 1])
            assert got.steps == ref.steps


class TestMidBlockResume:
    def test_batch_detach_resumes(self):
        """Replay the batch engine's own mid-block detach snapshots."""
        resumed = []
        for name in ("needle", "pathfinder", "bfs"):
            pair = Pair(name)
            prog = Program(cached_app(name).module)
            recorded = []
            real_resume = prog.resume

            def recording_resume(snapshot, *args, **kwargs):
                recorded.append((snapshot, kwargs))
                return real_resume(snapshot, *args, **kwargs)

            prog.resume = recording_resume
            rng = random.Random(f"detach-{name}")
            faults = [pair.random_fault(rng) for _ in range(64)]
            faults = [f for f in faults if f is not None]
            run_trials_lockstep(prog, faults, args=pair.args,
                                bindings=pair.bindings,
                                golden_output=pair.golden.output,
                                step_limit=pair.limit)
            for snap, kwargs in recorded:
                if snap.frames[-1].code_index < 0:
                    continue
                got, ref = (
                    observe(lambda p=p: p.resume(snap, **kwargs))
                    for p in (pair.compiled, pair.reference)
                )
                assert got == ref
                resumed.append(name)
        assert resumed

    def test_every_code_index(self):
        """Resume a loop body at each of its code indexes, after a call."""
        m = Module("mid")
        g = m.add_global("d", F64, 8)
        sq = Builder.new_function(m, "sq", [("x", F64)], F64)
        sq.ret(sq.fmul(sq.function.arg("x"), sq.function.arg("x")))
        b = Builder.new_function(m, "main", [("n", I64)], VOID)
        acc = b.local(F64, b.f64(0.0))
        with b.for_loop(b.i64(0), b.function.arg("n")) as i:
            x = b.load(b.gep(g, i), F64)
            y = b.call("sq", [x], F64)
            b.set(acc, b.fadd(b.get(acc, F64), y))
            b.store(y, b.gep(g, i))
        b.emit_output(b.get(acc, F64))
        b.ret()
        m.finalize()
        args, bindings = [8], {"d": [0.5 * k - 1.0 for k in range(8)]}
        comp, ref = Program(m), ReferenceProgram(m)
        _, snaps = ref.run_checkpointed(args=args, bindings=bindings, interval=1)
        checked = 0
        for snap in snaps[2:]:
            fr = snap.frames[-1]
            blk = ref.functions[fr.fn].blocks[fr.block]
            # The loop body: its slots all hold the previous iteration's
            # values, a valid state both executors must continue alike.
            if len(snap.frames) != 1 or not any(d[0] == 35 for d in blk.code):
                continue
            for k in range(len(blk.code) + 1):
                frames = [FrameSnapshot(fr.fn, fr.block, fr.prev_gid, -1,
                                        list(fr.slots), k)]
                mid = Snapshot(steps=snap.steps + len(blk.code) + 1,
                               next_seg=snap.next_seg, output=list(snap.output),
                               instr_counts=snap.instr_counts,
                               mem={s: list(c) for s, c in snap.mem.items()},
                               frames=frames)
                got, want = (observe(lambda p=p: p.resume(mid))
                             for p in (comp, ref))
                assert got == want, (fr.block, k)
                checked += 1
        assert checked
