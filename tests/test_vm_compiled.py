"""Differential tests: the compile tier against the reference ``if``-chain.

Every ``Program`` entry point runs generated per-block Python
(:mod:`repro.vm.compiler`); :class:`tests.conftest.ReferenceProgram` runs
the same decoded program on the original ``if``-chain interpreter. Each
test drives both through one entry point and requires bit-identical
observables: outputs (floats by their encoding), steps, counts, fault
firing, convergence, and the class and message of any trap. Each app runs
as written and SID-protected; the protected blocks run the original's
compiled code, relocated to the protected program's numbers.
"""

from __future__ import annotations

import builtins
import pickle
import random
from collections import OrderedDict

import pytest

from repro.apps import all_app_names
from repro.detectors.transform import duplicate_instructions
from repro.errors import Trap
from repro.fi.faultmodel import sample_fault_sites
from repro.fi.hostfault import HostFaultModel
from repro.ir import F64, I64, VOID, Builder, Module
from repro.ir.parser import parse_module
from repro.util.rng import RngStream
from repro.vm import compiler
from repro.vm.batch import run_trials_lockstep
from repro.vm.checkpoint import FrameSnapshot, Snapshot
from repro.vm.interpreter import INJECTABLE_OPCODES, FaultSpec, Program
from tests.conftest import ReferenceProgram, bits, cached_app, executed_sites

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
    """One app's compiled and reference programs on its reference input.

    ``protected`` duplicates every other executed injectable iid (SID with
    sync checks). The original runs on the compile tier first, so the
    protected program's blocks bind that code to their own numbers instead
    of compiling.
    """

    def __init__(self, name: str, protected: bool = False) -> None:
        app = cached_app(name)
        self.name = name
        self.args, self.bindings = app.encode(app.reference_input)
        module = app.module
        if protected:
            run = Program(module).run(args=self.args, bindings=self.bindings,
                                      profile=True)
            sites = executed_sites(module, run.instr_counts)
            module = duplicate_instructions(module, sites[::2]).module
        self.protected = protected
        self.compiled = Program(module)
        self.reference = ReferenceProgram(module)
        self.golden = self.reference.run(
            args=self.args, bindings=self.bindings, profile=True
        )
        self.limit = self.golden.steps * 8 + 10_000
        self.sites = executed_sites(module, self.golden.instr_counts)

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


@pytest.fixture(
    scope="module",
    params=[(name, False) for name in all_app_names()]
    + [(name, True) for name in all_app_names()],
    ids=lambda p: f"{p[0]}-sid" if p[1] else p[0],
)
def pair(request) -> Pair:
    return Pair(*request.param)


class TestApps:
    def test_golden_profile(self, pair):
        got = pair.compiled.run(args=pair.args, bindings=pair.bindings,
                                profile=True)
        ref = pair.golden
        assert bits(got.output) == bits(ref.output)
        assert got.steps == ref.steps
        assert got.instr_counts == ref.instr_counts
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
            outcomes.add(got[1] if got[0] == "trap" else got[3])
        assert True in outcomes  # faults actually fired
        if pair.protected:
            assert "DetectedError" in outcomes

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

    def test_thinned_profiled_recording(self, pair):
        # The fused golden pass: profiled, and thinned to a bounded store.
        runs = [
            p.run_checkpointed(args=pair.args, bindings=pair.bindings,
                               interval=64, profile=True, max_snapshots=6)
            for p in (pair.compiled, pair.reference)
        ]
        (got, got_snaps), (ref, ref_snaps) = runs
        assert (bits(got.output), got.steps, got.instr_counts,
                got.call_paths, got.checkpoint_interval) == (
            bits(ref.output), ref.steps, ref.instr_counts,
            ref.call_paths, ref.checkpoint_interval)
        assert snapshot_bits(got_snaps) == snapshot_bits(ref_snaps)
        assert got.call_paths == pair.golden.call_paths
        assert len(got_snaps) < 6

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


class TestBlockCounts:
    """The compile tier counts block entries and expands them per iid at
    each block event and when the run returns. A snapshot at every block
    boundary holds the reference's counts, also inside a callee, where
    each suspended caller has run its block only up to its call."""

    @pytest.mark.parametrize("protected", [False, True], ids=["orig", "sid"])
    @pytest.mark.parametrize("name", ["hpccg", "fft", "backprop"])
    def test_counts_at_every_block_boundary(self, name, protected):
        pair = Pair(name, protected)
        seen = []
        for prog in (pair.compiled, pair.reference):
            result, snaps = prog.run_checkpointed(
                args=pair.args, bindings=pair.bindings, interval=1,
                profile=True,
            )
            seen.append((
                result.instr_counts, result.call_paths,
                [(s.steps, len(s.frames), s.instr_counts) for s in snaps],
            ))
            del snaps  # a snapshot per block holds the whole memory
        got, ref = seen
        assert got[0] == ref[0] == pair.golden.instr_counts
        assert got[1] == ref[1] == pair.golden.call_paths
        assert got[2] == ref[2]
        assert any(depth > 1 for _, depth, _ in got[2])

    def test_counts_in_phi_blocks_around_calls(self):
        # No app has phis: a phi loop calling a phi loop, so snapshots land
        # in phi blocks, both entered and suspended at a call.
        m = parse_module(
            "module phicall\n"
            "func @tri(%x: i64) -> i64 {\n"
            "entry:\n"
            "  br loop\n"
            "loop:\n"
            "  %k = phi i64 [entry: i64 0], [loop: i64 %k1]\n"
            "  %acc = phi i64 [entry: i64 %x], [loop: i64 %acc1]\n"
            "  %acc1 = add i64 %acc, i64 %k\n"
            "  %k1 = add i64 %k, i64 1\n"
            "  %c = icmp slt i64 %k1, i64 3\n"
            "  condbr i1 %c, loop, done\n"
            "done:\n"
            "  ret i64 %acc1\n"
            "}\n"
            "func @main(%n: i64) -> void {\n"
            "entry:\n"
            "  br loop\n"
            "loop:\n"
            "  %a = phi i64 [entry: i64 1], [loop: i64 %b]\n"
            "  %b = phi i64 [entry: i64 2], [loop: i64 %a]\n"
            "  %i = phi i64 [entry: i64 0], [loop: i64 %j]\n"
            "  %t = call i64 @tri i64 %i\n"
            "  emit i64 %t\n"
            "  %j = add i64 %i, i64 1\n"
            "  %c = icmp slt i64 %j, i64 %n\n"
            "  condbr i1 %c, loop, done\n"
            "done:\n"
            "  emit i64 %a\n"
            "  ret\n"
            "}\n"
        )
        runs = [
            p.run_checkpointed(args=[4], interval=1, profile=True)
            for p in (Program(m), ReferenceProgram(m))
        ]
        (got, got_snaps), (ref, ref_snaps) = runs
        assert (got.instr_counts, got.call_paths) == (
            ref.instr_counts, ref.call_paths)
        assert snapshot_bits(got_snaps) == snapshot_bits(ref_snaps)
        assert any(len(s.frames) > 1 for s in got_snaps)


@pytest.fixture
def compiles(monkeypatch) -> list:
    """The sources ``compile()`` sees from here on, from an empty code cache."""
    seen: list = []

    def counting(source, *args, **kwargs):
        seen.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(compiler, "_CODE_CACHE", OrderedDict())
    monkeypatch.setattr(compiler, "compile", counting, raising=False)
    return seen


class TestRelocation:
    """Programs whose blocks differ only in their numbers share compiled
    code: slot indices, iids, gids and check labels are bound into a cached
    code object's constants, not compiled."""

    @pytest.mark.parametrize("name", all_app_names())
    def test_protected_variant_compiles_only_changed_blocks(self, name, compiles):
        app = cached_app(name)
        args, bindings = app.encode(app.reference_input)
        golden = Program(app.module).run(args=args, bindings=bindings,
                                         profile=True)
        assert compiles
        sites = executed_sites(app.module, golden.instr_counts)
        # Every iid after the duplicate shifts, and so do the slots after it.
        protected = duplicate_instructions(app.module, [sites[len(sites) // 2]])
        del compiles[:]
        run = Program(protected.module).run(args=args, bindings=bindings,
                                            profile=True)
        assert bits(run.output) == bits(golden.output)
        assert len(compiles) <= 1

    @pytest.mark.parametrize("name", all_app_names())
    def test_same_module_reuses_code_objects(self, name, compiles):
        app = cached_app(name)
        args, bindings = app.encode(app.reference_input)
        first, second = Program(app.module), Program(app.module)
        first.run(args=args, bindings=bindings, profile=True)
        n = len(compiles)
        second.run(args=args, bindings=bindings, profile=True)
        assert len(compiles) == n
        fns = second._compiled._fns
        assert fns.keys() == first._compiled._fns.keys()
        # A block takes its shape's cached code object as it is; a later
        # block of the same shape in the same Program gets its own copy.
        cached = {id(code) for code, _, _ in compiler._CODE_CACHE.values()}
        shared = 0
        for key, fn in first._compiled._fns.items():
            mine = fns[key].__code__
            if id(fn.__code__) in cached:
                assert mine is fn.__code__, key
                shared += 1
            else:
                assert mine is not fn.__code__, key
                assert (mine.co_code, mine.co_consts) == (
                    fn.__code__.co_code, fn.__code__.co_consts), key
        assert shared == n


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
        """Replay the batch engine's own mid-block detach snapshots.

        A row whose divergent-address store would need a mixed-dtype column
        detaches at the store (``store-dtype``), so its tail resumes mid-block.
        These 512-fault batches produce such detaches on kmeans and fft.
        """
        for name in ("kmeans", "fft"):
            pair = Pair(name)
            prog = Program(cached_app(name).module)
            recorded = []
            real_resume = prog.resume

            def recording_resume(snapshot, *args, **kwargs):
                recorded.append((snapshot, kwargs))
                return real_resume(snapshot, *args, **kwargs)

            prog.resume = recording_resume
            sites = sample_fault_sites(prog.module, pair.golden, 512,
                                       RngStream(5, "mid"))
            run_trials_lockstep(prog, [s.to_spec() for s in sites],
                                args=pair.args, bindings=pair.bindings,
                                golden_output=pair.golden.output,
                                step_limit=pair.limit)
            resumed = 0
            for snap, kwargs in recorded:
                if snap.frames[-1].code_index < 0:
                    continue
                got, ref = (
                    observe(lambda p=p: p.resume(snap, **kwargs))
                    for p in (pair.compiled, pair.reference)
                )
                assert got == ref
                resumed += 1
            assert resumed, name

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


def build_floor_module() -> Module:
    """``floor(-2.7 * 1.0)``, emitted directly and after a store/load
    round trip through a float global."""
    m = Module("floor")
    g = m.add_global("cell", F64, 1)
    b = Builder.new_function(m, "main", [], VOID)
    x = b.fmul(b.f64(-2.7), b.f64(1.0))
    y = b.fmath("floor", x)
    b.emit_output(y)
    b.store(y, b.gep(g, b.i64(0)))
    b.emit_output(b.load(b.gep(g, b.i64(0)), F64))
    b.emit_output(b.fmath("floor", b.fmul(b.f64(-0.0), b.f64(1.0))))
    b.ret()
    return m.finalize()


class TestFloor:
    """``fmath floor`` yields a float on every executor (never a host int)."""

    def test_golden_output_is_float(self):
        m = build_floor_module()
        for prog in (Program(m), ReferenceProgram(m)):
            out = prog.run().output
            assert [type(v) for v in out] == [float, float, float]
            assert bits(out) == bits([-3.0, -3.0, -0.0])

    def test_faults_identical_across_executors(self):
        m = build_floor_module()
        fmul = next(i for i in m.instructions() if i.opcode == "fmul")
        faults = [FaultSpec(fmul.iid, 1, bit) for bit in range(64)]
        compiled, reference = Program(m), ReferenceProgram(m)
        golden = compiled.run().output
        batch, _stats = run_trials_lockstep(
            compiled, faults, golden_output=golden, step_limit=10_000
        )
        for fault, (b_out, b_trap) in zip(faults, batch):
            got, ref = (
                observe(lambda p=p: p.run(fault=fault, step_limit=10_000))
                for p in (compiled, reference)
            )
            assert got == ref, fault
            assert b_trap is None and got[0] == "ok"
            assert bits(b_out) == got[1], fault
