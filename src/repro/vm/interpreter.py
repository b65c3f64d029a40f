"""The IR interpreter: decoding, run state, and the execution entry points.

A module is *decoded* once into flat per-instruction lists (integer opcode,
pre-resolved operand slots/constants, pre-computed masks) and then executed
repeatedly — fault-injection campaigns run the same :class:`Program`
thousands of times. Every execution starts from a snapshot
(:mod:`repro.vm.checkpoint`): :meth:`Program.run` (plain, profiled and
sticky golden runs) and :meth:`Program.run_checkpointed` from the input's
entry snapshot (:meth:`Program.entry_snapshot`), and :meth:`Program.resume`
(every fault-injection trial) from whichever snapshot it is given. All of
them execute on the compile tier (:mod:`repro.vm.compiler`), which turns
each decoded basic block into a generated Python function the first time it
runs. The decoded tables stay the one description of the program: the
compile tier generates from them, and the batch engine
(:mod:`repro.vm.batch`) replays them directly.

``Program._exec_fn`` is the original ``while``/``if``-``elif`` loop over the
decoded lists. No production path calls it. It remains as the reference
interpreter that the differential tests hold the compile tier to, bit for
bit, entry point by entry point.

Fault model hook
----------------
A :class:`FaultSpec` names a static instruction (iid), a dynamic instance
(1-based execution count of that instruction) and a bit position. The flip is
applied to the instruction's return value the moment that instance executes —
LLFI's single-bit-flip-into-return-value model. Execution up to the flip is
bit-identical to the golden run, so the targeted instance is always reached.
"""

from __future__ import annotations

import marshal
import math
import struct
from dataclasses import dataclass, field

from repro.errors import (
    ArithmeticTrap,
    HangTimeout,
    IRError,
    MemoryFault,
    DetectedError,
    StackOverflow,
)
from repro.ir.cfg import build_cfg
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.values import Argument, Constant, GlobalArray
from repro.obs.core import current as _obs_current
from repro.util.bitops import flip_value
from repro.vm.checkpoint import (
    FrameSnapshot,
    RecordingMap,
    Snapshot,
    assign_touched,
)
from repro.vm.compiler import CompiledProgram
from repro.vm.memory import MAX_SEGMENT_ELEMS, SEG_MASK, SEG_SHIFT
from repro.vm.ops import f32 as _f32, fnan as _fnan

__all__ = ["Program", "RunResult", "FaultSpec", "INJECTABLE_OPCODES"]

# Opcodes whose return value is a legitimate fault-injection target. Matches
# the paper's model: computational results (ALU/FPU/load/address generation).
# alloca/phi/call produce values but model no datapath computation of their
# own (call results are covered by the callee's ret operand chain).
INJECTABLE_OPCODES = frozenset(
    {
        "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
        "and", "or", "xor", "shl", "lshr", "ashr",
        "fadd", "fsub", "fmul", "fdiv",
        "icmp", "fcmp", "select", "fmath",
        "trunc", "zext", "sext", "fptosi", "fptoui", "sitofp", "uitofp",
        "fpext", "fptrunc",
        "load", "gep",
    }
)

# Dense integer opcodes for dispatch.
_OP = {
    name: i
    for i, name in enumerate(
        [
            "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",  # 0-6
            "and", "or", "xor", "shl", "lshr", "ashr",  # 7-12
            "fadd", "fsub", "fmul", "fdiv",  # 13-16
            "icmp", "fcmp", "select", "fmath",  # 17-20
            "trunc", "zext", "sext", "fptosi", "fptoui",  # 21-25
            "sitofp", "uitofp", "fpext", "fptrunc",  # 26-29
            "alloca", "load", "store", "gep", "phi",  # 30-34
            "call", "emit", "check", "checkrange",  # 35-38
        ]
    )
}

_ICMP_PRED = {"eq": 0, "ne": 1, "slt": 2, "sle": 3, "sgt": 4, "sge": 5,
              "ult": 6, "ule": 7, "ugt": 8, "uge": 9}
_FCMP_PRED = {"oeq": 0, "one": 1, "olt": 2, "ole": 3, "ogt": 4, "oge": 5}
_FMATH = {"sqrt": 0, "sin": 1, "cos": 2, "exp": 3, "log": 4, "fabs": 5, "floor": 6}

_unpack_f = struct.Struct("<f").unpack
_pack_d = struct.Struct("<d").pack
_unpack_Q = struct.Struct("<Q").unpack
_pack_Q = struct.Struct("<Q").pack
_unpack_d = struct.Struct("<d").unpack
_pack_I = struct.Struct("<I").pack
_unpack_I = struct.Struct("<I").unpack

_M64 = (1 << 64) - 1
_TWO52 = 4503599627370496.0

#: Sentinel for "no block event pending" — never reached by real step counts.
_NEVER = 1 << 62


def _note_run(
    state: "_RunState",
    base_steps: int = 0,
    faulty: bool = False,
    converged: bool = False,
) -> None:
    """Telemetry accounting for one completed (non-trapped) execution from
    a snapshot at step ``base_steps``.

    One ``current()`` call when telemetry is off; every recorded quantity is
    deterministic in (program, input, seed), so counters agree across worker
    counts (workers accumulate locally and are reduced by the parent). A
    run from a snapshot past the entry one is a checkpoint restore, and
    ``vm.steps`` leaves out the golden prefix it skipped.
    """
    t = _obs_current()
    if t is None:
        return
    if base_steps:
        t.count("vm.checkpoint.restores")
    t.count("vm.runs")
    t.count("vm.steps", state.steps - base_steps)
    if faulty:
        t.count("vm.faulty_runs")
    if converged:
        t.count("vm.converged_runs")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: flip ``bit`` of the ``instance``-th execution of
    static instruction ``iid``'s return value (instance counts from 1).

    The fault-injection layer samples and reports these as
    :class:`repro.fi.faultmodel.FaultSite`, another name for this class.
    """

    iid: int
    instance: int
    bit: int

    def __post_init__(self) -> None:
        if self.instance < 1:
            raise ValueError("fault instance is 1-based")
        if self.bit < 0:
            raise ValueError("fault bit must be non-negative")


@dataclass
class RunResult:
    """Everything observable about one program execution."""

    #: Values the program emitted, in order — the output compared for SDCs.
    output: list = field(default_factory=list)
    #: Executed dynamic instructions (block-granular accounting).
    steps: int = 0
    #: Per-iid execution counts (only when profiling was requested).
    instr_counts: list[int] | None = None
    #: Call-path entry counts keyed by the tuple of function names from
    #: ``main`` down to the entered function (only when profiling was
    #: requested) — the raw material of folded flamegraph stacks.
    call_paths: dict[tuple[str, ...], int] | None = None
    #: Whether the requested fault actually fired during the run.
    fault_fired: bool = False
    #: Whether the run early-exited because its state became bit-identical to
    #: a golden checkpoint (``convergence`` runs only). ``output`` then holds
    #: only the values emitted up to that point; the caller splices the
    #: golden tail from ``converged_output_len`` onward.
    converged: bool = False
    #: Number of values the *golden* run had emitted at the matched
    #: checkpoint (the splice point into the golden output).
    converged_output_len: int = 0
    #: Spacing of the snapshots a checkpointed run kept (0 for other runs);
    #: every thinning under ``max_snapshots`` doubles it.
    checkpoint_interval: int = 0


class _DecodedBlock:
    __slots__ = (
        "gid", "phis", "code", "term", "name", "live_in", "live_after_call",
    )

    def __init__(self, gid: int, name: str) -> None:
        self.gid = gid
        self.name = name
        self.phis: list = []
        self.code: list = []
        self.term: list | None = None
        # Liveness, for convergence checks: slots readable at block entry,
        # and slots readable after each suspended call site (by code index).
        # Filled by Program._liveness before the first convergence check.
        self.live_in: tuple = ()
        self.live_after_call: dict[int, tuple] = {}


class _DecodedFunction:
    __slots__ = ("name", "n_slots", "blocks", "entry", "arg_slots")

    def __init__(self, name: str) -> None:
        self.name = name
        self.n_slots = 0
        self.blocks: dict[str, _DecodedBlock] = {}
        self.entry: _DecodedBlock | None = None
        self.arg_slots = 0


class _RunState:
    __slots__ = (
        "mem", "wmem", "next_seg", "output", "steps", "limit", "depth",
        "f_iid", "f_instance", "f_bit", "f_seen", "f_fired",
        "sticky",
        "counts", "bc", "paths", "path_stack",
        "event_at", "ckpt", "conv", "conv_idx", "shadow",
        "tbl", "ct", "rv",
    )

    def __init__(self) -> None:
        # Copy-on-write memory: loads read ``mem``, which maps every live
        # segment; stores write only the segments in ``wmem``, the ones this
        # run owns (the same list objects). A store to a segment ``mem``
        # shares with a snapshot first copies it into both maps. Code that
        # holds either map as a local relies on neither being rebound.
        self.mem: dict[int, list] = {}
        self.wmem: dict[int, list] = {}
        self.next_seg = 1
        self.output: list = []
        self.steps = 0
        self.limit = 0
        self.depth = 0
        self.f_iid = -1
        self.f_instance = -1
        self.f_bit = 0
        self.f_seen = 0
        self.f_fired = False
        # Sticky host-fault visitor (repro.fi.hostfault.StickyRun), duck-
        # typed as `.iids` + `.visit(iid, val)`. None on transient-only runs.
        self.sticky = None
        # Per-iid execution counts (None: the run does not count). The
        # reference interpreter adds to them as it goes; the compile tier
        # counts block entries into ``bc`` (gid-indexed) and expands them
        # into ``counts`` at each block event and when the run returns.
        self.counts: list[int] | None = None
        self.bc: list[int] | None = None
        # Call-path profiling (profile runs only): the live function-name
        # stack and entry counts per path. Exceptions abort a profile run
        # outright, so the stack only needs to balance on the ret path.
        self.paths: dict[tuple[str, ...], int] | None = None
        self.path_stack: list[str] | None = None
        # Block-event machinery (checkpoint capture / convergence pruning).
        # Plain runs keep event_at at the sentinel so the hot loop pays a
        # single always-false integer comparison per block.
        self.event_at = _NEVER
        self.ckpt: _CkptState | None = None
        self.conv: list[Snapshot] | None = None
        self.conv_idx = 0
        self.shadow: list | None = None
        # Compile tier: the run's gid-indexed block-function table, the
        # CompiledProgram that fills it, and the last ret value.
        self.tbl: list | None = None
        self.ct: CompiledProgram | None = None
        self.rv = None


class _CkptState:
    """Recording side of checkpointing: interval + captured snapshots.

    ``cap`` (0 = none) bounds the store of a run whose length is unknown:
    on reaching it, every other snapshot goes and the interval doubles.
    ``intervals[k]`` holds the segments the run touched up to capture
    ``k`` since the capture (or the entry snapshot) before it.
    """

    __slots__ = ("interval", "snapshots", "intervals", "cap")

    def __init__(self, interval: int, cap: int = 0) -> None:
        self.interval = interval
        self.snapshots: list[Snapshot] = []
        self.intervals: list[set] = []
        self.cap = cap


class _Frame:
    """A resolved snapshot frame (names mapped back onto decoded objects)."""

    __slots__ = ("dfn", "blk", "prev_gid", "call_index", "slots")

    def __init__(self, dfn, blk, prev_gid: int, call_index: int, slots: list):
        self.dfn = dfn
        self.blk = blk
        self.prev_gid = prev_gid
        self.call_index = call_index
        self.slots = slots


class _Converged(Exception):
    """Internal: faulty state re-joined the golden trajectory at a snapshot."""

    __slots__ = ("snapshot",)

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot


def _cells_equal(a: list, b: list) -> bool:
    """Bit-exact equality of two segments' cells.

    ``==`` runs first, in C, and stops at the first differing cell. It
    conflates −0.0 with 0.0 and 1 with 1.0, so equal lists are then
    compared as their ``marshal`` encodings, also in C: version 2 writes
    each int by value and each float as its eight bytes, NaN payloads
    included, and never refers back to an earlier object. A NaN cell fails
    ``==`` unless both sides hold the same object, which is merely
    conservative.
    """
    return a == b and marshal.dumps(a, 2) == marshal.dumps(b, 2)


def _live_slots_equal(a: list, b: list, live: tuple) -> bool:
    """Bit-exact equality of two slot lists restricted to ``live`` indexes."""
    for i in live:
        x = a[i]
        y = b[i]
        if x != y or type(x) is not type(y):
            return False
        if type(x) is float and _pack_d(x) != _pack_d(y):
            return False
    return True


def _slot_map(fn) -> dict[int, int]:
    """Value slot of each argument and value-producing instruction of
    ``fn``, by ``id``: arguments first, then results in block order."""
    slots: dict[int, int] = {}
    for i, arg in enumerate(fn.args):
        slots[id(arg)] = i
    n = len(fn.args)
    for instr in fn.instructions():
        if instr.produces_value:
            slots[id(instr)] = n
            n += 1
    return slots


class Program:
    """A decoded, executable module.

    Parameters
    ----------
    module:
        A finalized :class:`~repro.ir.module.Module`.
    """

    def __init__(self, module: Module) -> None:
        if not module.finalized:
            module.finalize()
        self.module = module
        self.cfg = build_cfg(module)
        # Globals own the first segments, in declaration order.
        self.global_addr: dict[str, int] = {}
        self.global_template: list[tuple[int, list]] = []
        seg = 1
        for g in module.globals.values():
            if g.size > MAX_SEGMENT_ELEMS:
                raise IRError(f"global @{g.name} exceeds segment capacity")
            self.global_addr[g.name] = seg << SEG_SHIFT
            default = 0.0 if g.elem_type.is_float else 0
            cells = [default] * g.size
            if g.init is not None:
                for i, v in enumerate(g.init):
                    cells[i] = float(v) if g.elem_type.is_float else int(v)
            self.global_template.append((seg, cells))
            seg += 1
        self._first_dyn_seg = seg
        # Flip metadata per value-producing iid: (kind, width);
        # kind 0 = int/ptr, 1 = f64, 2 = f32.
        self.flip_info: dict[int, tuple[int, int]] = {}
        for instr in module.instructions():
            if instr.produces_value:
                t = instr.type
                if t.is_float:
                    self.flip_info[instr.iid] = (1, 64) if t.width == 64 else (2, 32)
                else:
                    self.flip_info[instr.iid] = (0, t.width)
        self.functions: dict[str, _DecodedFunction] = {}
        self._decode()
        # Built on the first execution, never here: see repro.vm.compiler.
        self._compiled: CompiledProgram | None = None
        # Computed on first use: liveness by the first run given convergence
        # oracles, the text by the first cache key or pooled campaign.
        self._live = False
        self._text: str | None = None
        #: Golden profiles of this program by input, filled and read by
        #: :mod:`repro.vm.profiler` (a golden run is deterministic in the
        #: program and its input). Shared by every caller: never mutate one.
        self.golden_profiles: dict = {}

    @property
    def text(self) -> str:
        """The module's canonical IR text, printed on first use.

        Cache keys and pooled campaigns' worker payloads name the program
        by this text, so a program is printed once however many campaigns
        it runs.
        """
        if self._text is None:
            self._text = print_module(self.module)
        return self._text

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _operand(self, v, slots: dict[int, int]):
        """Decode one operand to (kind, payload): kind 0 const, 1 slot."""
        if isinstance(v, Constant):
            return 0, v.value
        if isinstance(v, GlobalArray):
            return 0, self.global_addr[v.name]
        return 1, slots[id(v)]

    def _decode(self) -> None:
        # Two passes so calls can reference functions in any order.
        for fn in self.module.functions.values():
            self.functions[fn.name] = _DecodedFunction(fn.name)
        for fn in self.module.functions.values():
            self._decode_function(fn)

    def _decode_function(self, fn) -> None:
        dfn = self.functions[fn.name]
        slots = _slot_map(fn)
        dfn.arg_slots = len(fn.args)
        dfn.n_slots = len(slots)

        for blk in fn.blocks.values():
            gid = self.cfg.index[(fn.name, blk.name)]
            dfn.blocks[blk.name] = _DecodedBlock(gid, blk.name)
        dfn.entry = dfn.blocks[next(iter(fn.blocks))]

        for blk in fn.blocks.values():
            dblk = dfn.blocks[blk.name]
            for instr in blk.instructions:
                d = self._decode_instr(fn, dfn, instr, slots)
                if instr.opcode == "phi":
                    dblk.phis.append(d)
                elif instr.is_terminator:
                    dblk.term = d
                else:
                    dblk.code.append(d)
            # Calls learn their own code index so a snapshot can record where
            # a suspended frame resumes without searching the block.
            for i, d in enumerate(dblk.code):
                if d[0] == 35:
                    d.append(i)

    def _liveness(self) -> None:
        """Fill every decoded block's liveness, once per program.

        Only convergence checks read it, so a program that only plain-runs,
        profiles or records never computes it: :meth:`resume` calls this
        the first time it is given oracles.
        """
        for fn in self.module.functions.values():
            self._compute_liveness(fn, self.functions[fn.name], _slot_map(fn))
        self._live = True

    def _compute_liveness(self, fn, dfn: _DecodedFunction, slots) -> None:
        """Per-block slot liveness, used by convergence state comparison.

        A faulty run whose *live* slots match the golden snapshot behaves
        identically from there on — dead slots can hold a corrupted value
        forever without ever being read again, so comparing them would block
        convergence for exactly the faults (logically masked ones) that
        benefit most from pruning. Phi reads are attributed to the phi's own
        block for every predecessor edge, an over-approximation that can only
        delay convergence, never mis-report it.
        """
        uses_of = {}
        for blk in fn.blocks.values():
            per = []
            for instr in blk.instructions:
                u = [slots[v_id] for v_id in map(id, instr.operands)
                     if v_id in slots]
                d = slots[id(instr)] if instr.produces_value else -1
                per.append((u, d))
            uses_of[blk.name] = per
        # Upward-exposed uses / defs per block.
        gen: dict[str, set] = {}
        kill: dict[str, set] = {}
        for name, per in uses_of.items():
            g: set = set()
            k: set = set()
            for u, d in per:
                g.update(s for s in u if s not in k)
                if d >= 0:
                    k.add(d)
            gen[name] = g
            kill[name] = k
        live_in = {name: set(gen[name]) for name in uses_of}
        changed = True
        while changed:
            changed = False
            for blk in fn.blocks.values():
                out: set = set()
                for s in blk.successors():
                    out |= live_in[s]
                new = gen[blk.name] | (out - kill[blk.name])
                if new != live_in[blk.name]:
                    live_in[blk.name] = new
                    changed = True
        for blk in fn.blocks.values():
            dblk = dfn.blocks[blk.name]
            dblk.live_in = tuple(sorted(live_in[blk.name]))
            live: set = set()
            for s in blk.successors():
                live |= live_in[s]
            # Backward scan to each call site; mirror the decode split so
            # indices line up with dblk.code (phis/terminator excluded).
            body = [
                (instr, u, d)
                for instr, (u, d) in zip(blk.instructions, uses_of[blk.name])
                if instr.opcode != "phi" and not instr.is_terminator
            ]
            term = blk.instructions[-1] if blk.instructions else None
            if term is not None and term.is_terminator:
                live.update(
                    slots[v_id] for v_id in map(id, term.operands)
                    if v_id in slots
                )
            for idx in range(len(body) - 1, -1, -1):
                instr, u, d = body[idx]
                if instr.opcode == "call":
                    # At the resume point the return value is about to be
                    # written, so the destination's stale content is dead.
                    dblk.live_after_call[idx] = tuple(sorted(live - {d}))
                if d >= 0:
                    live.discard(d)
                live.update(u)

    def _decode_instr(self, fn, dfn: _DecodedFunction, instr: Instruction, slots):
        op = instr.opcode
        iid = instr.iid
        dest = slots[id(instr)] if instr.produces_value else -1
        ops = instr.operands

        if op in ("br", "condbr", "ret"):
            if op == "br":
                return ["br", iid, dfn.blocks[instr.attrs["target"]]]
            if op == "condbr":
                ck, cv = self._operand(ops[0], slots)
                return [
                    "condbr", iid, ck, cv,
                    dfn.blocks[instr.attrs["iftrue"]],
                    dfn.blocks[instr.attrs["iffalse"]],
                ]
            if ops:
                vk, vv = self._operand(ops[0], slots)
                return ["ret", iid, vk, vv]
            return ["ret", iid, None, None]

        code = _OP[op]
        d: list = [code, iid, dest]
        if code <= 12:  # integer binop
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
            w = instr.type.width
            d += [instr.type.mask, w, 1 << (w - 1) if w else 0]
        elif code <= 16:  # float binop
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
            d.append(1 if instr.type.width == 32 else 0)
        elif code == 17:  # icmp
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
            d += [_ICMP_PRED[instr.attrs["pred"]], ops[0].type.width]
        elif code == 18:  # fcmp
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
            d.append(_FCMP_PRED[instr.attrs["pred"]])
        elif code == 19:  # select
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots),
                  *self._operand(ops[2], slots)]
        elif code == 20:  # fmath
            d += [*self._operand(ops[0], slots)]
            d += [_FMATH[instr.attrs["fn"]], 1 if instr.type.width == 32 else 0]
        elif 21 <= code <= 29:  # casts
            d += [*self._operand(ops[0], slots)]
            d += [ops[0].type.width, instr.type.width, instr.type.mask]
        elif code == 30:  # alloca
            elem = instr.attrs["elem"]
            d += [instr.attrs["count"], 0.0 if elem.is_float else 0]
        elif code == 31:  # load
            d += [*self._operand(ops[0], slots)]
            # Result-type coercion info: loads through corrupted pointers can
            # hit cells of a different type; hardware would reinterpret the
            # raw bits, and so do we. want: 0 = int (with mask), 1 = f64,
            # 2 = f32.
            t = instr.type
            if t.is_float:
                d += [1 if t.width == 64 else 2, 0]
            else:
                d += [0, t.mask]
        elif code == 32:  # store
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
        elif code == 33:  # gep
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
            d.append(ops[1].type.width)
        elif code == 34:  # phi
            incoming = {}
            for blk_name, val in instr.attrs["incoming"]:
                gid = self.cfg.index[(fn.name, blk_name)]
                incoming[gid] = self._operand(val, slots)
            d.append(incoming)
        elif code == 35:  # call
            d.append(self.functions[instr.attrs["callee"]])
            d.append([self._operand(a, slots) for a in ops])
        elif code == 36:  # emit
            d += [*self._operand(ops[0], slots)]
            # Integers are emitted in signed form for readable outputs.
            t = ops[0].type
            if t.is_int and t.width > 1:
                d += [1 << (t.width - 1), 1 << t.width]
            else:
                d += [0, 0]
        elif code == 37:  # check
            d += [*self._operand(ops[0], slots), *self._operand(ops[1], slots)]
            d.append(instr.attrs.get("label", f"iid{iid}"))
        elif code == 38:  # checkrange
            d += [*self._operand(ops[0], slots)]
            d += [ops[1].value, ops[2].value]
            d.append(instr.attrs.get("label", f"iid{iid}"))
        else:  # pragma: no cover - exhaustive
            raise IRError(f"cannot decode opcode {op}")
        return d

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def entry_snapshot(
        self,
        args: list | None = None,
        bindings: dict[str, list] | None = None,
    ) -> Snapshot:
        """The state of ``@main`` on one input before its first block.

        Step 0, no output, all-zero counts, the globals with ``bindings``
        applied, and one frame at ``@main``'s entry block whose slots hold
        ``args``. Every execution of the input starts here: :meth:`run` and
        :meth:`run_checkpointed` build it, and it is the first snapshot of
        every checkpoint store. This is the only code that turns an input
        into interpreter state.

        A global with no binding maps to its ``global_template`` list
        itself, which every run and snapshot shares and nothing may
        mutate: a run copies it at its first store to it. A bound global
        gets a copy with the binding applied.

        Parameters
        ----------
        args:
            Values for @main's parameters (ints for int/ptr params, floats
            for float params).
        bindings:
            Per-run contents for global arrays (input data), by global name.
            Shorter lists than the global's size leave the tail at its
            static/default value.
        """
        mem = dict(self.global_template)
        if bindings:
            for name, values in bindings.items():
                addr = self.global_addr.get(name)
                if addr is None:
                    raise IRError(f"binding for unknown global @{name}")
                seg = addr >> SEG_SHIFT
                cells = mem[seg] = list(mem[seg])
                if len(values) > len(cells):
                    raise IRError(
                        f"binding for @{name} has {len(values)} values; "
                        f"global holds {len(cells)}"
                    )
                cells[: len(values)] = values
        main = self.functions["main"]
        args = list(args) if args else []
        if len(args) != main.arg_slots:
            raise IRError(
                f"@main expects {main.arg_slots} arguments, got {len(args)}"
            )
        slots: list = [
            float(a) if p.type.is_float else int(a) & p.type.mask
            for a, p in zip(args, self.module.functions["main"].args)
        ]
        slots += [None] * (main.n_slots - len(slots))
        return Snapshot(
            steps=0,
            next_seg=self._first_dyn_seg,
            output=[],
            instr_counts=[0] * self.module.instruction_count(),
            mem=mem,
            frames=[FrameSnapshot("main", main.entry.name, -1, -1, slots)],
        )

    def run(
        self,
        args: list | None = None,
        bindings: dict[str, list] | None = None,
        profile: bool = False,
        step_limit: int | None = None,
        sticky=None,
    ) -> RunResult:
        """Execute ``@main`` on one input, from its entry snapshot.

        Parameters
        ----------
        args, bindings:
            The input (:meth:`entry_snapshot`).
        profile:
            Collect per-instruction execution counts and call-path entry
            counts.
        step_limit:
            Dynamic instruction budget; exceeding it raises
            :class:`HangTimeout`. Defaults to 50 million.
        sticky:
            A sticky host-fault visitor (``.iids`` set + ``.visit(iid,
            val)``; see :class:`repro.fi.hostfault.StickyRun`): every value
            produced by a matching instruction passes through it — the
            defective-core model. A transient fault runs through
            :meth:`resume` from the same entry snapshot instead.
        """
        state, frames = self._start(
            self.entry_snapshot(args, bindings), step_limit, owned=True
        )
        state.sticky = sticky
        if profile:
            state.counts = [0] * self.module.instruction_count()
            state.paths = {}
            state.path_stack = []
        self._execute(frames, state)
        _note_run(state)
        return RunResult(
            output=state.output,
            steps=state.steps,
            instr_counts=state.counts,
            call_paths=state.paths,
        )

    def _start(
        self,
        snapshot: Snapshot,
        step_limit: int | None,
        fault: FaultSpec | None = None,
        convergence: list[Snapshot] | None = None,
        fault_fired: bool = False,
        owned: bool = False,
        ckpt: _CkptState | None = None,
    ) -> tuple[_RunState, list[_Frame]]:
        """The run state and resolved frames of an execution from
        ``snapshot``: the one state builder of every entry point.

        The run shares the snapshot's memory segments and copies each one
        at its first store to it. An ``owned`` snapshot is a fresh entry
        snapshot that nothing else keeps: the run owns the copies it made
        for bindings, and copies template lists like any other. ``fault``
        must target an instance the snapshot has not yet executed.
        ``convergence`` arms the oracles (and computes liveness on first
        use); ``ckpt`` makes the run a recording, whose segment map is a
        :class:`~repro.vm.checkpoint.RecordingMap` over the snapshot's.
        """
        state = _RunState()
        state.limit = step_limit if step_limit is not None else 50_000_000
        state.steps = snapshot.steps
        state.next_seg = snapshot.next_seg
        state.output = list(snapshot.output)
        if ckpt is not None:
            state.mem = RecordingMap(snapshot.mem)
            state.ckpt = ckpt
            state.shadow = []
            state.event_at = ckpt.interval
        else:
            state.mem = dict(snapshot.mem)
        if owned:
            mem = state.mem
            state.wmem = {
                seg: mem[seg] for seg, cells in self.global_template
                if mem[seg] is not cells
            }
        state.f_fired = fault_fired
        if fault is not None:
            seen = snapshot.instr_counts[fault.iid]
            if seen >= fault.instance:
                raise IRError(
                    f"snapshot at step {snapshot.steps} is past fault "
                    f"instance {fault.instance} of iid {fault.iid}"
                )
            state.f_iid = fault.iid
            state.f_instance = fault.instance
            state.f_bit = fault.bit
            state.f_seen = seen
        frames = []
        for fr in snapshot.frames:
            dfn = self.functions[fr.fn]
            frames.append(_Frame(dfn, dfn.blocks[fr.block], fr.prev_gid,
                                 fr.call_index, list(fr.slots)))
        if convergence:
            if not self._live:
                self._liveness()
            state.conv = convergence
            state.event_at = convergence[0].steps
            state.shadow = [
                (f.dfn, f.slots, f.blk, f.prev_gid, f.call_index)
                for f in frames[:-1]
            ]
        return state, frames

    @staticmethod
    def _converged_result(state: _RunState, c: _Converged) -> RunResult:
        return RunResult(
            output=state.output,
            steps=state.steps,
            instr_counts=state.counts,
            fault_fired=True,
            converged=True,
            converged_output_len=len(c.snapshot.output),
        )

    def run_checkpointed(
        self,
        args: list | None = None,
        bindings: dict[str, list] | None = None,
        interval: int = 4096,
        step_limit: int | None = None,
        profile: bool = False,
        max_snapshots: int | None = None,
    ) -> tuple[RunResult, list[Snapshot]]:
        """Golden run recording a state snapshot every ``interval`` steps.

        The run counts per-instruction executions (each snapshot needs them to
        seat fault instance counters); ``profile=True`` adds call-path
        profiling, as in :meth:`run`. Returns the run result plus its
        snapshots in steps order, the entry snapshot it started from first.
        Snapshots are portable: frames/memory are stored by name and plain
        lists, so they pickle to worker processes and restore against any
        equal program. A capture copies the segment map, not the segments:
        consecutive snapshots share every segment the run did not store to
        between them (:mod:`repro.vm.checkpoint`), the entry snapshot's
        included. Each snapshot's ``touched`` names the segments the run
        loads or stores after it, the entry snapshot's the whole run's.

        ``max_snapshots`` (even) bounds the recording without knowing the
        run's length: whenever it has captured that many snapshots, every
        other capture is dropped and the interval doubles, so the kept ones
        stay evenly spaced; the entry snapshot always stays.
        ``result.checkpoint_interval`` is the interval the run ended with.
        """
        if interval < 1:
            raise IRError("checkpoint interval must be >= 1")
        if max_snapshots is not None and (
            max_snapshots < 2 or max_snapshots % 2
        ):
            raise IRError("max_snapshots must be an even number >= 2")
        entry = self.entry_snapshot(args, bindings)
        ck = _CkptState(interval, max_snapshots or 0)
        state, frames = self._start(entry, step_limit, ckpt=ck)
        state.counts = [0] * self.module.instruction_count()
        if profile:
            state.paths = {}
            state.path_stack = []
        self._execute(frames, state)
        snapshots = [entry, *ck.snapshots]
        assign_touched(snapshots, ck.intervals, state.mem.keys())
        _note_run(state)
        t = _obs_current()
        if t is not None:
            t.count("vm.checkpoint.recordings")
            t.count("vm.checkpoint.snapshots", len(ck.snapshots))
        result = RunResult(
            output=state.output,
            steps=state.steps,
            instr_counts=state.counts,
            call_paths=state.paths,
            checkpoint_interval=ck.interval,
        )
        return result, snapshots

    def resume(
        self,
        snapshot: Snapshot,
        fault: FaultSpec | None = None,
        step_limit: int | None = None,
        convergence: list[Snapshot] | None = None,
        fault_fired: bool = False,
    ) -> RunResult:
        """Restore ``snapshot`` and run to completion: every trial's path.

        The restored execution is bit-identical to a run from the entry
        snapshot that reached the snapshot point: memory, call stack, value
        slots, output, step counter, and the fault's already-seen instance
        count all come from the snapshot. The run shares the snapshot's
        memory segments and copies each one at its first store to it, so
        the snapshot is left as it was.

        ``fault`` is an optional single-bit fault; it must target an
        instance the snapshot has not yet executed
        (:meth:`CheckpointStore.snapshot_index_for` picks such a snapshot).
        ``convergence`` is a golden-run :class:`Snapshot` list (ordered by
        steps): once the fault has fired, the run compares its state against
        each snapshot it aligns with and early-exits as soon as the state is
        bit-identical — the remaining execution would be exactly the golden
        tail. ``fault_fired`` marks the snapshot as post-flip state (the
        batch engine detaches rows after their fault fired), which arms the
        oracles from the first block on.
        """
        state, frames = self._start(
            snapshot, step_limit, fault, convergence, fault_fired
        )
        faulty = fault is not None
        try:
            self._execute(frames, state)
        except _Converged as c:
            _note_run(state, snapshot.steps, faulty, converged=True)
            return self._converged_result(state, c)
        _note_run(state, snapshot.steps, faulty)
        return RunResult(
            output=state.output, steps=state.steps, fault_fired=state.f_fired
        )

    def _execute(self, frames: list[_Frame], state: _RunState):
        """Run from resolved snapshot ``frames`` on the compile tier
        (``_exec_fn``'s contract, resuming ``frames`` from index 0)."""
        ct = self._compiled
        if ct is None:
            ct = self._compiled = CompiledProgram(
                self.functions, self.flip_info, Program._block_event
            )
        return ct.execute(frames, state)

    def _flip(self, val, iid: int, bit: int):
        """Apply the single-bit flip to a just-computed return value."""
        kind, width = self.flip_info[iid]
        return flip_value(val, bit, kind, width)

    # ------------------------------------------------------------------
    # Block events: checkpoint capture & convergence pruning
    # ------------------------------------------------------------------
    @staticmethod
    def _block_event(state: _RunState, dfn, blk, prev_gid: int, slots):
        """Handle a block-entry event: capture a snapshot or test convergence.

        Runs only when ``state.steps`` crossed ``state.event_at`` — never on
        plain runs. Updates ``event_at`` to the next threshold; raises
        :class:`_Converged` when a faulty state has re-joined the golden
        trajectory.
        """
        ck = state.ckpt
        if ck is not None:
            frames = [
                FrameSnapshot(f.name, b.name, pg, ci, list(sl))
                for f, sl, b, pg, ci in state.shadow
            ]
            frames.append(
                FrameSnapshot(dfn.name, blk.name, prev_gid, -1, list(slots))
            )
            mem, touched = state.mem.capture()
            ck.snapshots.append(
                Snapshot(
                    steps=state.steps,
                    next_seg=state.next_seg,
                    output=list(state.output),
                    instr_counts=list(state.counts),
                    mem=mem,
                    frames=frames,
                )
            )
            ck.intervals.append(touched)
            # The snapshot now shares every segment: the run gives up
            # ownership in place, since running blocks hold ``wmem``.
            state.wmem.clear()
            if len(ck.snapshots) == ck.cap:
                # Keep the odd positions: the survivors, this one included,
                # sit one doubled interval apart. A dropped capture's
                # interval joins the next survivor's.
                intervals = ck.intervals
                for k in range(0, ck.cap, 2):
                    intervals[k + 1] |= intervals[k]
                del ck.snapshots[::2]
                del intervals[::2]
                ck.interval *= 2
            state.event_at = state.steps + ck.interval
            return
        conv = state.conv
        if conv is None:  # pragma: no cover - sentinel never crosses
            state.event_at = _NEVER
            return
        i = state.conv_idx
        n = len(conv)
        steps = state.steps
        # Skip oracles the (possibly control-diverged) run stepped past.
        while i < n and conv[i].steps < steps:
            i += 1
        state.conv_idx = i
        if i == n:
            state.event_at = _NEVER
            return
        snap = conv[i]
        state.event_at = snap.steps
        if snap.steps != steps or not state.f_fired:
            # Not aligned with this oracle (or the flip is still pending —
            # before it fires the state matches golden trivially).
            return
        if Program._state_matches(snap, state, dfn, blk, prev_gid, slots):
            raise _Converged(snap)
        state.conv_idx = i + 1
        state.event_at = conv[i + 1].steps if i + 1 < n else _NEVER

    @staticmethod
    def _state_matches(
        snap: Snapshot, state: _RunState, dfn, blk, prev_gid: int, slots
    ) -> bool:
        """Is the reachable state bit-identical to a golden snapshot?

        Equality here implies the remaining execution *is* the golden tail
        (the interpreter is deterministic in this state), so the caller may
        stop early. Frame slots are compared through the blocks' liveness
        sets: a dead slot can never be read again, so a corrupted
        value parked there cannot affect the remaining run. Memory is
        compared on the segments the golden run touches after the snapshot
        (``snap.touched``; every segment when it is ``None``): a state
        equal on those, the live slots, the frames and ``next_seg`` reads
        only equal values from here on, so it takes the golden branches,
        touches only the golden tail's segments and never reads one that
        differs. Equal ``next_seg`` means the same segments exist, since
        none is ever freed; a touched segment the snapshot does not hold
        yet is allocated later, fresh in both runs. A segment that is
        still the snapshot's own list is equal without a look at its
        cells; the others are compared bit for bit (:func:`_cells_equal`).
        """
        if state.next_seg != snap.next_seg:
            return False
        frames = snap.frames
        shadow = state.shadow
        if len(shadow) != len(frames) - 1:
            return False
        inner = frames[-1]
        if (
            inner.fn != dfn.name
            or inner.block != blk.name
            or inner.prev_gid != prev_gid
        ):
            return False
        if not _live_slots_equal(slots, inner.slots, blk.live_in):
            return False
        for (f, sl, b, pg, ci), fr in zip(shadow, frames):
            if f.name != fr.fn or ci != fr.call_index or b.name != fr.block:
                return False
            if not _live_slots_equal(sl, fr.slots, b.live_after_call[ci]):
                return False
        smem = snap.mem
        mem = state.mem
        for seg in smem if snap.touched is None else snap.touched:
            other = smem.get(seg)
            if other is None:
                continue
            cells = mem[seg]
            if cells is not other and not _cells_equal(cells, other):
                return False
        return True

    def _exec_fn(
        self, dfn: _DecodedFunction, args: list | None, state: _RunState,
        resume: tuple | None = None,
    ):
        """Execute one function body; returns the ret operand value or None.

        The reference interpreter: production runs go through
        :meth:`_execute` (the compile tier); the differential tests run
        this loop to check it.

        ``resume`` is ``(frames, index)``: restore this frame from
        ``frames[index]`` instead of starting at the entry block with
        ``args``. A frame with live callees first re-enters its child
        (recursively rebuilding the Python call stack), then finishes the
        remainder of its partially executed block; the innermost frame
        restarts at a block entry.
        """
        state.depth += 1
        if state.depth > 200:
            state.depth -= 1
            raise StackOverflow(f"call depth exceeded in @{dfn.name}")
        if state.path_stack is not None:
            state.path_stack.append(dfn.name)
            key = tuple(state.path_stack)
            state.paths[key] = state.paths.get(key, 0) + 1
        if resume is None:
            slots = [None] * dfn.n_slots
            slots[: len(args)] = args
            blk = dfn.entry
            prev_gid = -1
            code = None
        else:
            frames, fi = resume
            fr = frames[fi]
            slots = fr.slots
            blk = fr.blk
            prev_gid = fr.prev_gid
            if fi + 1 < len(frames):
                # Re-enter the suspended callee, then continue after the call.
                d = blk.code[fr.call_index]
                rv = self._exec_fn(
                    frames[fi + 1].dfn, None, state, (frames, fi + 1)
                )
                if state.shadow is not None:
                    state.shadow.pop()
                if d[2] >= 0:
                    slots[d[2]] = rv
                code = blk.code[fr.call_index + 1 :]
            else:
                code = None
        mem = state.mem
        wmem = state.wmem
        counts = state.counts
        f_iid = state.f_iid
        sticky = state.sticky
        sticky_iids = sticky.iids if sticky is not None else None
        shadow = state.shadow

        while True:
            if code is None:
                # Block entry. The event threshold folds checkpoint capture
                # and convergence checks into one always-false comparison for
                # plain runs; snapshots are defined at exactly this point,
                # before the block's step accounting.
                if state.steps >= state.event_at:
                    self._block_event(state, dfn, blk, prev_gid, slots)
                state.steps += len(blk.code) + 1
                if state.steps > state.limit:
                    state.depth -= 1
                    raise HangTimeout(f"step limit {state.limit} exceeded")
                if blk.phis:
                    # Parallel phi semantics: read all incomings, then write.
                    vals = []
                    for d in blk.phis:
                        k, v = d[3][prev_gid]
                        vals.append(v if k == 0 else slots[v])
                        if counts is not None:
                            counts[d[1]] += 1
                    for d, v in zip(blk.phis, vals):
                        slots[d[2]] = v
                    state.steps += len(blk.phis)
                code = blk.code

            for d in code:
                op = d[0]
                if op <= 12:  # integer binop ----------------------------
                    a = d[4] if d[3] == 0 else slots[d[4]]
                    b = d[6] if d[5] == 0 else slots[d[6]]
                    mask = d[7]
                    if op == 0:
                        val = (a + b) & mask
                    elif op == 1:
                        val = (a - b) & mask
                    elif op == 2:
                        val = (a * b) & mask
                    elif op == 7:
                        val = a & b
                    elif op == 8:
                        val = a | b
                    elif op == 9:
                        val = a ^ b
                    elif op == 10:
                        val = (a << b) & mask if b < d[8] else 0
                    elif op == 11:
                        val = a >> b if b < d[8] else 0
                    elif op == 12:
                        w, sign = d[8], d[9]
                        sa = a - (1 << w) if a & sign else a
                        val = (sa >> b if b < w else (sa >> (w - 1))) & mask
                    elif op == 3 or op == 5:  # sdiv / srem
                        w, sign = d[8], d[9]
                        sa = a - (1 << w) if a & sign else a
                        sb = b - (1 << w) if b & sign else b
                        if sb == 0:
                            raise ArithmeticTrap("signed division by zero")
                        q, r = divmod(abs(sa), abs(sb))
                        if op == 3:
                            val = (-q if (sa < 0) != (sb < 0) else q) & mask
                        else:
                            val = (-r if sa < 0 else r) & mask
                    else:  # udiv / urem
                        if b == 0:
                            raise ArithmeticTrap("unsigned division by zero")
                        val = (a // b if op == 4 else a % b) & mask
                elif op <= 16:  # float binop ----------------------------
                    a = d[4] if d[3] == 0 else slots[d[4]]
                    b = d[6] if d[5] == 0 else slots[d[6]]
                    if op == 16 and b == 0.0:
                        if a == 0.0 or a != a:
                            val = math.nan
                        else:
                            val = math.copysign(math.inf, a) * math.copysign(
                                1.0, b
                            )
                    else:
                        if op == 13:
                            val = a + b
                        elif op == 14:
                            val = a - b
                        elif op == 15:
                            val = a * b
                        else:
                            try:
                                val = a / b
                            except OverflowError:
                                val = math.copysign(math.inf, a) * math.copysign(1.0, b)
                        if val != val:
                            val = _fnan(a, val)
                    if d[7]:
                        val = _f32(val)
                elif op == 17:  # icmp -----------------------------------
                    a = d[4] if d[3] == 0 else slots[d[4]]
                    b = d[6] if d[5] == 0 else slots[d[6]]
                    pred = d[7]
                    if pred == 0:
                        val = 1 if a == b else 0
                    elif pred == 1:
                        val = 1 if a != b else 0
                    elif pred <= 5:  # signed
                        w = d[8]
                        sign = 1 << (w - 1)
                        full = 1 << w
                        sa = a - full if a & sign else a
                        sb = b - full if b & sign else b
                        if pred == 2:
                            val = 1 if sa < sb else 0
                        elif pred == 3:
                            val = 1 if sa <= sb else 0
                        elif pred == 4:
                            val = 1 if sa > sb else 0
                        else:
                            val = 1 if sa >= sb else 0
                    else:  # unsigned
                        if pred == 6:
                            val = 1 if a < b else 0
                        elif pred == 7:
                            val = 1 if a <= b else 0
                        elif pred == 8:
                            val = 1 if a > b else 0
                        else:
                            val = 1 if a >= b else 0
                elif op == 18:  # fcmp -----------------------------------
                    a = d[4] if d[3] == 0 else slots[d[4]]
                    b = d[6] if d[5] == 0 else slots[d[6]]
                    pred = d[7]
                    if a != a or b != b:  # NaN: all ordered preds false
                        val = 0
                    elif pred == 0:
                        val = 1 if a == b else 0
                    elif pred == 1:
                        val = 1 if a != b else 0
                    elif pred == 2:
                        val = 1 if a < b else 0
                    elif pred == 3:
                        val = 1 if a <= b else 0
                    elif pred == 4:
                        val = 1 if a > b else 0
                    else:
                        val = 1 if a >= b else 0
                elif op == 19:  # select ---------------------------------
                    c = d[4] if d[3] == 0 else slots[d[4]]
                    if c:
                        val = d[6] if d[5] == 0 else slots[d[6]]
                    else:
                        val = d[8] if d[7] == 0 else slots[d[8]]
                elif op == 20:  # fmath ----------------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    fn = d[5]
                    if fn == 0:
                        val = math.sqrt(x) if x >= 0.0 else math.nan
                    elif fn == 1:
                        val = math.sin(x) if -1e18 < x < 1e18 else math.nan
                    elif fn == 2:
                        val = math.cos(x) if -1e18 < x < 1e18 else math.nan
                    elif fn == 3:
                        try:
                            val = math.exp(x)
                        except OverflowError:
                            val = math.inf
                    elif fn == 4:
                        if x > 0.0:
                            val = math.log(x)
                        elif x == 0.0:
                            val = -math.inf
                        else:
                            val = math.nan
                    elif fn == 5:
                        val = abs(x)
                    elif x == 0.0 or not -_TWO52 < x < _TWO52:
                        val = x  # integral already; keeps -0.0
                    else:
                        val = float(math.floor(x))
                    if d[6]:
                        val = _f32(val)
                elif op == 21:  # trunc ----------------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    val = x & d[7]
                elif op == 22:  # zext -----------------------------------
                    val = d[4] if d[3] == 0 else slots[d[4]]
                elif op == 23:  # sext -----------------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    sw = d[5]
                    sign = 1 << (sw - 1)
                    val = (x - (1 << sw) if x & sign else x) & d[7]
                elif op == 24 or op == 25:  # fptosi / fptoui -------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    if x != x or x in (math.inf, -math.inf):
                        val = 0
                    else:
                        val = int(x) & d[7]
                elif op == 26:  # sitofp ---------------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    sw = d[5]
                    sign = 1 << (sw - 1)
                    val = float(x - (1 << sw)) if x & sign else float(x)
                    if d[6] == 32:
                        val = _f32(val)
                elif op == 27:  # uitofp ---------------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    val = float(x)
                    if d[6] == 32:
                        val = _f32(val)
                elif op == 28:  # fpext ----------------------------------
                    val = d[4] if d[3] == 0 else slots[d[4]]
                elif op == 29:  # fptrunc --------------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    val = _f32(x)
                elif op == 30:  # alloca ---------------------------------
                    seg = state.next_seg
                    state.next_seg = seg + 1
                    mem[seg] = wmem[seg] = [d[4]] * d[3]
                    val = seg << SEG_SHIFT
                elif op == 31:  # load -----------------------------------
                    addr = d[4] if d[3] == 0 else slots[d[4]]
                    cells = mem.get(addr >> SEG_SHIFT)
                    off = addr & SEG_MASK
                    if cells is None or off >= len(cells):
                        raise MemoryFault(f"load from {addr:#x}")
                    val = cells[off]
                    # Reinterpret raw bits if a (corrupted) pointer reached a
                    # cell of the wrong type — bits, not values, live in RAM.
                    if d[5] == 0:
                        if type(val) is float:
                            val = _unpack_Q(_pack_d(val))[0] & d[6]
                    elif type(val) is int:
                        if d[5] == 1:
                            val = _unpack_d(_pack_Q(val & _M64))[0]
                        else:
                            val = _unpack_f(_pack_I(val & 0xFFFFFFFF))[0]
                elif op == 32:  # store ----------------------------------
                    v = d[4] if d[3] == 0 else slots[d[4]]
                    addr = d[6] if d[5] == 0 else slots[d[6]]
                    seg = addr >> SEG_SHIFT
                    cells = wmem.get(seg)
                    if cells is None:
                        cells = mem.get(seg)
                        if cells is not None:  # shared: copy on write
                            cells = mem[seg] = wmem[seg] = list(cells)
                    off = addr & SEG_MASK
                    if cells is None or off >= len(cells):
                        raise MemoryFault(f"store to {addr:#x}")
                    cells[off] = v
                    if counts is not None:
                        counts[d[1]] += 1
                    continue
                elif op == 33:  # gep ------------------------------------
                    p = d[4] if d[3] == 0 else slots[d[4]]
                    idx = d[6] if d[5] == 0 else slots[d[6]]
                    w = d[7]
                    if idx & (1 << (w - 1)):
                        idx -= 1 << w
                    val = (p + idx) & _M64
                elif op == 35:  # call -----------------------------------
                    callee = d[3]
                    a_specs = d[4]
                    call_args = [
                        (v if k == 0 else slots[v]) for k, v in a_specs
                    ]
                    if counts is not None:
                        counts[d[1]] += 1
                    if shadow is None:
                        rv = self._exec_fn(callee, call_args, state)
                    else:
                        # Frame-tracked run: expose this frame's suspension
                        # point so snapshots/convergence see the full stack.
                        shadow.append((dfn, slots, blk, prev_gid, d[5]))
                        rv = self._exec_fn(callee, call_args, state)
                        shadow.pop()
                    if d[2] >= 0:
                        slots[d[2]] = rv
                    continue
                elif op == 36:  # emit -----------------------------------
                    v = d[4] if d[3] == 0 else slots[d[4]]
                    if d[5] and v & d[5]:
                        v -= d[6]
                    state.output.append(v)
                    if counts is not None:
                        counts[d[1]] += 1
                    continue
                elif op == 37:  # check ----------------------------------
                    a = d[4] if d[3] == 0 else slots[d[4]]
                    b = d[6] if d[5] == 0 else slots[d[6]]
                    if a != b and not (a != a and b != b):
                        raise DetectedError(d[7], a, b)
                    if counts is not None:
                        counts[d[1]] += 1
                    continue
                elif op == 38:  # checkrange -----------------------------
                    x = d[4] if d[3] == 0 else slots[d[4]]
                    if x != x or x < d[5] or x > d[6]:
                        raise DetectedError(d[7], x, d[5])
                    if counts is not None:
                        counts[d[1]] += 1
                    continue
                else:  # pragma: no cover - phi handled at block entry
                    raise IRError(f"unexpected opcode {op} in body")

                # Common tail for value-producing instructions.
                if d[1] == f_iid:
                    state.f_seen += 1
                    if state.f_seen == state.f_instance:
                        val = self._flip(val, f_iid, state.f_bit)
                        state.f_fired = True
                if sticky_iids is not None and d[1] in sticky_iids:
                    val = sticky.visit(d[1], val)
                if counts is not None:
                    counts[d[1]] += 1
                slots[d[2]] = val

            # Terminator ------------------------------------------------
            code = None
            t = blk.term
            if counts is not None:
                counts[t[1]] += 1
            top = t[0]
            if top == "br":
                prev_gid = blk.gid
                blk = t[2]
            elif top == "condbr":
                c = t[3] if t[2] == 0 else slots[t[3]]
                prev_gid = blk.gid
                blk = t[4] if c else t[5]
            else:  # ret
                state.depth -= 1
                if state.path_stack is not None:
                    state.path_stack.pop()
                if t[2] is None:
                    return None
                return t[3] if t[2] == 0 else slots[t[3]]
