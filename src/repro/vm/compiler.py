"""The compile tier: decoded basic blocks as generated Python functions.

:class:`~repro.vm.interpreter.Program` decodes a module into flat
per-instruction lists. Walking those lists with an ``if``-chain costs one
dispatch, several list reads and an operand-kind test per instruction. The
compile tier removes that overhead: on a block's first execution it writes
the block as Python source, with every operand spelled as ``slots[i]`` or a
folded constant, and turns it into one function: by ``compile()``, or by
relocating code compiled for a block of the same shape (below). Each
:class:`~repro.vm.interpreter.Program` entry point (plain, faulty,
profiled and sticky runs, checkpoint recording, and resume from a
snapshot) executes these functions.

Block functions
---------------
A block function ``f(slots, st, prev)`` takes the frame's value slots, the
run state and the predecessor block's gid. It runs the block entry (the
event check, step accounting, the hang check and the phis), then the body
and the terminator, and returns the successor's gid, or ``-1`` after a
``ret`` (the value goes to ``st.rv``). A function's driver loop walks
``st.tbl``, the run's gid-indexed table of block functions. Calls go
through per-function entry closures, which do the depth check, call-path
profiling and slot allocation, then drive the callee's blocks.

Hooks and counting
------------------
Each block has two variants: *hooked* or not. A hooked block passes every
value-producing instruction's result through ``_hook``, which applies the
transient fault flip and the sticky host-fault visitor. A run uses hooked
variants only in the blocks that hold the fault's iid or a sticky iid, so
an unprotected block pays nothing for the hooks.

Profiled runs and checkpoint recordings execute the same block functions
as plain runs. Their driver loop adds one to ``st.bc[g]``, the run's
block-entry count, before block ``g`` runs; every instruction of a block
runs once per entry. :meth:`CompiledProgram.counts` expands the entry
counts into per-iid counts when the run returns and at each block event,
where the blocks that frames are still inside count one less for what
has not run yet. A plain run's entry closure tests ``st.bc`` once per
call and drives its blocks with a loop that does not count, so trials
pay nothing for counting.

Accounting is the reference interpreter's, per block: a block adds
``len(code) + 1`` steps at entry, raises :class:`HangTimeout` when that
passes the limit, then adds one step per phi. Block events (checkpoint
capture, convergence checks) fire at block entry, before the accounting
and before the phis. A snapshot therefore has the same meaning here as in
the reference. Resuming inside a block (after a suspended call, or at the
batch engine's detach ``code_index``) runs a *tail* function that starts
at that code index and skips the block entry.

Laziness
--------
Nothing compiles until a block first runs: tables start out holding stubs
that compile their block, patch the table, and run the result. A
``Program`` that is built but never run costs no compile time, and blocks a
run never reaches are never compiled. Compiling one block at a time keeps
``compile()``'s transient memory small.

Relocation
----------
The SID transform and repeated studies build Programs whose blocks differ
from blocks already compiled only in their numbers: each duplicate the
transform inserts shifts every iid and slot index after it. So the
generated source spells each slot index, iid, gid and check label as a
placeholder string constant, one per occurrence, and records the value it
stands for. The process-wide code cache is keyed by that canonical source.
A miss ``compile()``s it and requires each placeholder to be its own
``co_consts`` entry; binding a Program's numbers is then
``CodeType.replace(co_consts=...)``. The cache keeps the code as first
bound, so a Program with the same numbers (the same module, built again)
gets that code object itself, and only a renumbered block gets a copy.
"""

from __future__ import annotations

import builtins
import hashlib
import math
from collections import OrderedDict
from types import CodeType, FunctionType

from repro.errors import DetectedError, HangTimeout, MemoryFault, StackOverflow
from repro.util.bitops import flip_value, float64_to_bits
from repro.vm import ops
from repro.vm.memory import SEG_MASK, SEG_SHIFT

__all__ = ["CompiledProgram"]

_M64 = (1 << 64) - 1

#: Compiled block code by the digest of its canonical source, shared by
#: every ``Program`` in the process: the SID transform and repeated studies
#: build Programs whose blocks differ only in their numbers. An entry is
#: ``(code, where, values)``: the code as first bound, the ``co_consts``
#: position of each placeholder, and the values bound there. Canonical
#: source names only content (callee names, constant bits, widths), so equal
#: source with equal values means equal behaviour in any Program's namespace.
_CODE_CACHE: OrderedDict = OrderedDict()
_CODE_CACHE_MAX = 512
#: Prefix of a placeholder constant. No IR constant is a string, and check
#: labels are placeholders themselves, so no literal can collide with one.
_MARK = "\x00R"

# Names the generated code calls, bound once per namespace.
_HELPERS = {
    "_f32": ops.f32,
    "_fdiv": ops.fdiv,
    "_fnan": ops.fnan,
    "_coerce": ops.coerce_load,
    "_Detected": DetectedError,
    **{f"_fm{i}": fn for i, fn in enumerate(ops.FMATH)},
}
#: Integer binops whose formula lives in :mod:`repro.vm.ops`.
_INT_HELPERS = {3: "sdiv", 4: "udiv", 5: "srem", 6: "urem",
                10: "shl", 11: "lshr", 12: "ashr"}
_HELPERS.update({f"_{name}": getattr(ops, name) for name in _INT_HELPERS.values()})

_BINOP = {0: "+", 1: "-", 2: "*", 7: "&", 8: "|", 9: "^",
          13: "+", 14: "-", 15: "*"}
_UCMP = {0: "==", 1: "!=", 6: "<", 7: "<=", 8: ">", 9: ">="}
_SCMP = {2: "<", 3: "<=", 4: ">", 5: ">="}
_FCMP = {0: "==", 2: "<", 3: "<=", 4: ">", 5: ">="}


def _mfault(what: str, addr: int):
    raise MemoryFault(f"{what} {addr:#x}") from None


def _no_edge(prev: int):
    # The reference reads phi incomings from a dict keyed by predecessor.
    raise KeyError(prev)


def _hang(st):
    st.depth -= 1
    raise HangTimeout(f"step limit {st.limit} exceeded")


def _drive(tbl, g: int, prev: int, slots: list, st) -> None:
    """Run block functions from gid ``g`` until the frame returns.

    A counting run (``st.bc`` set) adds one to ``bc[g]`` before block ``g``
    runs: the block-entry counts :meth:`CompiledProgram.counts` expands.
    """
    bc = st.bc
    if bc is None:
        while True:
            nxt = tbl[g](slots, st, prev)
            if nxt < 0:
                return
            prev = g
            g = nxt
    while True:
        bc[g] += 1
        nxt = tbl[g](slots, st, prev)
        if nxt < 0:
            return
        prev = g
        g = nxt


def _entry_name(fn_name: str) -> str:
    """The namespace name of a callee's entry closure."""
    if fn_name.isidentifier():
        return f"_call_{fn_name}"
    return f"_callx_{fn_name.encode().hex()}"


def _compile(src: str, n: int) -> tuple:
    """Compile canonical source with ``n`` placeholders: the block function's
    code and the ``co_consts`` position of each placeholder."""
    module = compile(src, "<repro.vm block>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    where = [-1] * n
    for i, c in enumerate(code.co_consts):
        if type(c) is str and c.startswith(_MARK):
            k = int(c[len(_MARK):])
            if where[k] >= 0:
                raise AssertionError(f"placeholder {k} occurs twice")
            where[k] = i
    if -1 in where:
        raise AssertionError(f"placeholder {where.index(-1)} was folded away")
    return code, tuple(where)


def _bind(code: CodeType, where: tuple, values: tuple) -> CodeType:
    """``code`` with each placeholder's constant replaced by its value."""
    consts = list(code.co_consts)
    for i, v in zip(where, values):
        consts[i] = v
    return code.replace(co_consts=tuple(consts))


def _stub(g: int, hooked: bool):
    """A table entry that compiles block ``g`` on its first call.

    It reaches the compiler through ``st.ct``, not a closure, so compiled
    state holds no reference cycle and dies with its ``Program``.
    """

    def stub(slots, st, prev):
        fn = st.ct.block(g, hooked)
        st.tbl[g] = fn
        return fn(slots, st, prev)

    return stub


class _Source:
    """Source text of one generated block function."""

    def __init__(self, cp: "CompiledProgram", hooked: bool):
        self.cp = cp
        self.ns = cp.ns
        self.hooked = hooked
        self.lines: list[str] = ["def f(slots, st, prev):"]
        self.shift = 0  # 1 inside the body's try
        # Source line numbers of loads, for the trap message.
        self.loads: list[int] = []
        self.stores = False
        # What each placeholder stands for, in order.
        self.values: list = []

    def emit(self, text: str, depth: int = 1) -> None:
        self.lines.append("    " * (depth + self.shift) + text)

    def num(self, v) -> str:
        """Placeholder ``k`` for one occurrence of a slot index, iid, gid or
        check label: the numbers that renumbering changes."""
        self.values.append(v)
        return repr(f"{_MARK}{len(self.values) - 1}")

    def const(self, v) -> str:
        """A literal for ``v``; a name derived from its bits when no literal
        is exact (infinities, NaN payloads)."""
        if type(v) is float and not math.isfinite(v):
            name = f"_f{float64_to_bits(v):016x}"
            self.ns.setdefault(name, v)
            return name
        text = repr(v)
        return f"({text})" if text.startswith("-") else text

    def operand(self, kind: int, payload) -> str:
        return self.const(payload) if kind == 0 else f"slots[{self.num(payload)}]"

    def local(self, name: str, kind: int, payload) -> str:
        """Bind an operand that the formula reads more than once."""
        self.emit(f"{name} = {self.operand(kind, payload)}")
        return name

    def value(self, d: list, expr: str) -> None:
        """Store a value-producing instruction's result, with its hooks."""
        iid, dest = d[1], d[2]
        if self.hooked:
            if expr != "v":
                self.emit(f"v = {expr}")
            self.emit(f"v = _hook(st, {self.num(iid)}, v)")
            expr = "v"
        self.emit(f"slots[{self.num(dest)}] = {expr}")

    # -- block entry -----------------------------------------------------
    def entry(self, blk) -> None:
        g = blk.gid
        self.emit("s = st.steps")
        self.emit("if s >= st.event_at:")
        self.emit(f"_event(st, {self.num(g)}, prev, slots)", 2)
        self.emit(f"s += {len(blk.code) + 1}")
        self.emit("if s > st.limit:")
        self.emit("_hang(st)", 2)
        nphi = len(blk.phis)
        self.emit(f"st.steps = s + {nphi}" if nphi else "st.steps = s")
        if blk.phis:
            self.phis(blk.phis)

    def phis(self, phis: list) -> None:
        # Parallel semantics: when a phi reads another phi's destination,
        # read every incoming into a temporary before writing any slot.
        dests = {d[2] for d in phis}
        staged = len(phis) > 1 and any(
            k == 1 and v in dests
            for d in phis for k, v in d[3].values()
        )
        preds = sorted({g for d in phis for g in d[3]})
        for n, pred in enumerate(preds):
            self.emit(f"{'if' if n == 0 else 'elif'} prev == {self.num(pred)}:")
            for j, d in enumerate(phis):
                inc = d[3].get(pred)
                if inc is None:
                    self.emit("_no_edge(prev)", 2)
                    break
                target = f"t{j}" if staged else f"slots[{self.num(d[2])}]"
                self.emit(f"{target} = {self.operand(*inc)}", 2)
        self.emit("else:")
        self.emit("_no_edge(prev)", 2)
        if staged:
            for j, d in enumerate(phis):
                self.emit(f"slots[{self.num(d[2])}] = t{j}")

    # -- body --------------------------------------------------------------
    def instr(self, d: list, blk, dfn) -> None:
        op = d[0]
        opnd = self.operand
        if op <= 16 and op in _BINOP:
            a = opnd(d[3], d[4])
            expr = f"{a} {_BINOP[op]} {opnd(d[5], d[6])}"
            if op <= 2:
                expr = f"({expr}) & {d[7]}"
            elif op >= 13:
                # A finite constant first operand never picks the NaN.
                if d[3] != 0 or d[4] != d[4]:
                    self.emit(f"v = {expr}")
                    self.emit("if v != v:")
                    self.emit(f"v = _fnan({a}, v)", 2)
                    expr = "v"
                if d[7]:
                    expr = f"_f32({expr})"
            self.value(d, expr)
        elif op <= 12:  # shifts, div/rem
            a, mask, w = opnd(d[3], d[4]), d[7], d[8]
            if op in (10, 11) and d[5] == 0:  # constant shift amount
                b = d[6]
                if b >= w:
                    expr = "0"
                elif op == 10:
                    expr = f"({a} << {b}) & {mask}"
                else:
                    expr = f"{a} >> {b}"
            else:
                expr = f"_{_INT_HELPERS[op]}({a}, {opnd(d[5], d[6])}, {w}, {mask})"
            self.value(d, expr)
        elif op == 16:  # fdiv
            expr = f"_fdiv({opnd(d[3], d[4])}, {opnd(d[5], d[6])})"
            self.value(d, f"_f32({expr})" if d[7] else expr)
        elif op == 17:  # icmp
            pred, w = d[7], d[8]
            if pred in _UCMP:
                a, b = opnd(d[3], d[4]), opnd(d[5], d[6])
                self.value(d, f"1 if {a} {_UCMP[pred]} {b} else 0")
            else:
                full, sign = 1 << w, 1 << (w - 1)
                a = self.local("a", d[3], d[4])
                b = self.local("b", d[5], d[6])
                self.value(
                    d,
                    f"1 if ({a} - {full} if {a} & {sign} else {a}) "
                    f"{_SCMP[pred]} ({b} - {full} if {b} & {sign} else {b}) "
                    "else 0",
                )
        elif op == 18:  # fcmp: NaN makes every ordered predicate false
            if d[7] == 1:  # one
                a = self.local("a", d[3], d[4])
                b = self.local("b", d[5], d[6])
                self.value(d, f"1 if {a} == {a} and {b} == {b} and {a} != {b} else 0")
            else:
                a, b = opnd(d[3], d[4]), opnd(d[5], d[6])
                self.value(d, f"1 if {a} {_FCMP[d[7]]} {b} else 0")
        elif op == 19:  # select
            self.value(
                d, f"{opnd(d[5], d[6])} if {opnd(d[3], d[4])} else {opnd(d[7], d[8])}"
            )
        elif op == 20:  # fmath
            expr = f"_fm{d[5]}({opnd(d[3], d[4])})"
            self.value(d, f"_f32({expr})" if d[6] else expr)
        elif op <= 29:
            self.cast(d)
        elif op == 30:  # alloca
            self.emit("seg = st.next_seg")
            self.emit("st.next_seg = seg + 1")
            self.emit(f"mem[seg] = [{self.const(d[4])}] * {d[3]}")
            self.value(d, f"seg << {SEG_SHIFT}")
        elif op == 31:  # load
            a = self.local("a", d[3], d[4])
            self.loads.append(len(self.lines) + 1)
            self.emit(f"v = mem[{a} >> {SEG_SHIFT}][{a} & {SEG_MASK}]")
            # A corrupted pointer can reach a cell of the other class.
            if d[5] == 0:
                self.emit("if type(v) is float:")
                self.emit(f"v = _coerce(v, 0, {d[6]})", 2)
            else:
                self.emit("if type(v) is int:")
                self.emit(f"v = _coerce(v, {d[5]}, 0)", 2)
            self.value(d, "v")
        elif op == 32:  # store
            a = self.local("a", d[5], d[6])
            self.stores = True
            self.emit(
                f"mem[{a} >> {SEG_SHIFT}][{a} & {SEG_MASK}] = {opnd(d[3], d[4])}"
            )
        elif op == 33:  # gep: signed index of width d[7]
            w = d[7]
            if d[5] == 0:
                idx = d[6] - (1 << w) if d[6] & (1 << (w - 1)) else d[6]
                self.value(d, f"({opnd(d[3], d[4])} + {self.const(idx)}) & {_M64}")
            else:
                self.emit(f"i = {opnd(d[5], d[6])}")
                self.emit(f"if i & {1 << (w - 1)}:")
                self.emit(f"i -= {1 << w}", 2)
                self.value(d, f"({opnd(d[3], d[4])} + i) & {_M64}")
        elif op == 35:
            self.call(d, blk, dfn)
        elif op == 36:  # emit: integers leave in signed form
            self.emit(f"v = {opnd(d[3], d[4])}")
            if d[5]:
                self.emit(f"if v & {d[5]}:")
                self.emit(f"v -= {d[6]}", 2)
            self.emit("st.output.append(v)")
        elif op == 37:  # check
            a = self.local("a", d[3], d[4])
            b = self.local("b", d[5], d[6])
            self.emit(f"if {a} != {b} and not ({a} != {a} and {b} != {b}):")
            self.emit(f"raise _Detected({self.num(d[7])}, {a}, {b})", 2)
        elif op == 38:  # checkrange
            x = self.local("x", d[3], d[4])
            lo, hi = self.const(d[5]), self.const(d[6])
            self.emit(f"if {x} != {x} or {x} < {lo} or {x} > {hi}:")
            self.emit(f"raise _Detected({self.num(d[7])}, {x}, {lo})", 2)
        else:  # pragma: no cover - phis are emitted at block entry
            raise AssertionError(f"unexpected opcode {op} in a block body")

    def cast(self, d: list) -> None:
        op, src_w, dst_w, mask = d[0], d[5], d[6], d[7]
        if op == 21:  # trunc
            self.value(d, f"{self.operand(d[3], d[4])} & {mask}")
        elif op in (22, 28):  # zext, fpext
            self.value(d, self.operand(d[3], d[4]))
        elif op == 29:  # fptrunc
            self.value(d, f"_f32({self.operand(d[3], d[4])})")
        elif op == 27:  # uitofp
            expr = f"float({self.operand(d[3], d[4])})"
            self.value(d, f"_f32({expr})" if dst_w == 32 else expr)
        else:
            x = self.local("x", d[3], d[4])
            full, sign = 1 << src_w, 1 << (src_w - 1)
            if op == 23:  # sext
                expr = f"({x} - {full} if {x} & {sign} else {x}) & {mask}"
            elif op == 26:  # sitofp
                expr = f"float({x} - {full}) if {x} & {sign} else float({x})"
                if dst_w == 32:
                    expr = f"_f32({expr})"
            else:  # fptosi, fptoui: NaN and infinities convert to 0
                inf = self.const(math.inf)
                ninf = self.const(-math.inf)
                expr = (f"0 if {x} != {x} or {x} == {inf} or {x} == {ninf} "
                        f"else int({x}) & {mask}")
            self.value(d, expr)

    def call(self, d: list, blk, dfn) -> None:
        entry = _entry_name(d[3].name)
        if entry not in self.ns:
            self.ns[entry] = self.cp.entry(d[3])
        args = ", ".join(self.operand(k, v) for k, v in d[4])
        self.emit("sh = st.shadow")
        self.emit("if sh is None:")
        self.emit(f"rv = {entry}(st, [{args}])", 2)
        self.emit("else:")
        # Frame-tracked runs expose the suspended frame to snapshots.
        g = blk.gid
        frame = f"(_fn_of[{self.num(g)}], slots, _blocks[{self.num(g)}], prev, {d[5]})"
        self.emit(f"sh.append({frame})", 2)
        self.emit(f"rv = {entry}(st, [{args}])", 2)
        self.emit("sh.pop()", 2)
        if d[2] >= 0:
            self.emit(f"slots[{self.num(d[2])}] = rv")

    def terminator(self, t: list) -> None:
        if t[0] == "br":
            self.emit(f"return {self.num(t[2].gid)}")
        elif t[0] == "condbr":
            if t[2] == 0:
                self.emit(f"return {self.num((t[4] if t[3] else t[5]).gid)}")
            else:
                self.emit(f"return {self.num(t[4].gid)} if slots[{self.num(t[3])}] "
                          f"else {self.num(t[5].gid)}")
        else:
            rv = "None" if t[2] is None else self.operand(t[2], t[3])
            self.emit(f"st.rv = {rv}")
            self.emit("return -1")

    def function(self, blk, dfn, start: int) -> str:
        """The whole ``def f``: the block from its entry, or from code index
        ``start`` (a tail, for resumes)."""
        code = blk.code if start < 0 else blk.code[start:]
        memory = any(d[0] in (31, 32) for d in code)
        if memory or any(d[0] == 30 for d in code):
            self.emit("mem = st.mem")
        if start < 0:
            self.entry(blk)
        if memory:
            # One handler per block: a KeyError/IndexError raised in this
            # frame (not a callee's) can only come from a load or store
            # line, and ``a`` still holds that instruction's address.
            self.emit("try:")
            self.shift = 1
        for d in code:
            self.instr(d, blk, dfn)
        self.terminator(blk.term)
        if memory:
            self.shift = 0
            loads = tuple(self.loads)
            kind = ("'store to'" if not loads else "'load from'" if not self.stores
                    else f"'load from' if tb.tb_lineno in {loads} else 'store to'")
            self.emit("except (KeyError, IndexError) as exc:")
            self.emit("tb = exc.__traceback__", 2)
            self.emit("if tb.tb_next is not None:", 2)
            self.emit("raise", 3)
            self.emit(f"_mfault({kind}, a)", 2)
        return "\n".join(self.lines) + "\n"


class CompiledProgram:
    """Per-``Program`` compile-tier state: block tables, caches, namespace.

    Parameters
    ----------
    functions:
        ``Program.functions`` (decoded functions by name).
    flip_info:
        ``Program.flip_info`` (fault flip kind and width per iid).
    block_event:
        ``Program._block_event``: checkpoint capture and convergence checks.

    Nothing here refers back to the ``Program``, so the two are freed
    together by reference counting.
    """

    def __init__(self, functions: dict, flip_info: dict, block_event) -> None:
        n = sum(len(dfn.blocks) for dfn in functions.values())
        self.blocks: list = [None] * n
        self.fn_of: list = [None] * n
        for dfn in functions.values():
            for blk in dfn.blocks.values():
                self.blocks[blk.gid] = blk
                self.fn_of[blk.gid] = dfn
        # iid -> gid of its block: the blocks a fault or sticky hook needs,
        # and the expansion of block-entry counts into per-iid counts.
        self.gid_of_iid: list = [0] * sum(
            len(blk.phis) + len(blk.code) + 1 for blk in self.blocks
        )
        for blk in self.blocks:
            for d in (*blk.phis, *blk.code, blk.term):
                self.gid_of_iid[d[1]] = blk.gid
        blocks, fn_of = self.blocks, self.fn_of

        def event(st, g, prev, slots):
            if st.bc is not None:
                st.counts = st.ct.counts(st, g)
            block_event(st, fn_of[g], blocks[g], prev, slots)

        def hook(st, iid, val):
            if iid == st.f_iid:
                st.f_seen += 1
                if st.f_seen == st.f_instance:
                    kind, width = flip_info[iid]
                    val = flip_value(val, st.f_bit, kind, width)
                    st.f_fired = True
            sticky = st.sticky
            if sticky is not None and iid in sticky.iids:
                val = sticky.visit(iid, val)
            return val

        self.ns: dict = {
            "__builtins__": builtins, **_HELPERS,
            "_mfault": _mfault, "_no_edge": _no_edge, "_hang": _hang,
            "_event": event, "_hook": hook, "_fn_of": fn_of, "_blocks": blocks,
        }
        self._fns: dict = {}
        self._entries: dict = {}
        self._table = [_stub(g, False) for g in range(n)]

    def entry(self, dfn):
        """The closure that calls ``dfn`` with a fresh frame."""
        fn = self._entries.get(dfn.name)
        if fn is not None:
            return fn
        name = dfn.name
        g0 = dfn.entry.gid
        pad = [None] * (dfn.n_slots - dfn.arg_slots)

        def enter(st, args):
            depth = st.depth + 1
            st.depth = depth
            if depth > 200:
                st.depth = depth - 1
                raise StackOverflow(f"call depth exceeded in @{name}")
            ps = st.path_stack
            if ps is not None:
                ps.append(name)
                key = tuple(ps)
                st.paths[key] = st.paths.get(key, 0) + 1
            args += pad
            tbl = st.tbl
            if st.bc is None:
                g = g0
                prev = -1
                while True:  # _drive, inlined: guest calls are hot
                    nxt = tbl[g](args, st, prev)
                    if nxt < 0:
                        break
                    prev = g
                    g = nxt
            else:
                _drive(tbl, g0, -1, args, st)
            st.depth -= 1
            if ps is not None:
                ps.pop()
            return st.rv

        self._entries[name] = enter
        return enter

    # -- compilation ---------------------------------------------------
    def block(self, g: int, hooked: bool, start: int = -1):
        """Block ``g``'s function, hooked or not, compiled on first use.

        ``start >= 0`` gives the tail from that code index instead.
        """
        key = (g, start, hooked)
        fn = self._fns.get(key)
        if fn is None:
            source = _Source(self, hooked)
            src = source.function(self.blocks[g], self.fn_of[g], start)
            values = tuple(source.values)
            digest = hashlib.blake2b(src.encode(), digest_size=16).digest()
            hit = _CODE_CACHE.get(digest)
            if hit is None:
                code, where = _compile(src, len(values))
                hit = _CODE_CACHE[digest] = (_bind(code, where, values), where, values)
                if len(_CODE_CACHE) > _CODE_CACHE_MAX:
                    _CODE_CACHE.popitem(last=False)
            else:
                _CODE_CACHE.move_to_end(digest)
            code, where, bound = hit
            if values != bound:
                code = _bind(code, where, values)
            fn = self._fns[key] = FunctionType(code, self.ns)
            if start < 0 and not hooked:
                self._table[g] = fn
        return fn

    # -- counting ------------------------------------------------------
    def counts(self, st, g: int = -1) -> list:
        """A counting run's per-iid execution counts, from its block entries.

        Each instruction has run once per entry into its block, except in
        the blocks frames are still inside: ``g``, whose entry event is
        running (entered, but none of it run; ``-1`` once the run has
        returned), and the block of each suspended caller in ``st.shadow``,
        run up to and including its call.
        """
        bc = st.bc
        counts = [bc[b] for b in self.gid_of_iid]
        if g >= 0:
            blk = self.blocks[g]
            for d in (*blk.phis, *blk.code, blk.term):
                counts[d[1]] -= 1
            for _, _, caller, _, ci in st.shadow:
                for d in (*caller.code[ci + 1:], caller.term):
                    counts[d[1]] -= 1
        return counts

    # -- execution -----------------------------------------------------
    def execute(self, dfn, args, st, resume=None):
        """``Program._exec_fn``'s contract, on compiled blocks.

        A run that counts (``st.counts`` set; never a resume) counts block
        entries into ``st.bc`` and leaves the per-iid expansion in
        ``st.counts`` when it returns, as at each block event.
        """
        gid_of_iid = self.gid_of_iid
        hooks = set()
        if st.f_iid >= 0:
            hooks.add(gid_of_iid[st.f_iid])
        if st.sticky is not None:
            hooks.update(gid_of_iid[i] for i in st.sticky.iids)
        tbl = self._table
        if hooks:
            tbl = list(tbl)
            for g in hooks:
                tbl[g] = _stub(g, True)
        st.tbl = tbl
        st.ct = self
        if resume is not None:
            frames, fi = resume
            return self._resume(frames, fi, st, hooks)
        if st.counts is None:
            return self.entry(dfn)(st, args)
        st.bc = [0] * len(self.blocks)
        rv = self.entry(dfn)(st, args)
        st.counts = self.counts(st)
        return rv

    def _resume(self, frames: list, fi: int, st, hooks: set):
        """Rebuild frame ``fi`` (and, first, the frames it called)."""
        fr = frames[fi]
        name = fr.dfn.name
        depth = st.depth + 1
        st.depth = depth
        if depth > 200:
            st.depth = depth - 1
            raise StackOverflow(f"call depth exceeded in @{name}")
        ps = st.path_stack
        if ps is not None:
            ps.append(name)
            key = tuple(ps)
            st.paths[key] = st.paths.get(key, 0) + 1
        slots, g, prev = fr.slots, fr.blk.gid, fr.prev_gid
        if fi + 1 < len(frames):
            # Finish the suspended callee, then the rest of this block.
            rv = self._resume(frames, fi + 1, st, hooks)
            if st.shadow is not None:
                st.shadow.pop()
            dest = fr.blk.code[fr.call_index][2]
            if dest >= 0:
                slots[dest] = rv
            start = fr.call_index + 1
        else:
            # The batch engine detaches mid-block: entry accounting is
            # already in the snapshot's steps.
            start = fr.code_index
        nxt = g
        if start >= 0:
            tail = self.block(g, g in hooks, start)
            nxt = tail(slots, st, prev)
            prev = g
        if nxt >= 0:
            _drive(st.tbl, nxt, prev, slots, st)
        st.depth -= 1
        if ps is not None:
            ps.pop()
        return st.rv
