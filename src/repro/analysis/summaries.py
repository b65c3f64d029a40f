"""Per-function section summaries of silent error propagation.

FastFlip's key idea: analyze each program *section* once, summarize how
errors entering it propagate to its boundary, and compose summaries — so
editing one section only re-analyzes that section. Our sections are
functions. A :class:`FunctionSummary` records, for every corruption source
in the function (value-producing instruction, formal argument), the
probability that the corruption *silently* reaches

* ``sink`` — an in-function global sink: an emitted output value, memory
  through a store, or a redirected branch decision;
* ``ret`` — the function's return value (to be composed with what callers
  do with the call result); and
* ``calls`` — a specific argument of a specific call site (to be composed
  with the callee's own summary), paired with the call's local result index
  so a corruption can continue through the returned value.

Summaries are purely static: dynamic execution counts join at model-build
time (:mod:`repro.analysis.model`). They are content-addressed by the
function's canonical text plus the masking-model fingerprint
(:func:`repro.cache.keys.section_summary_key`) and persisted in the ambient
:mod:`repro.cache` store, so a warm re-analysis of an unchanged function is
a dictionary read (``model.summary_hits`` counts them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import dataflow as df
from repro.analysis.masking import DEFAULT_MASKING, MaskingModel
from repro.cache.keys import section_summary_key
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.ir.values import Argument, GlobalArray
from repro.obs.core import current as _obs_current
from repro.runconfig import resolve_field

__all__ = ["Channels", "FunctionSummary", "summarize_function", "module_summaries"]

#: Convergence bar of the intra-function fixed point.
_EPS = 1e-9


@dataclass
class Channels:
    """Silent-propagation probabilities of one corruption source."""

    sink: float = 0.0
    ret: float = 0.0
    #: (callee, arg index, local result index or -1) -> reach probability.
    calls: dict[tuple[str, int, int], float] = field(default_factory=dict)

    def scaled(self, factor: float) -> "Channels":
        return Channels(
            sink=self.sink * factor,
            ret=self.ret * factor,
            calls={k: w * factor for k, w in self.calls.items()},
        )

    def absorb(self, other: "Channels") -> None:
        """Noisy-or accumulate ``other`` into this channel set."""
        self.sink = _noisy_or(self.sink, other.sink)
        self.ret = _noisy_or(self.ret, other.ret)
        for k, w in other.calls.items():
            self.calls[k] = _noisy_or(self.calls.get(k, 0.0), w)

    def amplified(self, n: int) -> "Channels":
        """Noisy-or of ``n`` independent chances per channel (loop fan-out)."""
        if n <= 1:
            return self

        def amp(p: float) -> float:
            return min(1.0, 1.0 - (1.0 - p) ** n)

        return Channels(
            sink=amp(self.sink),
            ret=amp(self.ret),
            calls={k: amp(w) for k, w in self.calls.items()},
        )

    def delta(self, other: "Channels") -> float:
        d = max(abs(self.sink - other.sink), abs(self.ret - other.ret))
        for k in set(self.calls) | set(other.calls):
            d = max(d, abs(self.calls.get(k, 0.0) - other.calls.get(k, 0.0)))
        return d


def _noisy_or(a: float, b: float) -> float:
    return min(1.0, 1.0 - (1.0 - a) * (1.0 - b))


@dataclass
class FunctionSummary:
    """The composable propagation summary of one function."""

    function: str
    #: Channels per value-producing instruction, keyed by local index
    #: (position in block-order instruction iteration — stable under edits
    #: to *other* functions).
    instr: dict[int, Channels]
    #: Channels per formal argument index.
    args: dict[int, Channels]
    #: Local index of every call instruction, with its callee (used by the
    #: model to weight cross-function composition with dynamic counts).
    call_sites: list[tuple[int, str]]
    #: Static instruction count (sanity check when pairing with a module).
    n_instructions: int

    # -- (de)serialization for the content-addressed store ---------------
    def to_payload(self) -> dict:
        def enc(ch: Channels) -> dict:
            return {
                "sink": ch.sink,
                "ret": ch.ret,
                "calls": [
                    [callee, arg, res, w]
                    for (callee, arg, res), w in sorted(ch.calls.items())
                ],
            }

        return {
            "kind": "section-summary",
            "function": self.function,
            "instr": {str(i): enc(c) for i, c in sorted(self.instr.items())},
            "args": {str(i): enc(c) for i, c in sorted(self.args.items())},
            "call_sites": [[i, callee] for i, callee in self.call_sites],
            "n_instructions": self.n_instructions,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FunctionSummary | None":
        """Decode a cached payload; any malformation reads as a miss."""
        if not isinstance(payload, dict):
            return None
        if payload.get("kind") != "section-summary":
            return None
        try:
            def dec(d: dict) -> Channels:
                return Channels(
                    sink=float(d["sink"]),
                    ret=float(d["ret"]),
                    calls={
                        (str(callee), int(arg), int(res)): float(w)
                        for callee, arg, res, w in d["calls"]
                    },
                )

            return cls(
                function=str(payload["function"]),
                instr={int(i): dec(c) for i, c in payload["instr"].items()},
                args={int(i): dec(c) for i, c in payload["args"].items()},
                call_sites=[
                    (int(i), str(callee)) for i, callee in payload["call_sites"]
                ],
                n_instructions=int(payload["n_instructions"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


def _branch_factor(
    fn: Function, masking: MaskingModel
) -> tuple[dict[str, float], set[str]]:
    """Control-sink factor per block holding a ``condbr``.

    The dominated-region mass of the branch's successors bounds how much of
    the function a flipped decision can redirect: a guard around the whole
    loop body weighs more than a tail check. Loop-controlling branches —
    the block has a back edge in or out (loop header or latch) — decide the
    trip count and get the much harsher ``branch_loop`` factor; the second
    return value names those blocks (their comparisons are trip-count
    comparisons, which barely mask).
    """
    idom = df.dominator_tree(fn)
    depth = df.loop_depth(fn)
    total = max(1, sum(1 for i in fn.instructions() if i.produces_value))
    factors: dict[str, float] = {}
    loop_blocks: set[str] = set()
    for blk in fn.blocks.values():
        term = blk.terminator
        if term is None or term.opcode != "condbr" or blk.name not in idom:
            continue
        # Loop-controlling: one successor leaves the blocks's innermost
        # loop while the other stays (header exit test / latch repeat test).
        d = depth.get(blk.name, 0)
        succ_depths = [depth.get(s, 0) for s in blk.successors() if s in idom]
        if d > 0 and succ_depths and min(succ_depths) < d <= max(succ_depths):
            factors[blk.name] = masking.branch_loop
            loop_blocks.add(blk.name)
            continue
        region: set[str] = set()
        for succ in blk.successors():
            if succ in idom:
                region |= df.dominated_blocks(idom, succ)
        mass = sum(
            1
            for name in region
            for i in fn.blocks[name].instructions
            if i.produces_value
        )
        factors[blk.name] = min(
            1.0, masking.branch_base + masking.branch_region * (mass / total)
        )
    return factors, loop_blocks


def _memory_base(value) -> tuple[str, object] | None:
    """The memory object an address computes into, or None if unresolved.

    Follows ``gep`` chains to an ``alloca`` (a function-local slot), a
    :class:`GlobalArray`, or a pointer :class:`Argument`. These kernels
    route *all* loop state through such objects, so resolving them turns
    opaque store-sinks into traceable store→load dataflow.
    """
    while isinstance(value, Instruction) and value.opcode == "gep":
        value = value.operands[0]
    if isinstance(value, Instruction) and value.opcode == "alloca":
        return ("slot", id(value))
    if isinstance(value, GlobalArray):
        return ("global", value.name)
    if isinstance(value, Argument):
        return ("arg", value.index)
    return None


def _compute_summary(fn: Function, masking: MaskingModel) -> FunctionSummary:
    """The intra-function propagation fixed point (no caching)."""
    # Local def-use view, keyed by object identity so the analysis works on
    # functions whose module has not (re)assigned iids yet.
    instrs = list(fn.instructions())
    local_index = {id(instr): i for i, instr in enumerate(instrs)}
    uses_by_instr: dict[int, list[df.Use]] = {}
    uses_by_arg: dict[int, list[df.Use]] = {}

    def record(value, use: df.Use) -> None:
        if isinstance(value, Instruction):
            if id(value) in local_index:
                uses_by_instr.setdefault(id(value), []).append(use)
        elif isinstance(value, Argument):
            uses_by_arg.setdefault(value.index, []).append(use)

    for instr in instrs:
        for i, op in enumerate(instr.operands):
            record(op, df.Use(instr, i, df._role_of(instr, i)))
        if instr.opcode == "phi":
            for i, (_, val) in enumerate(instr.attrs.get("incoming", [])):
                record(val, df.Use(instr, i, df.ROLE_DATA))

    branch_factors, loop_blocks = _branch_factor(fn, masking)
    depth = df.loop_depth(fn)
    call_sites = [
        (local_index[id(i)], i.attrs["callee"])
        for i in instrs
        if i.opcode == "call"
    ]
    # Comparisons deciding a loop branch: trip-count compares, barely mask.
    loop_cmp_ids: set[int] = set()
    for blk in fn.blocks.values():
        if blk.name in loop_blocks:
            cond = blk.terminator.operands[0]
            if isinstance(cond, Instruction):
                loop_cmp_ids.add(id(cond))

    # Current channel estimate per value-producing instruction / argument /
    # memory object. A memory object's channels answer: if a corrupted
    # value lands in this object, where does it silently surface?
    state: dict[int, Channels] = {
        local_index[id(i)]: Channels() for i in instrs if i.produces_value
    }
    arg_state: dict[int, Channels] = {a.index: Channels() for a in fn.args}
    loads_by_base: dict[tuple[str, object], list[int]] = {}
    mem_state: dict[tuple[str, object], Channels] = {}
    for instr in instrs:
        if instr.opcode == "load":
            base = _memory_base(instr.operands[0])
            if base is not None:
                loads_by_base.setdefault(base, []).append(
                    local_index[id(instr)]
                )
                mem_state[base] = Channels()
        elif instr.opcode == "store":
            base = _memory_base(instr.operands[1])
            if base is not None:
                mem_state.setdefault(base, Channels())

    def block_depth(instr: Instruction) -> int:
        blk = instr.parent.name if instr.parent is not None else None
        return depth.get(blk, 0)

    def amp_count(src_depth: int, user: Instruction) -> int:
        """Independent escape chances of a def feeding a deeper loop."""
        dd = block_depth(user) - src_depth
        if dd <= 0:
            return 1
        return min(masking.loop_amp_cap, masking.loop_fanout**dd)

    def channels_from_uses(uses: list[df.Use], src_depth: int) -> Channels:
        out = Channels()
        for use in uses:
            user = use.user
            role = use.role
            factor = masking.use_survival(use)
            n = amp_count(src_depth, user)
            if role == df.ROLE_EMIT:
                out.sink = _noisy_or(out.sink, factor)
            elif role == df.ROLE_RET_VALUE:
                out.ret = _noisy_or(out.ret, factor)
            elif role == df.ROLE_STORE_VALUE:
                base = _memory_base(user.operands[1])
                if base is None:
                    out.sink = _noisy_or(out.sink, masking.store_value_sink)
                else:
                    out.absorb(mem_state[base].amplified(n))
                    if base[0] != "slot":
                        out.sink = _noisy_or(out.sink, masking.mem_escape)
            elif role == df.ROLE_STORE_ADDR:
                # Wrong cell clobbered (value surfaces wherever the object
                # is read) and the right cell left stale.
                base = _memory_base(use.user.operands[1])
                reach = Channels(sink=masking.store_addr_sink)
                if base is not None:
                    reach.absorb(
                        mem_state[base].scaled(masking.store_addr_sink)
                    )
                out.absorb(reach.amplified(n))
            elif role == df.ROLE_LOAD_ADDR:
                # Wrong cell read: the load's result is silently wrong
                # whenever the stray address stays in bounds.
                consumer = state.get(local_index[id(user)])
                if consumer is not None:
                    out.absorb(
                        consumer.scaled(masking.load_addr).amplified(n)
                    )
            elif role == df.ROLE_BRANCH_COND:
                blk = user.parent.name if user.parent is not None else None
                out.sink = _noisy_or(out.sink, branch_factors.get(blk, 0.0))
            elif role == df.ROLE_CHECK:
                continue
            elif role == df.ROLE_CALL_ARG:
                res = local_index[id(user)] if user.produces_value else -1
                key = (user.attrs["callee"], use.index, res)
                out.calls[key] = _noisy_or(out.calls.get(key, 0.0), factor)
            else:
                # Data-shaped edge into a value-producing consumer (this
                # covers select/gep/phi as users too): scale the consumer's
                # own channels, with the trip-count boost for comparisons
                # that decide a loop branch.
                if id(user) in loop_cmp_ids:
                    factor = max(factor, masking.cmp_loop_bound)
                consumer = state.get(local_index[id(user)])
                if consumer is not None:
                    out.absorb(consumer.scaled(factor).amplified(n))
        return out

    # Monotone fixed point: every sweep extends the horizon by one more
    # def-use (loop) traversal; ``loop_sweeps`` bounds how many chances a
    # circulating corruption gets to escape.
    for _ in range(max(1, masking.loop_sweeps)):
        delta = 0.0
        for instr in reversed(instrs):
            if not instr.produces_value:
                continue
            idx = local_index[id(instr)]
            new = channels_from_uses(
                uses_by_instr.get(id(instr), []), block_depth(instr)
            )
            delta = max(delta, new.delta(state[idx]))
            state[idx] = new
        for base, load_idxs in loads_by_base.items():
            new = Channels()
            for li in load_idxs:
                new.absorb(state[li].scaled(masking.mem_readback))
            delta = max(delta, new.delta(mem_state[base]))
            mem_state[base] = new
        for a in fn.args:
            new = channels_from_uses(uses_by_arg.get(a.index, []), 0)
            delta = max(delta, new.delta(arg_state[a.index]))
            arg_state[a.index] = new
        if delta < _EPS:
            break

    return FunctionSummary(
        function=fn.name,
        instr=state,
        args=arg_state,
        call_sites=call_sites,
        n_instructions=len(instrs),
    )


def summarize_function(
    fn: Function,
    masking: MaskingModel = DEFAULT_MASKING,
    cache=None,
) -> FunctionSummary:
    """Summary of one function, through the content-addressed store.

    ``cache=None`` defers to the run configuration's cache
    (:mod:`repro.runconfig`); ``cache=False`` forces a fresh computation.
    The key covers the function's canonical text and every masking
    constant, so a stale entry can never be confused for the current
    analysis.
    """
    store = resolve_field("cache", cache)
    t = _obs_current()
    key = None
    if store is not None:
        key = section_summary_key(print_function(fn), masking.fingerprint())
        cached = FunctionSummary.from_payload(store.get(key))
        if cached is not None and cached.function == fn.name:
            if t is not None:
                t.count("model.summary_hits")
            return cached
    summary = _compute_summary(fn, masking)
    if t is not None:
        t.count("model.summary_misses")
        t.count("model.sections_analyzed")
    if store is not None:
        store.put(key, summary.to_payload())
    return summary


def module_summaries(
    module: Module,
    masking: MaskingModel = DEFAULT_MASKING,
    cache=None,
) -> dict[str, FunctionSummary]:
    """Summaries of every function, in deterministic function order."""
    return {
        name: summarize_function(fn, masking, cache=cache)
        for name, fn in module.functions.items()
    }
